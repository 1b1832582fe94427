"""The benchmark's contract with the program: one traced round of the census
and analyze workloads passes every correctness gate, and the census trace
still sees the orthoclosed-family closure.

perfbench wraps public names of orthoposet (logic.enumerate_orthoclosed
among them) to time each layer, so a refactor that stops calling through
one of those names silently zeroes its per-layer metric.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _program_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "orthoposet" or name.startswith("orthoposet.")}


@pytest.fixture(scope="module")
def bench():
    saved_path = list(sys.path)
    saved_modules = _program_modules()
    sys.path.insert(0, str(PERFBENCH))
    import gates
    import run
    import tracing
    import workloads

    op = run.load_program()
    ctx = workloads.Context(gates.load_reference(),
                            gates.schema_validator(ROOT))
    yield run, tracing, workloads, op, ctx
    # load_program imported orthoposet afresh; later tests patch the
    # modules they imported themselves, so put those back
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(saved_modules)
    sys.path[:] = saved_path


@pytest.mark.parametrize("name", ["census", "analyze"])
def test_one_traced_round_passes_every_gate(name, bench):
    run, tracing, workloads, op, ctx = bench
    w = workloads.WORKLOADS[name](op, 1, ctx)
    w.warm_up()
    tr = tracing.Tracer()
    pipeline_s, outcomes, extra = w.traced_round(tr)
    assert [p for o in outcomes for p in o.problems] == []
    metrics = run.layer_values(tracing.summarize(tr), pipeline_s, pipeline_s,
                               extra)
    if name == "census":
        assert metrics["orthoset.family.s"] > 0
        assert metrics["orthoset.family_size.sum"] > 0
