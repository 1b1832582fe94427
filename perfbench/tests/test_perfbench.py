"""The benchmark's own tests: span arithmetic, the tail percentile choice,
the correctness gates, and agreement of BENCHMARK.json with run.py.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402


@pytest.fixture(scope="module")
def op():
    return run.load_program()


@pytest.fixture(scope="module")
def ctx():
    return workloads.Context(gates.load_reference(),
                             gates.schema_validator(ROOT))


@pytest.fixture(scope="module")
def census5(op):
    return op.census_run(workloads.CENSUS_MAX_N)


# self time

def test_self_time_subtracts_child_coverage_once():
    # parent [0, 10]; children overlap on [2, 3] and one runs past the end
    start = [0.0, 1.0, 2.0, 9.0, 4.0]
    end = [10.0, 3.0, 5.0, 12.0, 4.5]
    parent = [-1, 0, 0, 0, 2]
    got = self_times(start, end, parent)
    assert got[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0 - 0.5)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(0.5)


def test_tracer_nests_spans_and_sums_by_name():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return tr.call("leaf", lambda: None)

    tr.call("outer", inner)      # outer 0..3, leaf 1..2
    tr.call("leaf", lambda: None)  # leaf 4..5
    assert list(tr.parent) == [-1, 0, -1]
    s = summarize(tr)
    assert s["inclusive_s"] == {"outer": 3.0, "leaf": 2.0}
    assert s["self_s"] == {"outer": 2.0, "leaf": 2.0}


# tail percentile

def test_p90_keeps_ten_samples_beyond_it_on_analyze(op):
    n = len(workloads.analyze_inputs(op, seed=0))
    assert stats.tail_quantile(n) == 0.9
    latencies = list(range(n))
    p90 = stats.nearest_rank(latencies, 0.9)
    assert sum(1 for v in latencies if v > p90) >= stats.MIN_BEYOND
    # and p90 is the highest common percentile that does
    p95 = stats.nearest_rank(latencies, 0.95)
    assert sum(1 for v in latencies if v > p95) < stats.MIN_BEYOND


def test_tail_choice_never_leaves_fewer_than_ten_beyond():
    for n in range(1, 2000):
        if stats.tail_quantile(n) == 0.9:
            assert stats.beyond(n, 0.9) >= stats.MIN_BEYOND
        else:
            assert n < 100 and stats.tail_quantile(n) == 0.5


# gates

def test_census_gate_accepts_the_real_summary(census5, ctx):
    assert gates.census_problems(census5, ctx.reference) == []


@pytest.mark.parametrize("tamper", [
    lambda s: dataclasses.replace(s, compatible=s.compatible + 1),
    lambda s: dataclasses.replace(s, violations=s.violations[1:]),
    lambda s: dataclasses.replace(
        s, violations=tuple(v.replace("vs boolean", "vs oml")
                            for v in s.violations)),
])
def test_census_gate_counts_a_tampered_summary_as_failed(census5, ctx, tamper):
    tampered = census5[:-1] + [tamper(census5[-1])]
    outcome = workloads.timed(
        lambda s: gates.census_problems(s, ctx.reference), 1, lambda: tampered)
    assert outcome.problems


def test_report_gate_accepts_the_catalog_fixtures(op, ctx):
    for name, p in workloads.fixed_posets(op)[:4]:
        text = op.emit_json_report(op.build_report(p, source=name))
        assert gates.report_problems(name, text, ctx.reference,
                                     ctx.validator) == [], name


@pytest.mark.parametrize("tamper", [
    lambda d: d["predicates"].update(dacey=not d["predicates"]["dacey"]),
    lambda d: d["witnesses"]["n"]["quad"].reverse(),
    lambda d: d.update(extra=1),
])
def test_report_gate_counts_a_tampered_report_as_failed(op, ctx, tamper):
    text = op.emit_json_report(op.build_report(op.n_poset(), source="catalog-n"))
    doc = json.loads(text)
    tamper(doc)
    bad = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    outcome = workloads.timed(
        lambda t: gates.report_problems("catalog-n", t, ctx.reference,
                                        ctx.validator), 1, lambda: bad)
    assert outcome.problems


def test_search_gate_counts_a_found_poset_as_failed(op):
    assert gates.search_problems(None) == []
    assert gates.search_problems(op.nfree_strict_non_dacey())


def test_a_raising_request_is_failed():
    outcome = workloads.timed(lambda out: [], 1, lambda: 1 // 0)
    assert outcome.problems and "ZeroDivisionError" in outcome.problems[0]


# traced re-composition

def test_recomposed_census_equals_census_run(op):
    tr = Tracer()
    assert workloads.recompose_census(op, tr, 4) == op.census_run(4)
    assert tr.counts["census.enumerate.count"] == sum(gates.LABELED_POSETS[:4])


def test_recomposed_search_agrees_with_search(op):
    assert workloads.recompose_search(op, Tracer(), 5) is None
    assert op.search_counterexample(workloads.SEARCH_PREDICATE, 5) is None


# BENCHMARK.json

def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
