"""Run one benchmark workload against the orthoposet checkout around it.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Each invocation is one fresh process running one workload.  It imports
orthoposet from src/ of the checkout, sets up several times (import, inputs
from the seed, warm-up call) and reports the median as setup_s, then runs
whole rounds until --seconds have passed.  Every output is gated for
correctness (gates.py).  With --trace 0 the end-to-end metrics are
reported; with --trace 1 each untraced round is paired with a traced one
and the per-layer metrics are reported instead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

The metrics, the workloads and why each was chosen are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import sys
import time
from pathlib import Path

import gates
import stats
import workloads
from tracing import Tracer, columns, summarize

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "posets_per_s": "1/s",
    "reports_per_s": "1/s",
    "report_ms.p50": "ms",
    "report_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose inclusive seconds it reports
SPAN_METRICS = {
    "census.enumerate.s": "census.enumerate",
    "npatterns.n.s": "npatterns.n",
    "npatterns.covering_n.s": "npatterns.covering_n",
    "npatterns.weak_n.s": "npatterns.weak_n",
    "npatterns.witness.s": "npatterns.witness",
    "npatterns.chain_antichain.s": "npatterns.chain_antichain",
    "bridges.orthoset.s": "bridges.orthoset",
    "orthoset.family.s": "orthoset.family",
    "orthoset.dacey.s": "orthoset.dacey",
    "orthoset.compatible.s": "orthoset.compatible",
    "orthoset.strict_dacey.s": "orthoset.strict_dacey",
    "logic.build.s": "logic.build",
    "logic.oml.s": "logic.oml",
    "logic.boolean.s": "logic.boolean",
    "report.verify.s": "report.verify",
    "report.build.s": "report.build",
    "report.emit.s": "report.emit",
    "ioformats.parse.s": "ioformats.parse",
}
COUNT_METRICS = ("census.enumerate.count", "orthoset.family_size.sum",
                 "logic.cells.count", "logic.boolean_triples.count")
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    "census.pool_overhead_s": "s",
    "report.after_verify.s": "s",
    "ioformats.serialize.s": "s",
    **{name: "count" for name in COUNT_METRICS},
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def load_program() -> object:
    """Import orthoposet from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    op = workloads.import_program()
    where = Path(op.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"orthoposet was imported from {where}, "
                          f"not from {ROOT / 'src'}")
    return op


def set_up(name: str, seed: int, ctx: workloads.Context):
    """Import, build inputs and warm up SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        op = workloads.import_program()
        w = workloads.WORKLOADS[name](op, seed, ctx)
        w.warm_up()
        times.append(time.perf_counter() - t0)
    return w, times


def end_to_end(rounds: list, setups: list[float]) -> dict[str, float]:
    latencies = [o.seconds for r in rounds for o in r]
    busy = [sum(o.seconds for o in r) for r in rounds]
    tail = stats.tail_quantile(max(len(r) for r in rounds))
    return {
        "setup_s": stats.median(setups),
        "posets_per_s": stats.median(
            [sum(o.posets for o in r) / t for r, t in zip(rounds, busy)]),
        "reports_per_s": stats.median(
            [len(r) / t for r, t in zip(rounds, busy)]),
        "report_ms.p50": stats.nearest_rank(latencies, 0.5) * 1000.0,
        "report_ms.p90": stats.nearest_rank(latencies, tail) * 1000.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_values(summary: dict, pipeline_s: float, untraced_s: float,
                 extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round (serialize is filled later).

    pipeline_s is the wall time of the traced pipeline, untraced_s that of
    the untraced round paired with it.
    """
    inc = summary["inclusive_s"]
    out = {name: inc.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    out["report.after_verify.s"] = (inc.get("report.build", 0.0)
                                    - inc.get("report.verify", 0.0))
    out["census.pool_overhead_s"] = 0.0
    for name in COUNT_METRICS:
        out[name] = summary["counts"].get(name, 0)
    out["trace.coverage"] = sum(summary["self_s"].values()) / pipeline_s
    out["trace.overhead_ratio"] = pipeline_s / untraced_s
    out.update(extra)
    return out


def write_trace(name: str, seed: int, rounds: list[dict], tr: Tracer) -> Path:
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": rounds,
                   "last_round_spans": columns(tr)}, fh)
    return path


def measure(name: str, seed: int, seconds: float, trace: bool,
            ctx: workloads.Context) -> tuple[list, list, dict[str, float]]:
    """The untraced rounds, the traced rounds and the run's metrics."""
    w, setups = set_up(name, seed, ctx)
    serialize_s = 0.0
    if trace:
        tr = Tracer()
        w.trace_setup(tr)
        serialize_s = summarize(tr)["inclusive_s"].get("ioformats.serialize", 0.0)
    rounds, traced, layer_rounds = [], [], []
    t_start = time.perf_counter()
    while True:
        rounds.append(w.round())
        if trace:
            tr = Tracer()
            pipeline_s, outcomes, extra = w.traced_round(tr)
            traced.append(outcomes)
            summary = summarize(tr)
            untraced_s = sum(o.seconds for o in rounds[-1])
            values = layer_values(summary, pipeline_s, untraced_s, extra)
            values["ioformats.serialize.s"] = serialize_s
            layer_rounds.append({**summary, "untraced_s": untraced_s,
                                 "traced_s": pipeline_s, "metrics": values})
        if time.perf_counter() - t_start >= seconds:
            break
    if not trace:
        return rounds, traced, end_to_end(rounds, setups)
    path = write_trace(name, seed, layer_rounds, tr)
    print(f"trace written to {path.relative_to(ROOT)}")
    metrics = {m: stats.median([r["metrics"][m] for r in layer_rounds])
               for m in PER_LAYER}
    return rounds, traced, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        load_program()
        ctx = workloads.Context(gates.load_reference(),
                                gates.schema_validator(ROOT))
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    rounds, traced, metrics = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), ctx)
    outcomes = [o for r in rounds + traced for o in r]
    failed = [o for o in outcomes if o.problems]
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} traced_rounds={len(traced)} "
          f"requests={len(outcomes)} "
          f"failed={len(failed)} failed_ratio={len(failed) / len(outcomes):.6g}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    for o in failed[:10]:
        print("FAILED: " + "; ".join(o.problems[:3]), file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
