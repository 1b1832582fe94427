"""Run workloads over several seeds, each in a fresh process, and check spread.

    python3 perfbench/sweep.py --workloads census analyze --seeds 1 2 3 4 5

For every workload and seed this runs perfbench/run.py once for the
run_seconds of BENCHMARK.json, with tracing off, then prints
each end-to-end metric by name and unit with its median over the seeds and
its quartile spread (distance between the first and third quartile as a
share of the median) next to the bound in BENCHMARK.json.  The raw results
go to .bench_build/perfbench/sweep-<workloads>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args(argv)
    raw: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            r = run_once(workload, seed, spec["run_seconds"])
            results.append(r)
            print(f"{workload} seed={seed} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
            ok &= r["correct"]
        raw[workload] = results
        print(f"== {workload}: {len(results)} runs")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            line = (f"  {m['name']:30s} median {stats.median(values):14.6g} "
                    f"{m['unit']:6s}")
            if len(values) >= 2:
                spread = stats.quartile_spread(values)
                line += (f" spread {spread:7.4f} bound {m['bound']:.3f}"
                         f" ({spread / m['bound']:.2f} of it)")
            print(line, flush=True)
    out = ROOT / ".bench_build" / "perfbench" / f"sweep-{'-'.join(args.workloads)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds,
                               "seconds": spec["run_seconds"], "results": raw},
                              indent=1))
    print(f"raw results in {out.relative_to(ROOT)}; all correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
