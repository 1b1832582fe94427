"""Record the reference digests the correctness gates compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the digest of the canonical census_run(5)
summary bytes and of the canonical analyze report of every input any seed
can draw (the fixed structures and the whole held-out pool).  Re-record
only for a change whose purpose is to alter those bytes, and say so.
"""

from __future__ import annotations

import json
import sys
import time

import gates
import workloads
from run import load_program


def main() -> int:
    op = load_program()
    census = gates.digest(gates.census_bytes(op.census_run(workloads.CENSUS_MAX_N)))
    entries = workloads.fixed_posets(op) + [
        workloads.random_entry(op, *key) for key in workloads.held_out_keys()]
    analyze = {}
    slow = []
    for name, p in entries:
        text = op.serialize_poset_file(p)
        t0 = time.perf_counter()
        report = op.emit_json_report(
            op.build_report(op.parse_poset_file(text), source=name))
        slow.append((time.perf_counter() - t0, name))
        analyze[name] = gates.digest(report)
    with open(gates.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"census_max_n5": census, "analyze": analyze}, fh,
                  sort_keys=True, indent=1)
        fh.write("\n")
    slow.sort(reverse=True)
    print(f"{len(analyze)} analyze references; slowest inputs:")
    for seconds, name in slow[:8]:
        print(f"  {seconds:8.3f} s  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
