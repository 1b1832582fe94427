"""Correctness gates: every output the benchmark times is checked here.

An operation fails when it raises or when one of these functions returns a
non-empty list of problems for its output.  References are digests of the
canonical bytes the seed commit produced (see record_reference.py).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# OEIS A001035: labeled posets on 1..5 elements
LABELED_POSETS = (1, 3, 19, 219, 4231)
# the 30 labelings of catalog.weak_nfree_incompatible, each breaking the
# weak-N-free cluster twice; expected output, not a failure
EXPECTED_VIOLATIONS = {5: 60}
EXPECTED_VIOLATION_KINDS = frozenset(
    {"weak_n_free vs compatible", "weak_n_free vs boolean"})
N_FREE_CLUSTER = ("n_free", "dacey", "oml", "chain_antichain")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def census_bytes(summaries) -> str:
    """The summary list as `orthoposet census` prints it."""
    return json.dumps([dataclasses.asdict(s) for s in summaries],
                      sort_keys=True, indent=2) + "\n"


def census_problems(summaries, reference: dict) -> list[str]:
    """Problems with a census_run(5) result; empty when it is correct."""
    problems = []
    totals = tuple(s.total_posets for s in summaries)
    if totals != LABELED_POSETS:
        problems.append(f"census totals {totals} != A001035 {LABELED_POSETS}")
    for s in summaries:
        want = EXPECTED_VIOLATIONS.get(s.n, 0)
        if len(s.violations) != want:
            problems.append(
                f"n={s.n}: {len(s.violations)} violations, expected {want}")
        kinds = {v.rsplit(": ", 1)[-1] for v in s.violations}
        if kinds - EXPECTED_VIOLATION_KINDS:
            problems.append(
                f"n={s.n}: unexpected violations {sorted(kinds - EXPECTED_VIOLATION_KINDS)}")
    if digest(census_bytes(summaries)) != reference["census_max_n5"]:
        problems.append("census summary bytes differ from the reference")
    return problems


def search_problems(found) -> list[str]:
    if found is not None:
        return [f"search found a poset on {found.n} elements, expected None"]
    return []


def report_problems(name: str, text: str, reference: dict,
                    validator) -> list[str]:
    """Problems with one canonical analyze report for the input `name`."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"{name}: report is not JSON ({exc})"]
    problems = [f"{name}: schema: {e.message}"
                for e in validator.iter_errors(doc)]
    if problems:
        return problems
    cluster = {k: doc["predicates"][k] for k in N_FREE_CLUSTER}
    if len(set(cluster.values())) != 1:
        problems.append(f"{name}: N-free cluster disagrees: {cluster}")
    want = reference["analyze"].get(name)
    if want is None:
        problems.append(f"{name}: no reference report recorded")
    elif digest(text) != want:
        problems.append(f"{name}: report bytes differ from the reference")
    return problems


def schema_validator(root: Path):
    """Validator for docs/report-schema.json of the checkout at root."""
    from jsonschema import Draft202012Validator

    with open(root / "docs" / "report-schema.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)
