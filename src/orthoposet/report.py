"""Full analysis of one poset, with witnesses, as a stable JSON document."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .bitset import subset_labels
from .census import _PREDICATES, verify_theorems
from .logic import DEFAULT_MAX_LATTICE
from .poset import Poset

# not called here; kept bound so the benchmark's traced analyze can wrap them
from .bridges import incomparability_orthoset  # noqa: F401
from .logic import build_logic, is_boolean, is_orthomodular  # noqa: F401
from .npatterns import find_covering_n, find_n, find_weak_n  # noqa: F401
from .orthoset import is_compatible, is_dacey  # noqa: F401

# label-level shape of each raw witness: a list of element labels under one
# key, or one label list per subset mask under the given keys
_ELEMENT_WITNESSES = {"n": "quad", "covering_n": "quad", "weak_n": "quad",
                      "compatible": "pair"}
_SUBSET_WITNESSES = {"dacey": ("closed_set", "basis"), "oml": ("x", "y"),
                     "boolean": ("x", "y", "z")}


@dataclass(frozen=True)
class Report:
    """Everything analyze knows about one poset.

    Witnesses are present only for failing predicates and use element
    labels; elapsed_ms is wall time of the analysis and is excluded from
    the canonical JSON so equal inputs emit equal bytes.
    """

    source: str
    n: int
    labels: tuple[str, ...]
    predicates: dict[str, bool]
    witnesses: dict[str, dict]
    lattice_size: int
    violations: tuple[str, ...]
    elapsed_ms: float


def build_report(p: Poset, source: str = "<memory>",
                 max_lattice: int = DEFAULT_MAX_LATTICE) -> Report:
    """verify_theorems on p, with its verdicts and witnesses put in labels.

    verify_theorems decides every predicate and names every witness in one
    pass; nothing is recomputed here.
    """
    t0 = time.perf_counter()
    rep = verify_theorems(p, max_lattice)
    labels = p.labels
    witnesses: dict[str, dict] = {}
    for kind, raw in rep.witnesses.items():
        if kind in _ELEMENT_WITNESSES:
            witnesses[kind] = {_ELEMENT_WITNESSES[kind]:
                               [labels[i] for i in raw]}
        else:
            witnesses[kind] = {key: subset_labels(mask, labels) for key, mask
                               in zip(_SUBSET_WITNESSES[kind], raw)}

    predicates = {name: getattr(rep, name) for name in _PREDICATES}
    elapsed = (time.perf_counter() - t0) * 1000.0
    return Report(source, p.n, labels, predicates, witnesses,
                  rep.lattice_size, rep.violations, elapsed)


def emit_json_report(report: Report, include_timing: bool = False) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    Equal analyses emit byte-identical documents; timing is opt-in since it
    never reproduces.
    """
    payload = {
        "source": report.source,
        "n": report.n,
        "labels": list(report.labels),
        "predicates": report.predicates,
        "witnesses": report.witnesses,
        "lattice_size": report.lattice_size,
        "violations": list(report.violations),
    }
    if include_timing:
        payload["elapsed_ms"] = round(report.elapsed_ms, 3)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
