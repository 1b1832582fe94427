"""Full analysis of one poset, with witnesses, as a stable JSON document."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .bitset import subset_labels
from .bridges import incomparability_orthoset
from .census import TheoremReport, verify_theorems
from .logic import DEFAULT_MAX_LATTICE, build_logic, is_boolean, is_orthomodular
from .npatterns import find_covering_n, find_n, find_weak_n
from .orthoset import DEFAULT_MAX_ORTHO_ELEMENTS, is_compatible, is_dacey
from .poset import Poset


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
    """Run every check on p and collect label-level witnesses.

    The poset size was accepted upstream, so the orthoset-level size cap is
    lifted to p.n here; the family and lattice caps still apply.
    """
    t0 = time.perf_counter()
    rep: TheoremReport = verify_theorems(p, max_lattice)
    o = incomparability_orthoset(p)
    cap = max(p.n, DEFAULT_MAX_ORTHO_ELEMENTS)
    labels = p.labels

    witnesses: dict[str, dict] = {}
    nw = find_n(p)
    if nw:
        witnesses["n"] = {"quad": [labels[i] for i in nw.quad]}
    cw = find_covering_n(p)
    if cw:
        witnesses["covering_n"] = {"quad": [labels[i] for i in cw.quad]}
    ww = find_weak_n(p)
    if ww:
        witnesses["weak_n"] = {"quad": [labels[i] for i in ww.quad]}
    # verify_theorems has the verdicts; rerun a decision procedure on the
    # same input only to name the witness of a failing predicate
    if not rep.dacey:
        _, dw = is_dacey(o, max_elements=cap)
        if dw:
            witnesses["dacey"] = {"closed_set": subset_labels(dw[0], labels),
                                  "basis": subset_labels(dw[1], labels)}
    if not rep.compatible:
        _, pw = is_compatible(o, max_elements=cap)
        if pw:
            witnesses["compatible"] = {"pair": [labels[pw[0]],
                                                labels[pw[1]]]}
    if not (rep.oml and rep.boolean):
        logic = build_logic(o, max_elements=cap, max_lattice=max_lattice)

        def named(*idx: int) -> dict[str, list[str]]:
            return {k: subset_labels(logic.elements[i], labels)
                    for k, i in zip("xyz", idx)}

        if not rep.oml:
            _, ow = is_orthomodular(logic)
            if ow:
                witnesses["oml"] = named(*ow)
        if not rep.boolean:
            _, bw = is_boolean(logic)
            if bw:
                witnesses["boolean"] = named(*bw)

    predicates = {
        "n_free": rep.n_free,
        "weak_n_free": rep.weak_n_free,
        "dacey": rep.dacey,
        "compatible": rep.compatible,
        "oml": rep.oml,
        "boolean": rep.boolean,
        "chain_antichain": rep.chain_antichain,
    }
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
