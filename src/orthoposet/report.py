"""Full analysis of one poset, with witnesses, as a stable JSON document.

verify_theorems, the one decision pass, decides seven predicates and names
each claim of CLAIMS it finds broken; Dacey, compatible and the logic are
the incomparability orthoset's.  build_report puts them in labels, and
emit_json_report writes the JSON here, key by key.  Every claim without a
refuted_by holds at every size the census reaches; the ones with it fail
because weak-N-free does not imply compatible.  A weak N does imply
incompatible, so compatible implies weak-N-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .bitset import subset_labels
from .bridges import incomparability_orthoset
from .catalog import weak_nfree_incompatible
from .logic import (DEFAULT_MAX_LATTICE, build_logic, is_boolean,
                    is_orthomodular)
from .npatterns import (chain_antichain_property, find_covering_n, find_n,
                        find_weak_n)
from .orthoset import is_compatible
from .poset import Poset

# unread here (verify_theorems reads logic._dacey); bound for the benchmark
from .orthoset import is_dacey  # noqa: F401

# the seven predicates, in the order CensusSummary counts them
_PREDICATES = ("n_free", "weak_n_free", "dacey", "compatible", "oml",
               "boolean", "chain_antichain")

# the claims verify_theorems checks, in the order it names their violations:
# (lhs, relation, rhs, refuted_by).  "vs" is an equivalence, broken when the
# verdicts differ; "without" is lhs implies rhs, broken when lhs holds and
# rhs fails.  A broken claim is named f"{lhs} {relation} {rhs}", and
# refuted_by builds a poset that breaks a claim that is false.
CLAIMS = (
    ("n_free", "vs", "dacey", None),
    ("n_free", "vs", "oml", None),
    ("n_free", "vs", "chain_antichain", None),
    ("n_free", "vs", "covering_n_free", None),
    ("weak_n_free", "vs", "compatible", weak_nfree_incompatible),
    ("weak_n_free", "vs", "boolean", weak_nfree_incompatible),
    ("compatible", "vs", "boolean", None),
    ("weak_n_free", "without", "n_free", None),
    ("boolean", "without", "oml", None),
)

# label-level shape of each raw witness: a list of element labels under one
# key, or one label list per subset mask under the given keys
_ELEMENT_WITNESSES = {"n": "quad", "covering_n": "quad", "weak_n": "quad",
                      "compatible": "pair"}
_SUBSET_WITNESSES = {"dacey": ("closed_set", "basis"), "oml": ("x", "y"),
                     "boolean": ("x", "y", "z")}


@dataclass(frozen=True)
class TheoremReport:
    """What verify_theorems decides for one poset: the seven verdicts, the
    size of the logic, the names of the CLAIMS broken, and the witnesses.

    witnesses maps each failing predicate to the raw witness its standalone
    procedure names: element indices for the N quads and the incompatible
    pair, masks for the Dacey pair and the oml and boolean logic elements.
    The census tallies these reports and build_report puts them in labels.
    """

    n_free: bool
    weak_n_free: bool
    dacey: bool
    compatible: bool
    oml: bool
    boolean: bool
    chain_antichain: bool
    lattice_size: int
    violations: tuple[str, ...]
    witnesses: dict[str, tuple[int, ...]]


def verify_theorems(p: Poset,
                    max_lattice: int = DEFAULT_MAX_LATTICE) -> TheoremReport:
    """The one decision pass: verdicts, broken CLAIMS and witnesses of a
    poset.  One Dacey scan decides Dacey and orthomodularity, and one
    compatibility scan decides compatibility and Booleanness."""
    found = {w.kind: w.quad for w in (find_n(p), find_covering_n(p),
                                      find_weak_n(p)) if w is not None}
    o = incomparability_orthoset(p)
    # the lattice cap stops the family build, before any scan walks it
    logic = build_logic(o, max_lattice)
    family = logic.elements
    found["dacey"] = logic._dacey[1]
    found["compatible"] = is_compatible(o)[1]
    # the logic names its elements by index; witnesses carry their masks
    for name, (_, idx) in (("oml", is_orthomodular(logic)),
                           ("boolean", is_boolean(logic))):
        if idx is not None:
            found[name] = tuple(family[i] for i in idx)
    witnesses = {k: w for k, w in found.items() if w is not None}

    verdicts = {"n_free": "n" not in witnesses,
                "covering_n_free": "covering_n" not in witnesses,
                "weak_n_free": "weak_n" not in witnesses,
                "chain_antichain": chain_antichain_property(p)}
    for kind in ("dacey", "compatible", "oml", "boolean"):
        verdicts[kind] = kind not in witnesses
    violations = tuple([
        f"{lhs} {relation} {rhs}" for lhs, relation, rhs, _ in CLAIMS
        if (verdicts[lhs] != verdicts[rhs] if relation == "vs"
            else verdicts[lhs] and not verdicts[rhs])])
    return TheoremReport(*[verdicts[name] for name in _PREDICATES],
                         len(family), violations, witnesses)


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


def _strings(items, pad: str) -> str:
    # a list of strings as json.dumps(indent=2) writes it, one a line
    return (f"[\n{pad}" + f",\n{pad}".join(map(_quote, items))
            + f"\n{pad[2:]}]" if items else "[]")


def emit_json_report(report: Report, include_timing: bool = False) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    Its bytes are json.dumps(payload, sort_keys=True, indent=2) + "\n" of
    the fields' dict, as test_emit_matches_the_json_dumps_oracle checks;
    it writes the schema's keys in sorted order and each string by json's
    C encoder, which json.dumps skips under indent.  Equal analyses emit
    equal bytes; timing is opt-in since it never reproduces.
    """
    predicates = ",\n    ".join([
        f"{_quote(k)}: {'true' if v else 'false'}"
        for k, v in sorted(report.predicates.items())])
    witnesses = ",\n    ".join([
        f"{_quote(kind)}: {{\n      " + ",\n      ".join([
            f"{_quote(k)}: {_strings(v, ' ' * 8)}"
            for k, v in sorted(w.items())]) + "\n    }"
        for kind, w in sorted(report.witnesses.items())])
    timing = (f'\n  "elapsed_ms": {round(report.elapsed_ms, 3)!r},'
              if include_timing else "")
    return (f'{{{timing}\n  "labels": {_strings(report.labels, "    ")},\n'
            f'  "lattice_size": {report.lattice_size},\n  "n": {report.n},\n'
            f'  "predicates": {{\n    {predicates}\n  }},\n'
            f'  "source": {_quote(report.source)},\n'
            f'  "violations": {_strings(report.violations, "    ")},\n'
            '  "witnesses": '
            + (f"{{\n    {witnesses}\n  }}" if witnesses else "{}") + "\n}\n")
