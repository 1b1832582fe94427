"""Analysis reports: content, canonical JSON, schema conformance."""

import dataclasses
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from orthoposet.bitset import subset_labels
from orthoposet.bridges import incomparability_orthoset
from orthoposet.catalog import (antichain, chain, diamond22, n_poset,
                                nfree_strict_non_dacey,
                                weak_nfree_incompatible)
from orthoposet.poset import poset_from_covers
from orthoposet.census import (_poset_classes, enumerate_labeled_posets,
                               random_poset)
from orthoposet.logic import build_logic, is_boolean, is_orthomodular
from orthoposet.npatterns import find_covering_n, find_n, find_weak_n
from orthoposet.orthoset import is_compatible, is_dacey
from orthoposet.report import (CLAIMS, build_report, emit_json_report,
                               verify_theorems)

from oracles import json_report_oracle

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json")
    .read_text(encoding="utf-8"))


CATALOG = {"n": n_poset(), "diamond22": diamond22(),
           "weak_nfree_incompatible": weak_nfree_incompatible(),
           "nfree_strict_non_dacey": nfree_strict_non_dacey(),
           "antichain6": antichain(6)}


def validate(doc: str) -> dict:
    payload = json.loads(doc)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_n_poset_report_content():
    doc = emit_json_report(build_report(n_poset(), source="n.poset"))
    payload = validate(doc)
    assert payload == {
        "source": "n.poset",
        "n": 4,
        "labels": ["a", "b", "c", "d"],
        "lattice_size": 6,
        "predicates": {
            "n_free": False,
            "weak_n_free": False,
            "dacey": False,
            "compatible": False,
            "oml": False,
            "boolean": False,
            "chain_antichain": False,
        },
        "witnesses": {
            "n": {"quad": ["a", "b", "c", "d"]},
            "covering_n": {"quad": ["a", "b", "c", "d"]},
            "weak_n": {"quad": ["a", "b", "c", "d"]},
            "dacey": {"closed_set": ["a", "c"], "basis": ["a"]},
            "compatible": {"pair": ["b", "c"]},
            "oml": {"x": ["a"], "y": ["a", "c"]},
            "boolean": {"x": ["a", "c"], "y": ["a"], "z": ["d"]},
        },
        "violations": [],
    }


def test_diamond_report_content():
    payload = validate(emit_json_report(build_report(diamond22())))
    assert payload["predicates"] == {
        "n_free": True,
        "weak_n_free": False,
        "dacey": True,
        "compatible": False,
        "oml": True,
        "boolean": False,
        "chain_antichain": True,
    }
    assert payload["witnesses"]["weak_n"] == {"quad": ["a", "b", "c", "d"]}
    assert payload["witnesses"]["compatible"] == {"pair": ["a", "c"]}
    assert payload["witnesses"]["boolean"] == {"x": ["a"], "y": ["b"],
                                               "z": ["c"]}
    assert "n" not in payload["witnesses"]
    assert "dacey" not in payload["witnesses"]
    assert payload["violations"] == []


def test_counterexample_report_flags_violations():
    payload = validate(emit_json_report(build_report(weak_nfree_incompatible())))
    assert payload["predicates"]["weak_n_free"]
    assert not payload["predicates"]["compatible"]
    assert payload["violations"] == ["weak_n_free vs compatible",
                                     "weak_n_free vs boolean"]
    assert payload["witnesses"]["compatible"] == {"pair": ["a1", "c1"]}


def test_clean_poset_report_has_no_witnesses():
    payload = validate(emit_json_report(build_report(chain(4))))
    assert all(payload["predicates"].values())
    assert payload["witnesses"] == {}
    assert payload["lattice_size"] == 2


def test_report_bytes_are_stable():
    a = emit_json_report(build_report(antichain(3), source="x"))
    b = emit_json_report(build_report(antichain(3), source="x"))
    assert a == b
    assert a.endswith("\n")


def test_timing_is_opt_in():
    rep = build_report(chain(3))
    assert "elapsed_ms" not in emit_json_report(rep)
    timed = validate(emit_json_report(rep, include_timing=True))
    assert timed["elapsed_ms"] >= 0
    assert rep.elapsed_ms >= 0


def test_emit_matches_the_json_dumps_oracle():
    posets = [p for _, level in _poset_classes(6) for p, _ in level]
    posets += [n_poset(), diamond22(), weak_nfree_incompatible(),
               nfree_strict_non_dacey(), chain(16), antichain(0),
               antichain(1), antichain(8)]
    posets += [random_poset(6 + seed % 11, seed, (0.2, 0.35, 0.5)[seed % 3])
               for seed in range(50)]
    reports = [build_report(p) for p in posets]
    # labels and a source that json must escape: quotes, backslashes,
    # control and non-ASCII characters, and JSON's own punctuation; the
    # N on the first four puts them in witnesses too
    odd = poset_from_covers(6, [(0, 2), (1, 2), (1, 3), (3, 4), (2, 5)],
                            labels=('a"b', "back\\slash", "\u03b1", "\x01",
                                    "[x,]", "{:}"))
    report = build_report(odd, source='dir "q"\\\u00e9t\u00e9.poset')
    assert set(report.witnesses) >= {"n", "dacey", "compatible"}
    reports.append(report)
    # elapsed_ms round-trips through round(x, 3) and float repr
    reports += [dataclasses.replace(report, elapsed_ms=ms)
                for ms in (0.0, 1e-05, 12345.6789, 1e16)]
    for rep in reports:
        for timing in (False, True):
            assert emit_json_report(rep, timing) == \
                json_report_oracle(rep, timing), (rep.labels, timing)


def test_reports_validate_on_random_posets():
    for seed in range(15):
        validate(emit_json_report(build_report(random_poset(9, seed))))


def claim_name(row) -> str:
    lhs, relation, rhs, _ = row
    return f"{lhs} {relation} {rhs}"


REFUTED = [row for row in CLAIMS if row[3] is not None]


def test_claims_compose_the_violation_names_in_order():
    names = [claim_name(row) for row in CLAIMS]
    assert names == [
        "n_free vs dacey", "n_free vs oml", "n_free vs chain_antichain",
        "n_free vs covering_n_free", "weak_n_free vs compatible",
        "weak_n_free vs boolean", "compatible vs boolean",
        "weak_n_free without n_free", "boolean without oml"]
    assert len(set(names)) == len(names)
    assert all(relation in ("vs", "without") for _, relation, _, _ in CLAIMS)


def test_each_refuted_claim_is_broken_by_its_catalog_poset():
    assert [claim_name(row) for row in REFUTED] == [
        "weak_n_free vs compatible", "weak_n_free vs boolean"]
    for row in REFUTED:
        assert claim_name(row) in verify_theorems(row[3]()).violations


def test_only_the_refuted_claims_break_to_six_elements():
    # per claim, the number of classes on n elements that break it
    broken = {claim_name(row): Counter() for row in REFUTED}
    classes = 0
    for n, level in _poset_classes(6):
        for p, _ in level:
            classes += 1
            for name in verify_theorems(p).violations:
                assert name in broken, (p.up, name)
                broken[name][n] += 1
    assert classes == 405
    assert all(count == {5: 1, 6: 8} for count in broken.values())


def standalone_witnesses(p) -> dict[str, dict]:
    """Label-level witnesses named by the standalone public procedures."""
    labels = p.labels
    o = incomparability_orthoset(p)
    out = {}
    for kind, finder in (("n", find_n), ("covering_n", find_covering_n),
                         ("weak_n", find_weak_n)):
        w = finder(p)
        if w:
            out[kind] = {"quad": [labels[i] for i in w]}
    _, dw = is_dacey(o)
    if dw:
        out["dacey"] = {"closed_set": subset_labels(dw[0], labels),
                        "basis": subset_labels(dw[1], labels)}
    _, pw = is_compatible(o)
    if pw:
        out["compatible"] = {"pair": [labels[i] for i in pw]}
    logic = build_logic(o)
    for kind, (_, masks) in (("oml", is_orthomodular(logic)),
                             ("boolean", is_boolean(logic))):
        if masks:
            out[kind] = {k: subset_labels(mask, labels)
                         for k, mask in zip("xyz", masks)}
    return out


def test_witnesses_match_the_standalone_procedures():
    posets = [p for n in range(6) for p in enumerate_labeled_posets(n)]
    posets += [n_poset(), diamond22(), weak_nfree_incompatible(),
               nfree_strict_non_dacey(), chain(5), antichain(6)]
    posets += [random_poset(n, seed) for n in range(9, 13)
               for seed in range(6)]
    failing = {"n_free": "n", "weak_n_free": "weak_n", "dacey": "dacey",
               "compatible": "compatible", "oml": "oml", "boolean": "boolean"}
    kinds = set()
    for p in posets:
        rep = build_report(p)
        expect = standalone_witnesses(p)
        assert rep.witnesses == expect, p.up
        for name, kind in failing.items():
            assert rep.predicates[name] == (kind not in expect), (p.up, name)
        kinds |= expect.keys()
    # every kind of witness is exercised
    assert kinds == set(failing.values()) | {"covering_n"}


def test_analyze_of_a_large_boolean_logic_is_bounded():
    # antichain(10) has the 1024-element Boolean logic; deciding it with the
    # m**3 distributivity scan took about 40 s
    t0 = time.perf_counter()
    report = build_report(antichain(10))
    elapsed = time.perf_counter() - t0
    assert report.predicates["boolean"] and report.lattice_size == 1024
    assert elapsed < 10, f"build_report(antichain(10)) took {elapsed:.1f} s"


def _count_calls(monkeypatch, names) -> dict[str, int]:
    """Count every call of the named orthoset functions, through every
    orthoposet module that binds them, under whatever name."""
    counts = dict.fromkeys(names, 0)
    modules = [m for k, m in list(sys.modules.items())
               if k == "orthoposet" or k.startswith("orthoposet.")]
    for name in names:
        fn = getattr(sys.modules["orthoposet.orthoset"], name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_each_fact_is_computed_once(name, monkeypatch):
    # one orthoclosed family and one perp table per analysis: the Dacey
    # test and the logic must share them, not each build their own
    counts = _count_calls(monkeypatch, ("enumerate_orthoclosed", "perp_table"))
    # looked up now, so the count sees the modules the calls go through
    census = importlib.import_module("orthoposet.census")
    report = importlib.import_module("orthoposet.report")
    for run in (census.verify_theorems, report.build_report):
        counts.update(dict.fromkeys(counts, 0))
        run(CATALOG[name])
        assert counts == {"enumerate_orthoclosed": 1, "perp_table": 1}, \
            run.__name__
