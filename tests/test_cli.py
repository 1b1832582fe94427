"""Command line verbs, exit codes and stream handling."""

import io
import json
from pathlib import Path

import jsonschema
import pytest

from orthoposet.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json")
    .read_text(encoding="utf-8"))

N_FILE = "element a\nelement b\nelement c\nelement d\n" \
         "cover a c\ncover b c\ncover b d\n"


@pytest.fixture
def n_file(tmp_path):
    path = tmp_path / "n.poset"
    path.write_text(N_FILE, encoding="utf-8")
    return str(path)


def test_analyze_file(n_file, capsys):
    assert main(["analyze", n_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["source"] == n_file
    assert payload["predicates"]["n_free"] is False
    assert "elapsed_ms" not in payload


def test_analyze_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(N_FILE))
    assert main(["analyze", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source"] == "-"
    assert payload["n"] == 4


def test_analyze_timing_flag(n_file, capsys):
    assert main(["analyze", n_file, "--timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["elapsed_ms"] >= 0


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/no/such/file.poset"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_reports_parse_errors(tmp_path, capsys):
    path = tmp_path / "bad.poset"
    path.write_text("element a\nfrobnicate\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_analyze_size_cap(tmp_path, capsys):
    lines = [f"element e{i}" for i in range(25)]
    lines += [f"cover e{i} e{i + 1}" for i in range(24)]
    path = tmp_path / "big.poset"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", str(path), "--max-elements", "25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 25 and payload["lattice_size"] == 2


def test_analyze_family_cap(tmp_path, capsys):
    # a wide antichain's incomparability orthoset closes every subset;
    # the lattice cap stops the family build at 4096 sets and refuses it
    path = tmp_path / "wide.poset"
    path.write_text("".join(f"element e{i}\n" for i in range(25)),
                    encoding="utf-8")
    assert main(["analyze", str(path), "--max-elements", "25"]) == 1
    assert capsys.readouterr().err == \
        "error: orthoclosed family exceeds cap 4096\n"


def test_analyze_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "binary.poset"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "utf-8" in err
    assert "Traceback" not in err


def test_interrupt_exits_cleanly(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("orthoposet.cli._cmd_census", interrupted)
    assert main(["census", "--max-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"
    assert captured.out == ""


def test_hasse(n_file, capsys):
    assert main(["hasse", n_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph hasse {")
    assert '"b" -> "d";' in out


def test_logic_dot(n_file, capsys):
    assert main(["logic", n_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph logic {")
    assert '"{a,c}" -> "{a,b,c,d}";' in out


def test_logic_json(n_file, capsys):
    assert main(["logic", n_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 6
    assert payload["elements"][0] == []
    assert payload["elements"][-1] == ["a", "b", "c", "d"]
    assert payload["ocompl"] == [5, 4, 3, 2, 1, 0]


def test_census_clean(capsys):
    assert main(["census", "--max-n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["total_posets"] for s in payload] == [1, 3, 19]
    assert all(s["violations"] == [] for s in payload)


def test_census_reports_violations(capsys):
    # at five elements the weak-N claim genuinely fails, so exit is nonzero
    assert main(["census", "--max-n", "5"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert len(payload[-1]["violations"]) == 60
    assert "violations" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["census", "--max-n", "7"], "census to n=7 exceeds cap 6"),
    (["search", "--predicate", "nfree_but_strict_not_dacey", "--max-n", "8"],
     "search to n=8 exceeds cap 7"),
    (["census", "--max-n", "3", "--workers", "0"],
     "worker count must be at least 1, got 0"),
    (["census", "--max-n", "-2"], "poset size must be non-negative, got -2"),
    (["search", "--predicate", "strict_dacey", "--max-n", "-2"],
     "poset size must be non-negative, got -2"),
])
def test_census_and_search_refuse_before_enumerating(argv, message,
                                                      monkeypatch, capsys):
    # no cap is lifted: the error comes before any poset or isomorphism
    # class is enumerated
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("orthoposet.census._enumerate_rows", no_enumeration)
    monkeypatch.setattr("orthoposet.census._poset_classes", no_enumeration)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_search_finds(capsys):
    assert main(["search", "--predicate", "strict_dacey", "--max-n", "2"]) == 2
    assert capsys.readouterr().out == "element 0\n"


def test_search_exhausts(capsys):
    assert main(["search", "--predicate", "nfree_but_strict_not_dacey",
                 "--max-n", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no poset" in captured.err


def test_generate_kinds(capsys):
    assert main(["generate", "--kind", "chain", "--n", "3"]) == 0
    assert capsys.readouterr().out == \
        "element 0\nelement 1\nelement 2\ncover 0 1\ncover 1 2\n"
    assert main(["generate", "--kind", "n"]) == 0
    assert "cover b d" in capsys.readouterr().out
    assert main(["generate", "--kind", "diamond22"]) == 0
    assert "cover a d" in capsys.readouterr().out


def test_generate_requires_n(capsys):
    assert main(["generate", "--kind", "chain"]) == 1
    assert "--n is required" in capsys.readouterr().err


def test_generate_rejects_negative_n(capsys):
    assert main(["generate", "--kind", "random", "--n", "-3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-negative" in err
    assert "Traceback" not in err
    assert main(["generate", "--kind", "chain", "--n", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-negative" in err
    assert "cycle" not in err


@pytest.mark.parametrize("edge_prob", ["2", "-1"])
def test_generate_rejects_edge_prob_outside_unit_interval(edge_prob, capsys):
    assert main(["generate", "--kind", "random", "--n", "4",
                 "--edge-prob", edge_prob]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "edge probability" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("kind", ["chain", "antichain", "random"])
def test_generate_max_elements_lifts_the_cap(kind, capsys):
    # without the flag, past the cap: exit 1 and the one-line error that
    # names the option; with it, the poset is written
    assert main(["generate", "--kind", kind, "--n", "25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: poset has 25 elements, cap is 24; "
        "raise max_elements to allow this\n")
    assert main(["generate", "--kind", kind, "--n", "25",
                 "--max-elements", "25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [x for x in lines if x.startswith("element ")] == \
        [f"element {i}" for i in range(25)]
    # a lower cap is honoured too
    assert main(["generate", "--kind", kind, "--n", "5",
                 "--max-elements", "4"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: poset has 5 elements, cap is 4")


def test_generate_random_is_seeded(capsys):
    assert main(["generate", "--kind", "random", "--n", "6",
                 "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--kind", "random", "--n", "6",
                 "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_generate_feeds_analyze(monkeypatch, capsys):
    assert main(["generate", "--kind", "diamond22"]) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["analyze", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predicates"]["n_free"] is True
    assert payload["predicates"]["boolean"] is False
