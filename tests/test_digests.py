"""Full SHA-256 digests of outputs that changes to the kernel must not move.

The census to n = 6 is pinned through the CLI with one and with two
workers, the labeled enumeration to n = 6 by the up rows of each poset in
order, and the canonical form by (n, rows, |Aut|) of every class to n = 7
in the order the class walk yields them.  The two random posets have
non-Boolean logics of 3072 and 2880 elements, so they also bound the time
of the Boolean witness search; antichain(11) has the 2048-element Boolean
algebra as its logic.
"""

import hashlib

from orthoposet.catalog import antichain
from orthoposet.census import (_poset_classes, enumerate_labeled_posets,
                               random_poset)
from orthoposet.cli import main
from orthoposet.report import build_report, emit_json_report

CENSUS_6 = "c4d0894580d1c528fd40870425bcd51cba0123b02431a08dc4e105e71c8f84d8"
LABELED_6 = "93de38b910ee6001e524ae9a43c24b6e254b2fc6e4bf068207c050a9eecd0d2b"
CLASSES_7 = "2c986bb123d2cad95addecfd2c11d451992191d32af14a8164d7bb26e24cc47a"
ANALYZE = {
    "random_poset(16, 3, 0.05)": (
        lambda: random_poset(16, 3, 0.05),
        "a4666bcb13b6ea4da588d24a5d20de9160c48094a85d1a02920ff341e4e148a7"),
    "random_poset(16, 2, 0.1)": (
        lambda: random_poset(16, 2, 0.1),
        "30f7f68d49d0d6169b8facbe69b9c3ba5d25027475476cec0ae9cea6655b84b1"),
    "antichain(11)": (
        lambda: antichain(11),
        "1fbfad46482b5b7acb561e8ab1c0d5680a63b73745d3092aeba5fed73906d4a8"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_pinned_output_digests(capsys):
    for workers in ("1", "2"):
        # the census to n = 6 reports the weak-N-free refutation, so exit 1
        assert main(["census", "--max-n", "6", "--workers", workers]) == 1
        assert _sha256(capsys.readouterr().out) == CENSUS_6, workers
    for name, (make, digest) in ANALYZE.items():
        report = build_report(make())
        assert _sha256(emit_json_report(report)) == digest, name


def test_pinned_labeled_sequence():
    digest = hashlib.sha256()
    for p in enumerate_labeled_posets(6):
        digest.update(repr(p.up).encode())
    assert digest.hexdigest() == LABELED_6


def test_pinned_canonical_classes():
    # the canonical rows and |Aut| of the 2450 classes to n = 7; class ids
    # quoted elsewhere, such as (0, 0, 2, 2, 11), must keep their meaning
    digest = hashlib.sha256()
    for n, classes in _poset_classes(7):
        for p, aut in classes:
            digest.update(repr((n, p.up, aut)).encode())
    assert digest.hexdigest() == CLASSES_7
