"""Mask utilities and clique enumeration against subset-filter oracles."""

import random

from orthoposet.bitset import (bits, format_subset, is_clique, mask_of,
                               maximal_cliques, subset_labels)

from oracles import brute_maximal_cliques


def test_bits_ascending():
    assert list(bits(0)) == []
    assert list(bits(0b1)) == [0]
    assert list(bits(0b101101)) == [0, 2, 3, 5]


def test_mask_roundtrip():
    for mask in (0, 1, 0b1010, 0b11111, 1 << 40):
        assert mask_of(bits(mask)) == mask


def test_subset_labels_and_format():
    labels = ("a", "b", "c", "d")
    assert subset_labels(0b1010, labels) == ["b", "d"]
    assert format_subset(0b1010, labels) == "{b,d}"
    assert format_subset(0, labels) == "{}"


def test_maximal_cliques_path():
    # path 0-1-2-3
    adj = (0b0010, 0b0101, 0b1010, 0b0100)
    assert maximal_cliques(adj, 0b1111) == [0b0011, 0b0110, 0b1100]
    # induced on {0, 2}: no edges, two singleton cliques
    assert maximal_cliques(adj, 0b0101) == [0b0001, 0b0100]
    assert maximal_cliques(adj, 0) == [0]


def test_maximal_cliques_against_filter():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 9)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        sub = rng.getrandbits(n)
        cliques = brute_maximal_cliques(tuple(adj), n, sub)
        assert maximal_cliques(adj, sub) == cliques
        # sub is a clique exactly when it is its own only maximal clique
        assert is_clique(adj, sub) == (cliques == [sub])
