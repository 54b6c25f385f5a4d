"""Index sets and rotation-representation identities."""

import math

import pytest

from trlat.groups import cyclic_group
from trlat.lattice import subgroup_lattice
from trlat.universes import (CHARACTER_TOL, CyclicUniverseIndexSet, _negation_classes,
                             index_set_count, induce_lambda, induced_character,
                             lambda_character, lambda_kernel_order)


def test_canonicalization():
    I = CyclicUniverseIndexSet.canonical(9, [3])
    assert I.sorted() == [0, 3, 6]
    assert CyclicUniverseIndexSet.canonical(6, [-1]).sorted() == [0, 1, 5]


def test_strict_mode_rejects_non_canonical():
    assert CyclicUniverseIndexSet.strict(4, [0, 1, 3]).sorted() == [0, 1, 3]
    with pytest.raises(ValueError, match="not canonical"):
        CyclicUniverseIndexSet.strict(4, [0, 1])  # missing -1 = 3
    with pytest.raises(ValueError, match="not canonical"):
        CyclicUniverseIndexSet.strict(4, [1, 3])  # missing 0


def test_index_set_enumeration_count():
    for n in (1, 2, 5, 6, 9, 12):
        # the isometries-image scan picks a subset of the negation classes
        assert index_set_count(n) == 2 ** (n // 2) == 2 ** len(_negation_classes(n))


def test_trivial_character_is_two():
    for n in (3, 7, 12):
        for j in range(n):
            assert lambda_character(n, 0, j) == pytest.approx(2.0)


def test_induce_from_trivial_group():
    assert induce_lambda(1, 2, 0) == [0, 1]
    chars = [sum(lambda_character(2, m, j) for m in (0, 1)) for j in (0, 1)]
    assert chars[0] == pytest.approx(4.0)
    assert chars[1] == pytest.approx(0.0)


def test_induced_character_identity_up_to_12():
    worst = 0.0
    for n in range(1, 13):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for m in range(n):
                labels = induce_lambda(d, n, m)
                assert len(labels) == n // d
                for j in range(n):
                    got = sum(lambda_character(n, lab, j) for lab in labels)
                    want = induced_character(d, n, m, j)
                    worst = max(worst, abs(got - want))
    assert worst <= CHARACTER_TOL


def test_kernel_order_is_gcd():
    for n in (4, 6, 9, 12):
        for i in range(n):
            assert lambda_kernel_order(n, i) == math.gcd(n, i) if i else n


def test_kernel_matches_elementwise_kernel():
    """gcd rule vs direct kernel: g^j is in ker iff i*j = 0 mod n."""
    for n in (4, 6, 8, 9, 12):
        L = subgroup_lattice(cyclic_group(n))
        for i in range(n):
            members = frozenset(j for j in range(n) if (i * j) % n == 0)
            assert members in L.index_of
            assert len(members) == lambda_kernel_order(n, i)
