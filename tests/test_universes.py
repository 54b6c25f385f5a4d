"""Index sets, induced rotation labels and kernels."""

import math

import pytest

from trlat.groups import cyclic_group
from trlat.lattice import subgroup_lattice
from trlat.universes import (CyclicUniverseIndexSet, _negation_classes, index_set_count,
                             induce_lambda, lambda_kernel_order)


def test_canonicalization():
    I = CyclicUniverseIndexSet.canonical(9, [3])
    assert I.sorted() == [0, 3, 6]
    assert CyclicUniverseIndexSet.canonical(6, [-1]).sorted() == [0, 1, 5]


def test_index_set_enumeration_count():
    for n in (1, 2, 5, 6, 9, 12):
        # the isometries-image scan picks a subset of the negation classes
        assert index_set_count(n) == 2 ** (n // 2) == 2 ** len(_negation_classes(n))


def test_induce_from_trivial_group():
    assert induce_lambda(1, 2, 0) == [0, 1]
    assert induce_lambda(1, 5, 3) == [0, 1, 2, 3, 4]


def test_induced_labels_are_one_residue_class_up_to_12():
    """Ind from C_d to C_n of label m is the labels congruent to m mod d,
    once each: the labels whose restriction to C_d is m."""
    for n in range(1, 13):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for m in range(n):
                assert induce_lambda(d, n, m) == [x for x in range(n) if x % d == m % d]
    with pytest.raises(ValueError, match="does not divide"):
        induce_lambda(4, 6, 1)


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
