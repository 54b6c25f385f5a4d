"""Universes over C_n as class bitmasks, their kernels, and induced rotation labels."""

import math

import pytest

from trlat.acceptance import _induce_lambda
from trlat.groups import cyclic_group
from trlat.lattice import subgroup_lattice
from trlat.realize import (cpn_modulus, cpq_modulus, index_set, linisom_cyclic,
                           linisom_image_cyclic, steiner_cyclic, universe)
from trlat.transfer import generate


def test_canonicalization():
    assert index_set(9, universe(9, [3])) == [0, 3, 6]
    assert index_set(6, universe(6, [-1])) == [0, 1, 5]
    assert universe(6, [7, 0, 12]) == universe(6, [5]) == universe(6, {1, 5})
    assert universe(4, [2]) == 0b10 and universe(5, []) == universe(5, [0]) == 0


def test_index_set_enumeration_count():
    """The 2^(n//2) universes over C_n are 2^(n//2) distinct index sets, each
    holding 0 and closed under negation, and universe() undoes index_set()."""
    for n in range(1, 25):
        sets = [index_set(n, u) for u in range(1 << n // 2)]
        assert len({tuple(I) for I in sets}) == 1 << n // 2
        for u, I in enumerate(sets):
            assert I == sorted(set(I)) and 0 in I
            assert {-i % n for i in I} == set(I)
            assert universe(n, I) == u


def test_a_universe_is_only_a_class_bitmask_in_range():
    for n, u in ((6, 8), (6, -1), (1, 1), (9, 16)):
        with pytest.raises(ValueError, match=f"universe {u} is outside 0 <= u < "):
            index_set(n, u)
    for fn in (index_set, steiner_cyclic, linisom_cyclic):
        with pytest.raises(TypeError, match="is an int class bitmask, got set"):
            fn(5, {0, 1, 4})
    with pytest.raises(ValueError, match="modulus n must be >= 1, got 0"):
        universe(0, [1])


ARGUMENT_REFUSALS = [
    (index_set, (4, True), TypeError, "a universe over C4 is an int class bitmask, got bool"),
    (index_set, (True, 0), TypeError, "modulus n must be an integer, got True"),
    (index_set, (0, 0), ValueError, "modulus n must be >= 1, got 0"),
    (index_set, (6.0, 1), TypeError, "modulus n must be an integer, got 6.0"),
    (universe, (4.5, [1]), TypeError, "modulus n must be an integer, got 4.5"),
    (universe, (-2, [1]), ValueError, "modulus n must be >= 1, got -2"),
    (linisom_image_cyclic, (-3,), ValueError, "modulus n must be >= 1, got -3"),
    (linisom_image_cyclic, (0,), ValueError, "modulus n must be >= 1, got 0"),
    (linisom_image_cyclic, (False,), TypeError, "modulus n must be an integer, got False"),
    (linisom_cyclic, (True, 0), TypeError, "modulus n must be an integer, got True"),
    (steiner_cyclic, (4.0, 0), TypeError, "modulus n must be an integer, got 4.0"),
    (cpn_modulus, (2, True), TypeError, "exponent n must be an integer, got True"),
    (cpn_modulus, (2, 3.0), TypeError, "exponent n must be an integer, got 3.0"),
    (cpn_modulus, (2.0, 3), TypeError, "p must be an integer, got 2.0"),
    (cpn_modulus, (1, 3), ValueError, "p must be >= 2, got 1"),
    (cpq_modulus, (True, 3), TypeError, "p must be an integer, got True"),
    (cpq_modulus, (2, 3.0), TypeError, "q must be an integer, got 3.0"),
    (cpq_modulus, (2, 1), ValueError, "q must be >= 2, got 1"),
]


@pytest.mark.parametrize("call,args,error,message", ARGUMENT_REFUSALS,
                         ids=[f"{call.__name__}{args}" for call, args, *_ in ARGUMENT_REFUSALS])
def test_cyclic_universe_arguments_are_ints(call, args, error, message):
    """n, u, p and q are ints, never coerced: a bool or a float is refused
    with one line that names the argument, and a modulus n is at least 1."""
    with pytest.raises(error) as refused:
        call(*args)
    assert str(refused.value) == message


def test_induce_from_trivial_group():
    assert _induce_lambda(1, 2, 0) == [0, 1]
    assert _induce_lambda(1, 5, 3) == [0, 1, 2, 3, 4]


def test_induced_labels_are_one_residue_class_up_to_12():
    """Ind from C_d to C_n of label m is the labels congruent to m mod d,
    once each: the labels whose restriction to C_d is m."""
    for n in range(1, 13):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for m in range(n):
                assert _induce_lambda(d, n, m) == [x for x in range(n) if x % d == m % d]


def test_kernel_order_is_gcd():
    """The embedding value of the universe holding label c is generated by
    (the subgroup of order gcd(n, c), C_n)."""
    for n in (4, 6, 9, 12):
        L = subgroup_lattice(cyclic_group(n))
        for c in range(1, n // 2 + 1):
            kernel = next(s for s in range(L.n) if L.order_of(s) == math.gcd(n, c))
            assert steiner_cyclic(n, universe(n, [c])) == generate(L, [(kernel, L.full)])


def test_kernel_matches_elementwise_kernel():
    """Kernels computed element by element: g^j is in the kernel of label c
    iff c*j = 0 mod n."""
    for n in (4, 6, 8, 9, 12):
        L = subgroup_lattice(cyclic_group(n))
        for c in range(1, n // 2 + 1):
            kernel = L.subgroups.index(frozenset(j for j in range(n) if c * j % n == 0))
            assert steiner_cyclic(n, universe(n, [c])) == generate(L, [(kernel, L.full)])
