"""Admissible-set and orbit-map views of a transfer system."""

import pytest

from trlat.bridge import HSetSpec, OrbitMapSpec, admits, morphism_in_category
from trlat.groups import cyclic_group, make_group
from trlat.lattice import subgroup_lattice
from trlat.transfer import TransferSystem, TransferSystemError, enumerate_all, generate


def L_(name):
    return subgroup_lattice(make_group(name))


def test_empty_hset_is_admissible():
    L = L_("C4")
    T = TransferSystem.diagonal(L)
    assert admits(T, HSetSpec(ambient=L.full, stabilizers=()))


def test_trivial_orbits_always_admissible():
    L = L_("Q8")
    T = TransferSystem.diagonal(L)
    for h in range(L.n):
        assert admits(T, HSetSpec(ambient=h, stabilizers=(h, h)))


def test_c9_orbit_admissibility():
    L = subgroup_lattice(cyclic_group(9))
    c3 = next(s for s in range(L.n) if L.order_of(s) == 3)
    T = generate(L, [(c3, L.full)])
    assert admits(T, HSetSpec(ambient=L.full, stabilizers=(c3,)))
    assert not admits(T, HSetSpec(ambient=L.full, stabilizers=(0,)))


def test_stabilizer_containment_checked():
    L = L_("C6")
    with pytest.raises(ValueError, match="not contained"):
        admits(TransferSystem.diagonal(L), HSetSpec(ambient=1, stabilizers=(2,)))


def test_admits_monotone_and_union_closed():
    L = L_("K4")
    systems = enumerate_all(L)
    specs = [HSetSpec(ambient=h, stabilizers=(k,))
             for k, h in L.proper_pairs]
    for T1 in systems[:6]:
        for T2 in systems:
            if T1.refines(T2):
                for spec in specs:
                    if admits(T1, spec):
                        assert admits(T2, spec)
    T = systems[len(systems) // 2]
    good = [s for s in specs if admits(T, s)]
    if len(good) >= 2:
        merged = HSetSpec(ambient=L.full,
                          stabilizers=tuple(k for s in good for k in s.stabilizers
                                            if L.includes[k][L.full]))
        assert admits(T, merged) == all(
            T.contains(k, L.full) for k in merged.stabilizers)


def test_identity_orbit_map_is_member():
    L = L_("Sym3")
    T = TransferSystem.diagonal(L)
    for s in range(L.n):
        f = OrbitMapSpec(components=((s, L.group.identity, s),))
        assert morphism_in_category(T, f)


def test_projection_membership_is_the_relation():
    L = L_("C8")
    T = generate(L, [(0, 2)])
    e = L.group.identity
    for k, h in L.proper_pairs:
        f = OrbitMapSpec(components=((k, e, h),))
        assert morphism_in_category(T, f) == T.contains(k, h)


def test_conjugated_projection_sym3():
    L = L_("Sym3")
    t12 = L.resolve_name("<(12)>")
    t13 = L.resolve_name("<(13)>")
    T = generate(L, [(t12, L.full)])
    e = L.group.identity
    proj = OrbitMapSpec(components=((t13, e, L.full),))
    assert morphism_in_category(T, proj)
    assert T.contains(t13, L.full)


def test_ill_defined_component_rejected():
    L = L_("Sym3")
    t12 = L.resolve_name("<(12)>")
    a3 = L.resolve_name("<(123)>")
    with pytest.raises(ValueError, match="ill-defined"):
        morphism_in_category(TransferSystem.maximum(L),
                             OrbitMapSpec(components=((a3, L.group.identity, t12),)))


def test_round_trip_over_tr_k4():
    L = L_("K4")
    for T in enumerate_all(L):
        assert TransferSystem.from_pairs(L, T.pairs()) == T


def test_diagonal_round_trip():
    L = L_("Q8")
    d = TransferSystem.diagonal(L)
    assert d.pairs() == []
    assert TransferSystem.from_pairs(L, []) == d


def test_maximum_c6_pair_count():
    # divisor chain pairs of 6: (1,2), (1,3), (1,6), (2,6), (3,6)
    L = subgroup_lattice(cyclic_group(6))
    top = TransferSystem.maximum(L)
    pairs = set(top.pairs())
    assert len(pairs) == 5
    assert TransferSystem.from_pairs(L, sorted(pairs)) == top


def test_system_from_orbits_reports_violations():
    L = L_("C4")
    with pytest.raises(TransferSystemError, match="restriction"):
        TransferSystem.from_pairs(L, [(0, 2)])


def test_admitted_orbits_reconstruct_uniquely():
    L = L_("Sym3")
    for T in enumerate_all(L):
        admitted = {(k, h) for k, h in L.proper_pairs
                    if admits(T, HSetSpec(ambient=h, stabilizers=(k,)))}
        assert TransferSystem.from_pairs(L, sorted(admitted)) == T
