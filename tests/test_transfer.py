"""Relation closure, validation, lattice operations, and enumeration of Tr(G)."""

import gc
import itertools
import math
import random
import re
import sys
import tracemalloc
from collections.abc import Sequence

import pytest

from trlat.groups import FiniteGroup, abelian_group, cyclic_group, make_group
from trlat.lattice import automorphisms, subgroup_lattice
from trlat.transfer import (SearchBoundExceeded, SystemList, TransferSystem,
                            TransferSystemError, _bits_of, aut_orbits,
                            closed_form_normal_source, closed_form_normal_target,
                            enumerate_all, generate, hasse_diagram,
                            irreducible_pairs, is_saturated, join, meet, validate)
from trlat.realize import linisom_image, linisom_image_cyclic, steiner_image

from tables import dihedral, relabeled


def L_(name):
    return subgroup_lattice(make_group(name))


def named(T):
    return {(T.lattice.names[k], T.lattice.names[h]) for k, h in T.pairs()}


# -- validate -------------------------------------------------------------------

def test_diagonal_and_maximum_validate():
    L = L_("C4")
    assert validate(L, []) == []
    assert validate(L, L.proper_pairs) == []


def test_restriction_violation_witness():
    L = L_("C4")
    # 1 -> C4 without 1 -> C2: restriction along C2 is missing
    bad = validate(L, [(0, 2)])
    assert any(v.axiom == "restriction" and v.pair == (0, 1) for v in bad)


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


def test_constructor_refuses_what_is_not_a_transfer_system():
    L = L_("C4")
    with pytest.raises(TransferSystemError, match=re.escape(
            "not a transfer system: restriction violation at (1, C2) forced by (1, C4)")):
        TransferSystem(L, _bits_of(L, [(0, 2), (1, 2)]))
    for bad in (-1, 1 << L.n * L.n, TransferSystem.diagonal(L).bits | 1 << L.n * L.n,
                float(TransferSystem.diagonal(L).bits), True, "273", None):
        with pytest.raises(TransferSystemError, match=re.escape("bits must be an int in [0, 2^9)")):
            TransferSystem(L, bad)
    assert TransferSystem(L, TransferSystem.maximum(L).bits) == TransferSystem.maximum(L)


def test_system_repr():
    assert repr(generate(L_("C4"), [(0, 2)])) == "TransferSystem(C4: (1->C2) (1->C4))"


# -- generate -------------------------------------------------------------------

def test_generate_empty_is_diagonal():
    L = L_("C8")
    assert generate(L, []) == TransferSystem.diagonal(L)


def test_generate_rejects_non_inclusion_pair():
    L = L_("C6")
    with pytest.raises(TransferSystemError, match=r"\(C2, C3\)"):
        generate(L, [(1, 2)])


def test_generate_c8_single_pair():
    L = L_("C8")
    T = generate(L, [(0, 2)])  # 1 -> C4
    assert named(T) == {("1", "C2"), ("1", "C4")}


def test_generate_sym3_transposition_to_top():
    L = L_("Sym3")
    t12 = L.resolve_name("<(12)>")
    T = generate(L, [(t12, L.full)])
    transpositions = ["<(12)>", "<(13)>", "<(23)>"]
    expected = {("1", t) for t in transpositions}
    expected |= {(t, "Sym3") for t in transpositions}
    expected |= {("1", "<(123)>"), ("1", "Sym3")}
    assert named(T) == expected
    # conjugation closure puts the other transpositions' transfers in too
    t13 = L.resolve_name("<(13)>")
    assert T.contains(t13, L.full)


def test_tables_of_a_large_lattice_stay_small():
    """C2xC2xC2xC2xC6 has 748 subgroups, so 559,504 (k, h) slots, and 16,559
    pair orbits.  Building its lattice, which holds the pair-orbit index as
    one array of n^2 4-byte slots, peaks under 12 MiB traced.  Generating
    and validating one orbit's system then adds the records of the orbits
    it touches, under 5 MB traced.  The table is fresh, with no lattice or
    tables cached."""
    G = FiniteGroup(make_group("C2xC2xC2xC2xC6")._table)
    tracemalloc.start()
    try:
        L = subgroup_lattice(G)
        built, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert generate(L, []).pair_count() == 0
        assert len(validate(L, [(0, L.full)])) == 746
        assert generate(L, [(1, L.full)]).pair_count() == 746
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < 12 * 2 ** 20
    assert peak - built < 5 * 2 ** 20


def test_generate_monotone_and_idempotent():
    rng = random.Random(7)
    for name in ("C8", "K4", "Sym3", "Q8"):
        L = L_(name)
        for _ in range(30):
            small = rng.sample(L.proper_pairs, rng.randint(0, len(L.proper_pairs) // 2))
            extra = rng.sample(L.proper_pairs, rng.randint(0, 2))
            T1 = generate(L, small)
            T2 = generate(L, small + extra)
            assert T1.refines(T2)
            assert generate(L, T1.pairs()) == T1


@pytest.mark.parametrize("name", ["C4", "C8", "C6", "K4", "Sym3", "Q8"])
def test_generate_equals_intersection_oracle(name):
    """<R> is the meet of every enumerated system containing R."""
    L = L_(name)
    systems = enumerate_all(L)
    rng = random.Random(11)
    for _ in range(40):
        R = rng.sample(L.proper_pairs, rng.randint(0, min(4, len(L.proper_pairs))))
        T = generate(L, R)
        bits = TransferSystem.maximum(L).bits
        for S in systems:
            if all(S.contains(k, h) for k, h in R):
                bits &= S.bits
        assert TransferSystem(L, bits) == T


def test_bound_property_normal_target():
    """Pairs aimed inside a normal subgroup stay inside it after closure."""
    L = L_("Q8")
    N = L.resolve_name("<i>")
    inside = [(k, h) for k, h in L.proper_pairs if L.subgroups[h] <= L.subgroups[N]]
    T = generate(L, inside)
    assert all(L.subgroups[h] <= L.subgroups[N] for k, h in T.pairs())


def test_bound_property_normal_source():
    """Pairs sourced above a normal subgroup never land inside it."""
    L = L_("Q8")
    N = L.resolve_name("<-1>")
    above = [(k, h) for k, h in L.proper_pairs if L.subgroups[N] <= L.subgroups[k]]
    T = generate(L, above)
    assert all(not L.subgroups[h] <= L.subgroups[N] for k, h in T.pairs())


def test_intersection_closure_of_sources():
    """K1 -> H and K2 -> H force (K1 n K2) -> H in any valid system."""
    for name in ("Q8", "K4", "Sym3"):
        L = L_(name)
        for T in enumerate_all(L):
            for k1, h in T.pairs():
                for k2, _ in [(k, hh) for k, hh in T.pairs() if hh == h]:
                    assert T.contains(L.intersect[k1][k2], h)


# -- saturation -----------------------------------------------------------------

def test_saturation_examples():
    L = L_("C4")
    assert is_saturated(TransferSystem.diagonal(L))
    assert not is_saturated(generate(L, [(0, 1), (0, 2)]))  # missing C2 -> C4
    assert is_saturated(generate(L, [(1, 2)]))


def test_saturated_regenerate_from_irreducibles():
    for name in ("C8", "K4", "Sym3", "Q8", "C27"):
        L = L_(name)
        for T in enumerate_all(L):
            if is_saturated(T):
                assert generate(L, irreducible_pairs(T)) == T


# -- meet / join ----------------------------------------------------------------

def test_meet_join_identity_laws():
    L = L_("C6")
    top = TransferSystem.maximum(L)
    bottom = TransferSystem.diagonal(L)
    for T in enumerate_all(L):
        assert meet(T, top) == T
        assert join(bottom, T) == T


def test_join_forces_transitivity():
    for p in (2, 3):
        L = subgroup_lattice(cyclic_group(p * p))
        t1 = generate(L, [(0, 1)])
        t2 = generate(L, [(1, 2)])
        assert join(t1, t2) == TransferSystem.maximum(L)


def test_meet_join_are_lattice_ops():
    for name in ("K4", "Sym3", "Q8"):
        systems = enumerate_all(L_(name))
        rng = random.Random(3)
        pool = set(systems)
        for _ in range(60):
            a, b = rng.sample(systems, 2)
            m, j = meet(a, b), join(a, b)
            assert m in pool and j in pool
            assert m.refines(a) and m.refines(b)
            assert a.refines(j) and b.refines(j)
            for c in rng.sample(systems, 6):
                if c.refines(a) and c.refines(b):
                    assert c.refines(m)
                if a.refines(c) and b.refines(c):
                    assert j.refines(c)


def test_lattice_mismatch_rejected():
    with pytest.raises(ValueError, match="different lattices"):
        meet(TransferSystem.diagonal(L_("C4")), TransferSystem.diagonal(L_("C6")))


def test_renamed_copies_of_one_table_share_systems():
    G = make_group("Sym3")
    table = [[G.compose(a, b) for b in range(G.order)] for a in range(G.order)]
    LX = subgroup_lattice(make_group({"kind": "table", "table": table, "name": "X"}))
    LY = subgroup_lattice(make_group({"kind": "table", "table": table, "name": "Y",
                                      "names": [f"y{i}" for i in range(G.order)]}))
    TX, TY = generate(LX, [(1, LX.full)]), generate(LY, [(1, LY.full)])
    assert TX == TY and hash(TX) == hash(TY)
    assert join(TX, TransferSystem.diagonal(LY)) == TX
    assert meet(TX, TransferSystem.maximum(LY)) == TY


# -- enumeration ----------------------------------------------------------------

@pytest.mark.parametrize("name,count", [
    ("C1", 1), ("C2", 2), ("C3", 2), ("C4", 5), ("C9", 5), ("C8", 14), ("C27", 14),
    ("C6", 10), ("C15", 10), ("K4", 19), ("Sym3", 9), ("Q8", 68), ("D10", 9),
    ("D6", 9), ("C32", 132), ("C81", 42),
])
def test_tr_counts(name, count):
    assert len(enumerate_all(L_(name))) == count


@pytest.mark.parametrize("name", ["Sym3", "D10", "K4", "Q8", "C12"])
def test_enumeration_matches_orbit_union_oracle(name):
    """Tr(G) is exactly the set of unions of pair orbits that validate accepts."""
    L = L_(name)
    orbits = L.pair_orbits
    assert len(orbits) <= 12
    oracle = set()
    for chosen in range(1 << len(orbits)):
        pairs = [p for b, orbit in enumerate(orbits) if chosen >> b & 1 for p in orbit]
        if not validate(L, pairs):
            oracle.add(TransferSystem.from_pairs(L, pairs))
    assert oracle == set(enumerate_all(L))


@pytest.mark.parametrize("G", [dihedral(4), make_group("C24"), abelian_group((2, 4)),
                               abelian_group((3, 3)), make_group("D10")],
                         ids=["D8", "C24", "C2xC4", "C3xC3", "D10"])
def test_enumeration_matches_join_oracle(G):
    """Tr(G) is the diagonal closed under joins with the one-orbit systems,
    built with the public generate and join alone; unlike the union oracle
    it reaches groups with more than 12 pair orbits."""
    L = subgroup_lattice(G)
    atoms = [generate(L, [orbit[0]]) for orbit in L.pair_orbits]
    found = frontier = {TransferSystem.diagonal(L)}
    while frontier:
        frontier = {join(T, A) for T in frontier for A in atoms} - found
        found = found | frontier
    assert found == set(enumerate_all(L, bound=len(L.pair_orbits)))


def test_sym4_pinned():
    L = L_("Sym4")
    systems, covers = hasse_diagram(L, bound=34)
    assert len(systems) == 8691
    keys = [T.key for T in systems]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert systems == enumerate_all(L, bound=34)
    assert len(covers) == 40863
    assert aut_orbits(systems, automorphisms(L.group))[1] == [(1, 8691)]


@pytest.mark.parametrize("name,bound,count", [("C24", None, 1623), ("C2xC6", 34, 15010)])
def test_hasse_cover_counts(name, bound, count):
    # Sym4's 40863 covers are pinned by test_sym4_pinned
    assert len(hasse_diagram(L_(name), **({} if bound is None else {"bound": bound}))[1]) \
        == count


@pytest.mark.parametrize("name", ["Sym4", "C2xC2xC2", "C4xC4", "C2xC2xC6"])
def test_no_two_pair_orbits_generate_each_other(name):
    """hasse_diagram closes only the lacking orbits whose generated system
    holds no other lacking orbit, which is exact only if this holds."""
    L = L_(name)
    firsts = [orbit[0] for orbit in L.pair_orbits]
    generated = [generate(L, [pair]) for pair in firsts]
    for i, Si in enumerate(generated):
        for j in range(i):
            assert not (Si.contains(*firsts[j]) and generated[j].contains(*firsts[i]))


def test_rank_two_formula():
    for p in (2, 3):
        L = subgroup_lattice(abelian_group((p, p)))
        assert len(enumerate_all(L)) == 2 ** (p + 2) + p + 1


def pgl2_orbits_on_point_sets(p):
    """N(p), the number of orbits of PGL2(p) on the sets of points of the
    projective line P^1(F_p), by Burnside's lemma over GL2(p): scalars fix
    every point, so the average of 2^(cycles) is the same over both."""
    points = [(1, a) for a in range(p)] + [(0, 1)]

    def point(x, y):
        x, y = x % p, y % p
        inverse = pow(x or y, -1, p)
        return (x * inverse % p, y * inverse % p)

    total = size = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            image = {(x, y): point(a * x + b * y, c * x + d * y) for x, y in points}
            seen, cycles = set(), 0
            for start in points:
                cycles += start not in seen
                while start not in seen:
                    seen.add(start)
                    start = image[start]
            total += 2 ** cycles
            size += 1
    assert total % size == 0
    return total // size


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cp_x_cp_closed_forms(p):
    """Tr(C_p x C_p) has 2^(p+2) + p + 1 systems, 2^(p+1) + p + 2 of them
    saturated, and its Steiner image has 2^(p+1).  Aut(C_p x C_p) = GL2(p)
    permutes the p + 1 lines as PGL2(p) permutes P^1(F_p), so the systems
    fall into 2N(p) + 1 orbits, N(p) = 4, 5, 7, 10 for p = 2, 3, 5, 7."""
    L = subgroup_lattice(abelian_group((p, p)))
    assert len(L.pair_orbits) == 2 * p + 3
    systems = enumerate_all(L, bound=2 * p + 3)
    assert len(systems) == 2 ** (p + 2) + p + 1
    assert sum(map(is_saturated, systems)) == 2 ** (p + 1) + p + 2
    if p <= 7:
        assert len(steiner_image(L)) == 2 ** (p + 1)
        n = pgl2_orbits_on_point_sets(p)
        assert n == {2: 4, 3: 5, 5: 7, 7: 10}[p]
        assert len(aut_orbits(systems, automorphisms(L.group))[0]) == 2 * n + 1


@pytest.mark.parametrize("name,bound", [("C16", None), ("Q8", None), ("C2xC6", 26),
                                        ("Sym4", 34)])
def test_enumeration_in_key_order(name, bound):
    """The walk lists Tr(G) as sorting by the bit-string key does, over 25 to 900 bits."""
    systems = list(enumerate_all(L_(name), **({} if bound is None else {"bound": bound})))
    assert systems == sorted(reversed(systems), key=lambda T: T.key)


def test_every_returned_list_is_sorted_by_key():
    """Tr(G), its Hasse diagram's systems and both images: each list the
    library returns is strictly increasing in TransferSystem.key."""
    def increasing(systems):
        keys = [T.key for T in systems]
        return all(a < b for a, b in zip(keys, keys[1:]))

    for G in (make_group("Q8"), make_group("C16"), dihedral(4), make_group("C24"),
              make_group("C2xC6"), dihedral(6), make_group("Sym4")):
        L = subgroup_lattice(G)
        bound = len(L.pair_orbits)
        assert increasing(enumerate_all(L, bound)), G.name
        assert increasing(hasse_diagram(L, bound)[0]), G.name
    for name in ("K4", "Q8", "Sym3", "C2xC4", "C2xC6", "C3xC3", "C2xC2xC2", "C2xC2xC6",
                 "C2xC2xC2xC2"):
        assert increasing(steiner_image(L_(name))), name
    for n in range(1, 43):
        assert increasing(linisom_image_cyclic(n)), n
    for name in ("K4", "Q8", "Sym3"):
        assert increasing(linisom_image(L_(name))[0]), name


def test_enumeration_sorted_unique_closed():
    # Sym3 has pair orbits of size 3, so it exercises the orbit representatives
    for name in ("Q8", "Sym3"):
        L = L_(name)
        systems = enumerate_all(L)
        keys = [T.key for T in systems]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        pool = set(systems)
        rng = random.Random(5)
        for _ in range(40):
            a, b = rng.sample(systems, 2)
            assert meet(a, b) in pool and join(a, b) in pool
        perms = {L.subgroup_perm(s) for s in automorphisms(L.group)}
        for T in rng.sample(systems, min(10, len(systems))):
            for p in perms:
                assert TransferSystem.from_pairs(L, [(p[k], p[h]) for k, h in T.pairs()]) \
                    in pool


@pytest.mark.parametrize("G", [make_group("Q8"), abelian_group((2, 4))], ids=["Q8", "C2xC4"])
def test_hasse_diagram_lists_enumerate_all(G):
    L = subgroup_lattice(G)
    assert hasse_diagram(L)[0] == enumerate_all(L)


def test_enumeration_bound_refusal():
    L = L_("Sym4")
    with pytest.raises(SearchBoundExceeded, match="34") as refused:
        enumerate_all(L)
    with pytest.raises(SearchBoundExceeded) as hasse_refused:
        hasse_diagram(L)
    assert str(hasse_refused.value) == str(refused.value)


def test_env_bound_override(monkeypatch):
    """Library calls take the bound from their arguments alone; no
    environment variable is read."""
    monkeypatch.setenv("TL_SEARCH_BOUND", "5")
    assert len(enumerate_all(L_("Q8"))) == 68
    monkeypatch.setenv("TL_SEARCH_BOUND", "40")
    with pytest.raises(SearchBoundExceeded, match="above the search bound 24"):
        enumerate_all(L_("Sym4"))
    with pytest.raises(SearchBoundExceeded, match="above the search bound 24"):
        hasse_diagram(L_("Sym4"))
    assert len(enumerate_all(L_("Sym4"), bound=34)) == 8691
    monkeypatch.setenv("TL_SEARCH_BOUND", "abc")
    assert len(hasse_diagram(L_("Q8"))[0]) == 68


# -- the list enumerate_all returns ---------------------------------------------

def test_system_list_reads_as_a_sequence():
    """Tr(Q8) against the plain list of its systems: indices, negative and
    out of range, slices, equality, membership and random.sample."""
    L = L_("Q8")
    systems = enumerate_all(L)
    plain = list(systems)
    assert isinstance(systems, SystemList) and isinstance(systems, Sequence)
    assert len(systems) == len(plain) == len(set(plain)) == 68
    assert [systems[i] for i in range(-68, 68)] == plain + plain
    for i in (68, -69, 10 ** 6):
        with pytest.raises(IndexError):
            systems[i]
    for cut in (slice(5, 9), slice(None, None, -3), slice(60, 90), slice(9, 5), slice(-4, None)):
        part = systems[cut]
        assert isinstance(part, SystemList) and part.lattice is L
        assert list(part) == plain[cut] and part.masks == systems.masks[cut]
    assert systems == enumerate_all(L) and systems[2:9] == systems[2:9]
    assert systems != systems[:67] and systems != plain and systems[3:4] != systems[4:5]
    twin = subgroup_lattice(FiniteGroup(L.group._table))
    assert twin is not L and enumerate_all(twin) == systems
    assert SystemList(L_("C2xC4"), systems.masks) != systems
    assert random.Random(2).sample(systems, 4) == random.Random(2).sample(plain, 4)
    assert plain[7] in systems and systems.index(plain[7]) == 7
    assert TransferSystem.diagonal(L_("K4")) not in systems
    keys = [T.key for T in systems]
    assert keys == sorted(keys)


def test_system_list_above_64_orbits():
    """C2048's 12 subgroups form a chain with 66 pair orbits, too many for
    array('Q'), so the masks are a list of ints; |Tr(C2048)| is Catalan(12)."""
    L = subgroup_lattice(cyclic_group(2048))
    systems = enumerate_all(L, bound=66)
    assert len(L.pair_orbits) == 66 and type(systems.masks) is list
    assert len(systems) == math.comb(24, 12) // 13 == 208012
    assert systems[0] == TransferSystem.diagonal(L)
    assert systems[-1] == TransferSystem.maximum(L)
    picked = sorted(random.Random(4).sample(range(len(systems)), 40))
    keys = []
    for i in picked:
        T = systems[i]
        assert TransferSystem(L, T.bits) == T
        assert systems.masks[i] == sum(1 << j for j, orbit in enumerate(L.pair_orbits)
                                       if T.contains(*orbit[0]))
        keys.append(T.key)
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def retained_bytes(obj, skip):
    """sys.getsizeof summed over obj and all it references, skip and types
    left out."""
    seen, stack, total = set(map(id, skip)), [obj], 0
    while stack:
        x = stack.pop()
        if id(x) not in seen and not isinstance(x, type):
            seen.add(id(x))
            total += sys.getsizeof(x)
            stack += gc.get_referents(x)
    return total


def test_enumerated_systems_cost_one_word_each():
    """Tr(G) is held as one 8-byte mask per system: under 16 bytes a
    system traced for the ladder's two largest lists, whose tables are built
    before tracing, and under 10 MiB for Tr(C4xC4)'s 610,108 systems (a
    TransferSystem per system held 88.7 MiB)."""
    for G in (make_group("C2xC6"), dihedral(6)):
        L = subgroup_lattice(G)
        enumerate_all(L, bound=26)
        tracemalloc.start()
        try:
            systems = enumerate_all(L, bound=26)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 16 * len(systems), G.name
    L = L_("C4xC4")
    systems = enumerate_all(L, bound=54)
    assert len(systems) == 610108
    assert retained_bytes(systems, [L]) < 10 * 2 ** 20


# -- orbit partitions -----------------------------------------------------------

def test_q8_orbit_profile():
    L = L_("Q8")
    orbits, profile = aut_orbits(enumerate_all(L), automorphisms(L.group))
    assert len(orbits) == 29
    assert profile == [(6, 1), (3, 17), (1, 11)]


def test_k4_orbit_count():
    L = L_("K4")
    orbits, _ = aut_orbits(enumerate_all(L), automorphisms(L.group))
    assert len(orbits) == 9


def _oracle_lattice(name):
    if name.endswith("-relabeled"):
        return subgroup_lattice(relabeled(dihedral(int(name[1:name.index("-")]) // 2), 5))
    return L_(name)


def _pair_sets(systems, orbits):
    """The orbits `aut_orbits` lists as indices into systems, each a set of
    pair sets, to compare with `_relabeling_orbits`."""
    return {frozenset(frozenset(systems[i].pairs()) for i in orbit) for orbit in orbits}


def _relabeling_orbits(L, systems, auts=None):
    """The orbits of systems by relabeling every system's pairs under every
    automorphism (or each of auts), inner ones included, each a set of pair
    sets."""
    images = {tuple(L.subgroups.index(frozenset(sigma[x] for x in s)) for s in L.subgroups)
              for sigma in (automorphisms(L.group) if auts is None else auts)}
    moves = [{(k, h): (img[k], img[h]) for k, h in L.proper_pairs} for img in images]
    return {frozenset(frozenset(map(move.__getitem__, pairs)) for move in moves)
            for pairs in map(TransferSystem.pairs, systems)}


@pytest.mark.parametrize("name,profile", [("Sym3", [(1, 9)]), ("D10", None), ("Q8", None),
                                          ("C2xC4", None), ("C2xC6", None),
                                          ("D8-relabeled", None), ("D12-relabeled", None),
                                          ("C1", [(1, 1)]), ("C2", [(1, 2)]),
                                          ("K4", [(3, 5), (1, 4)]),
                                          ("C16", [(1, 42)]), ("C24", [(1, 544)]),
                                          ("Sym4", [(1, 600)]), ("C3xC3", None),
                                          ("C2xC2xC2", None)])
def test_orbits_match_brute_force_relabeling(name, profile):
    """D12's 16 subgroups span 32 bytes of pairs; C1 has no proper pair and
    no action.  Every automorphism of C2, C16, C24 and Sym4 acts on the
    subgroups as an inner one does, so each system is its own orbit; K4,
    the smallest group with an outer action, has its orbits' first pairs
    in three bytes.  Any part of Sym4's 8691 systems is closed under its
    automorphisms, all inner, and 600 keep the relabeling quick.  C3xC3
    has 23 outer relabelings over two mask bytes.  For C2xC2xC2 the list is
    the 918 systems generated by one or two pair orbits, closed under
    Aut(G) since sigma<o, p> = <sigma o, sigma p>: 167 relabelings over
    seven mask bytes, and systems without the walk's masks."""
    L = _oracle_lattice(name)
    if name == "C2xC2xC2":
        firsts = [orbit[0] for orbit in L.pair_orbits]
        systems = list(dict.fromkeys(generate(L, list(seeds)) for r in (1, 2)
                                     for seeds in itertools.combinations(firsts, r)))
        assert len(systems) == 918
    else:
        systems = enumerate_all(L, bound=len(L.pair_orbits))
    if name == "Sym4":
        systems = random.Random(1).sample(systems, 600)
    orbits, got_profile = aut_orbits(systems, automorphisms(L.group))
    expected = _relabeling_orbits(L, systems)
    assert _pair_sets(systems, orbits) == expected
    sizes = sorted((len(o) for o in expected), reverse=True)
    assert got_profile == sorted({(z, sizes.count(z)) for z in sizes}, reverse=True)
    if profile is not None:
        assert got_profile == profile


@pytest.mark.parametrize("name", ["Q8", "C2xC6", "D8-relabeled", "K4", "C24"])
def test_orbits_of_a_shuffled_list_follow_its_order(name):
    """The orbits are listed by their first member in the list, and each
    lists its members in the list's order."""
    L = _oracle_lattice(name)
    systems = list(enumerate_all(L, bound=len(L.pair_orbits)))
    random.Random(11).shuffle(systems)
    orbits, _ = aut_orbits(systems, automorphisms(L.group))
    assert _pair_sets(systems, orbits) == _relabeling_orbits(L, systems)
    assert all(orbit == sorted(orbit) for orbit in orbits)
    assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
    assert sorted(i for orbit in orbits for i in orbit) == list(range(len(systems)))


@pytest.mark.parametrize("name", ["Q8", "C2xC6", "D12-relabeled"])
def test_orbits_of_a_union_of_whole_orbits(name):
    """A list holding some whole orbits, shuffled, splits into just those."""
    L = _oracle_lattice(name)
    systems = enumerate_all(L, bound=len(L.pair_orbits))
    orbits, _ = aut_orbits(systems, automorphisms(L.group))
    rng = random.Random(3)
    kept = [systems[i] for orbit in orbits if rng.random() < 0.5 for i in orbit]
    rng.shuffle(kept)
    got, profile = aut_orbits(kept, automorphisms(L.group))
    assert _pair_sets(kept, got) == _relabeling_orbits(L, kept)
    assert sum(z * c for z, c in profile) == len(kept)


@pytest.mark.parametrize("name", ["K4", "Q8", "C2xC6", "D8-relabeled", "D12-relabeled",
                                  "C1", "C2", "C4"])
def test_orbit_reader_reads_the_held_orbits(name):
    """The orbit mask `aut_orbits` reads for each system the walk lists has
    bit j for each orbit j the system holds.  K4's first pairs lie in three
    bytes, C2's and C4's in one, and C1 has none."""
    L = _oracle_lattice(name)
    systems = enumerate_all(L, bound=len(L.pair_orbits))
    assert len(systems.masks) == len(systems)
    for T, M in zip(systems, systems.masks):
        held = 0
        for j, orbit in enumerate(L.pair_orbits):
            if T.contains(*orbit[0]):
                held |= 1 << j
        assert M == held


@pytest.mark.parametrize("name,seed", [(name, seed) for name in ("Sym4", "K4", "C2xC4", "D12")
                                       for seed in (None, 1, 2)]
                         + [(name, None) for name in ("C1", "C2", "C4", "Q8", "C2xC6",
                                                      "D8-relabeled", "D12-relabeled")])
def test_orbits_of_mask_less_copies(name, seed):
    """A plain list of systems carries no orbit masks, and `aut_orbits`
    reads every mask from bits; a list of copies, and one mixing them with
    the walk's systems, splits into the walk's orbits with its profile,
    which are those found by relabeling pairs.  K4's orbits have their
    first pairs in three bytes, C2's and C4's in one, and C1 has none."""
    L = subgroup_lattice(dihedral(6)) if name == "D12" else _oracle_lattice(name)
    if seed is not None:
        L = subgroup_lattice(relabeled(L.group, seed))
    auts = automorphisms(L.group)
    systems = enumerate_all(L, bound=len(L.pair_orbits))
    want = aut_orbits(systems, auts)
    assert _pair_sets(systems, want[0]) == _relabeling_orbits(L, systems)
    for n_copied in (len(systems), len(systems) // 2):
        listed = [TransferSystem(L, T.bits) for T in systems[:n_copied]] \
            + list(systems[n_copied:])
        assert type(listed) is list
        orbits, profile = aut_orbits(listed, auts)
        assert profile == want[1]
        assert [[listed[i].bits for i in orbit] for orbit in orbits] \
            == [[systems[i].bits for i in orbit] for orbit in want[0]]


def _closed(perms):
    """The group the element permutations generate, identity included."""
    group = {tuple(range(len(perms[0])))}
    queue = list(group)
    while queue:
        x = queue.pop()
        for g in perms:
            y = tuple(g[i] for i in x)
            if y not in group:
                group.add(y)
                queue.append(y)
    return group


def test_orbits_of_a_generating_set_are_those_of_its_group():
    """C3xC3's first two automorphisms are the identity and one of order 3,
    whose orbits have 3 or 1 members; the automorphisms 1 and 12 generate
    all 48, and give the 11 orbits of the whole group."""
    L = L_("C3xC3")
    auts, systems = automorphisms(L.group), enumerate_all(L)
    whole = aut_orbits(systems, auts)
    assert len(whole[0]) == 11
    assert len(_closed(auts[:2])) == 3 and len(_closed([auts[1], auts[12]])) == 48
    orbits, profile = aut_orbits(systems, auts[:2])
    assert profile == [(3, 9), (1, 9)]
    assert _pair_sets(systems, orbits) == _relabeling_orbits(L, systems, _closed(auts[:2]))
    assert aut_orbits(systems, [auts[1], auts[12]]) == whole


@pytest.mark.parametrize("name", ["C3xC3", "Q8", "K4", "C2xC4", "D12-relabeled"])
def test_orbits_of_random_automorphism_subsets(name):
    """Any one to three automorphisms: the orbits of the group they
    generate, closed here over elements, not pair orbits."""
    L = _oracle_lattice(name)
    auts, systems = automorphisms(L.group), enumerate_all(L, bound=len(L.pair_orbits))
    rng = random.Random(7)
    for size in (1, 1, 2, 2, 3):
        picked = rng.sample(auts, size)
        orbits, profile = aut_orbits(systems, picked)
        expected = _relabeling_orbits(L, systems, _closed(picked))
        assert _pair_sets(systems, orbits) == expected
        assert sum(z * c for z, c in profile) == len(systems)


def test_orbits_refuse_a_generated_group_too_large_to_tabulate():
    """Two automorphisms of C2xC2xC2xC2 pass the table-size check on the
    permutations given, but generate all 20,160: the closure is refused
    once it outgrows the tables, above 292 relabelings over 56 mask bytes,
    before it is complete."""
    L = L_("C2xC2xC2xC2")
    auts = automorphisms(L.group)
    with pytest.raises(SearchBoundExceeded) as refused:
        aut_orbits([TransferSystem.diagonal(L)], [auts[1], auts[5000]])
    found = re.fullmatch(r"relabeling Tr\(C2xC2xC2xC2\) by (\d+) or more generated pair-orbit "
                         r"relabelings needs 56 x 256 table entries each: (\d+), above the "
                         r"limit 4194304", str(refused.value))
    count, entries = map(int, found.groups())
    assert 292 < count < 20159 and entries == 56 * 256 * count


@pytest.mark.parametrize("name", ["Q8", "C4", "C24"])
def test_orbits_refuse_a_system_list_repeating_a_mask(name):
    L = L_(name)
    systems = enumerate_all(L)
    with pytest.raises(ValueError, match="^system list repeats a system$"):
        aut_orbits(SystemList(L, systems.masks + systems.masks[-2:]), automorphisms(L.group))


def test_orbits_of_no_systems():
    assert aut_orbits([], automorphisms(make_group("Q8"))) == ([], [])


def test_orbits_refuse_a_list_not_closed_under_automorphisms():
    L = L_("Q8")
    systems = enumerate_all(L)
    orbits, _ = aut_orbits(systems, automorphisms(L.group))
    for member in next(o for o in orbits if len(o) == 3):
        with pytest.raises(ValueError, match="not closed under the automorphism action"):
            aut_orbits([T for T in systems if T != systems[member]], automorphisms(L.group))


@pytest.mark.parametrize("repeat", ["listed twice", "mask-less copy"])
def test_orbits_refuse_repeated_systems(repeat):
    """A repeat would be counted as a member again: Q8's list plus three
    repeats would give a profile with 18 orbits of size 3, not 17.  On C4
    and C24 no automorphism moves a pair orbit, so each system is its own
    orbit, and C4's list plus one repeat would give [(1, 6)]."""
    for name in ("Q8", "C4", "C24"):
        L = L_(name)
        systems = enumerate_all(L)
        extra = systems[:3] if repeat == "listed twice" else [TransferSystem(L, systems[4].bits)]
        with pytest.raises(ValueError, match="^system list repeats a system$"):
            aut_orbits(list(systems) + list(extra), automorphisms(L.group))


@pytest.mark.parametrize("name", ["C4", "K4"])
def test_orbits_refuse_systems_over_different_lattices(name):
    """No automorphism of C4 moves a pair orbit, so two Q8 systems added to
    its list would be counted as orbits of their own, profile [(1, 7)].
    K4's list is relabeled through the walk's masks, where Q8's would read
    as not closed under the action.  Systems over another lattice of the
    same group table are accepted."""
    L = L_(name)
    systems, auts = enumerate_all(L), automorphisms(L.group)
    with pytest.raises(ValueError, match="^transfer systems live over different lattices$"):
        aut_orbits(list(systems) + list(enumerate_all(L_("Q8"))[5:7]), auts)
    twin = subgroup_lattice(FiniteGroup(L.group._table))
    assert twin is not L
    want = aut_orbits(systems, auts)
    mixed = list(systems[:2]) + list(enumerate_all(twin)[2:])
    got = aut_orbits(mixed, auts)
    assert got[1] == want[1]
    assert [[mixed[i].key for i in o] for o in got[0]] \
        == [[systems[i].key for i in o] for o in want[0]]


@pytest.mark.parametrize("name,other", [("K4", "Q8"), ("K4", "C2"), ("C4", "K4")])
def test_orbits_refuse_automorphisms_of_another_group(name, other):
    """A permutation of the wrong length, or one sending a subgroup onto a
    set that is not a subgroup, is refused in one line naming the group."""
    L = L_(name)
    with pytest.raises(ValueError, match=rf"^a permutation of \d+ elements is not an "
                                         rf"automorphism of {name}$"):
        aut_orbits(enumerate_all(L), automorphisms(make_group(other)))


def test_orbits_refuse_relabeling_tables_that_would_not_fit():
    """C2xC2xC2xC2 has 20,159 non-inner subgroup permutations over 56 mask
    bytes: 289M table entries, refused before any table is built."""
    L = L_("C2xC2xC2xC2")
    with pytest.raises(SearchBoundExceeded, match=r"^relabeling Tr\(C2xC2xC2xC2\) by 20159 .* needs "
                                                  r"56 x 256 table entries each: 288999424, "
                                                  r"above the limit 4194304$"):
        aut_orbits([TransferSystem.diagonal(L)], automorphisms(L.group))


def test_diagonal_is_a_fixed_point():
    for name in ("K4", "Q8", "Sym3"):
        L = L_(name)
        systems = enumerate_all(L)
        orbits, _ = aut_orbits(systems, automorphisms(L.group))
        diag_orbit = next(o for o in orbits
                          if TransferSystem.diagonal(L) in [systems[i] for i in o])
        assert len(diag_orbit) == 1


# -- closed forms ---------------------------------------------------------------

def test_closed_form_normal_source_matches_generate():
    L = L_("Q8")
    z = L.resolve_name("<-1>")
    T = closed_form_normal_source(L, z, [L.resolve_name("<i>"), L.resolve_name("<j>")])
    assert T == generate(L, [(z, L.resolve_name("<i>")), (z, L.resolve_name("<j>"))])


def test_closed_form_normal_target_matches_generate():
    L = L_("Q8")
    T = closed_form_normal_target(L, [0], L.full)
    assert named(T) == {("1", "<-1>"), ("1", "<i>"), ("1", "<j>"), ("1", "<k>"),
                        ("1", "Q8")}
    assert T == generate(L, [(0, L.full)])


def test_closed_form_both_normal_pair():
    """With both ends normal the closure is the diagonal plus (M n K, M)."""
    L = L_("C8")
    T = closed_form_normal_source(L, 0, [2])  # <(1, C4)>
    assert named(T) == {("1", "C2"), ("1", "C4")}
    K4L = L_("K4")
    a = K4L.resolve_name("<a>")
    assert closed_form_normal_source(K4L, a, [a]) == TransferSystem.diagonal(K4L)


def test_closed_form_precondition_errors():
    L = L_("Sym3")
    t12 = L.resolve_name("<(12)>")
    with pytest.raises(ValueError, match="not normal"):
        closed_form_normal_source(L, t12, [L.full])
    with pytest.raises(ValueError, match="conjugation"):
        closed_form_normal_target(L, [t12], L.full)
    with pytest.raises(ValueError, match="not contained"):
        closed_form_normal_source(L, L.resolve_name("<(123)>"), [t12])
    with pytest.raises(ValueError, match=r"^target <\(12\)> is not normal$"):
        closed_form_normal_target(L, [0], t12)
    with pytest.raises(ValueError,
                       match=r"^source <\(12\)> is not contained in <\(123\)>$"):
        closed_form_normal_target(L, [t12], L.resolve_name("<(123)>"))


def test_closed_forms_on_random_normal_families():
    rng = random.Random(13)
    for name in ("Q8", "K4", "C8", "C2xC4"):
        G = abelian_group((2, 4)) if name == "C2xC4" else make_group(name)
        L = subgroup_lattice(G)
        for _ in range(25):
            k = rng.choice([s for s in range(L.n) if L.normal[s]])
            ups = [h for h in range(L.n) if L.subgroups[k] <= L.subgroups[h]]
            hs = set()
            for h in rng.sample(ups, rng.randint(1, len(ups))):
                hs |= {c[h] for c in L.inner}
            assert closed_form_normal_source(L, k, hs) == \
                generate(L, [(k, h) for h in hs])
            h = rng.choice([s for s in range(L.n) if L.normal[s]])
            downs = [kk for kk in range(L.n) if L.subgroups[kk] <= L.subgroups[h]]
            ks = set()
            for kk in rng.sample(downs, rng.randint(1, len(downs))):
                ks |= {c[kk] for c in L.inner}
            assert closed_form_normal_target(L, ks, h) == \
                generate(L, [(kk, h) for kk in ks])
