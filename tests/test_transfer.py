"""Relation closure, validation, lattice operations, and enumeration of Tr(G)."""

import itertools
import random
import tracemalloc

import pytest

from trlat.groups import FiniteGroup, abelian_group, cyclic_group, make_group
from trlat.lattice import automorphisms, subgroup_lattice
from trlat.transfer import (SearchBoundExceeded, TransferSystem,
                            TransferSystemError, aut_orbits,
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
    pair orbits.  Generating and validating one orbit's system keeps one
    array of n^2 4-byte slots and the records of the orbits it touches,
    under 5 MB traced.  The table is fresh, with no lattice or tables cached."""
    L = subgroup_lattice(FiniteGroup(make_group("C2xC2xC2xC2xC6")._table))
    tracemalloc.start()
    try:
        assert generate(L, []).pair_count() == 0
        assert len(validate(L, [(0, L.full)])) == 746
        assert generate(L, [(1, L.full)]).pair_count() == 746
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


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
    inside = [(k, h) for k, h in L.proper_pairs if L.includes[h][N]]
    T = generate(L, inside)
    assert all(L.includes[h][N] for k, h in T.pairs())


def test_bound_property_normal_source():
    """Pairs sourced above a normal subgroup never land inside it."""
    L = L_("Q8")
    N = L.resolve_name("<-1>")
    above = [(k, h) for k, h in L.proper_pairs if L.includes[N][k]]
    T = generate(L, above)
    assert all(not L.includes[h][N] for k, h in T.pairs())


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


@pytest.mark.parametrize("name,bound", [("C16", None), ("Q8", None), ("C2xC6", 26),
                                        ("Sym4", 34)])
def test_enumeration_in_key_order(name, bound):
    """The walk lists Tr(G) as sorting by the bit-string key does, over 25 to 900 bits."""
    systems = enumerate_all(L_(name), **({} if bound is None else {"bound": bound}))
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


def _relabeling_orbits(L, systems):
    """The orbits of systems by relabeling every system's pairs under every
    automorphism, inner ones included, each a set of pair sets."""
    images = {tuple(L.index_of[frozenset(sigma[x] for x in s)] for s in L.subgroups)
              for sigma in automorphisms(L.group)}
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
    assert {frozenset(frozenset(T.pairs()) for T in orbit) for orbit in orbits} == expected
    sizes = sorted((len(o) for o in expected), reverse=True)
    assert got_profile == sorted({(z, sizes.count(z)) for z in sizes}, reverse=True)
    if profile is not None:
        assert got_profile == profile


@pytest.mark.parametrize("name", ["Q8", "C2xC6", "D8-relabeled", "K4", "C24"])
def test_orbits_of_a_shuffled_list_follow_its_order(name):
    """The orbits are listed by their first member in the list, and each
    lists its members in the list's order."""
    L = _oracle_lattice(name)
    systems = enumerate_all(L, bound=len(L.pair_orbits))
    random.Random(11).shuffle(systems)
    orbits, _ = aut_orbits(systems, automorphisms(L.group))
    assert {frozenset(frozenset(T.pairs()) for T in orbit) for orbit in orbits} \
        == _relabeling_orbits(L, systems)
    at = {T: i for i, T in enumerate(systems)}
    positions = [[at[T] for T in orbit] for orbit in orbits]
    assert all(p == sorted(p) for p in positions)
    assert [p[0] for p in positions] == sorted(p[0] for p in positions)
    assert sorted(i for p in positions for i in p) == list(range(len(systems)))


@pytest.mark.parametrize("name", ["Q8", "C2xC6", "D12-relabeled"])
def test_orbits_of_a_union_of_whole_orbits(name):
    """A list holding some whole orbits, shuffled, splits into just those."""
    L = _oracle_lattice(name)
    systems = enumerate_all(L, bound=len(L.pair_orbits))
    orbits, _ = aut_orbits(systems, automorphisms(L.group))
    rng = random.Random(3)
    kept = [T for orbit in orbits if rng.random() < 0.5 for T in orbit]
    rng.shuffle(kept)
    got, profile = aut_orbits(kept, automorphisms(L.group))
    assert {frozenset(frozenset(T.pairs()) for T in orbit) for orbit in got} \
        == _relabeling_orbits(L, kept)
    assert sum(z * c for z, c in profile) == len(kept)


@pytest.mark.parametrize("name", ["K4", "Q8", "C2xC6", "D8-relabeled", "D12-relabeled",
                                  "C1", "C2", "C4"])
def test_orbit_reader_reads_the_held_orbits(name):
    """The orbit mask `aut_orbits` reads from each system the walk lists has
    bit j for each orbit j the system holds.  K4's first pairs lie in three
    bytes, C2's and C4's in one, and C1 has none."""
    L = _oracle_lattice(name)
    for T in enumerate_all(L, bound=len(L.pair_orbits)):
        held = 0
        for j, orbit in enumerate(L.pair_orbits):
            if T.contains(*orbit[0]):
                held |= 1 << j
        assert T._mask == held


@pytest.mark.parametrize("name,seed", [(name, seed) for name in ("Sym4", "K4", "C2xC4", "D12")
                                       for seed in (None, 1, 2)]
                         + [(name, None) for name in ("C1", "C2", "C4", "Q8", "C2xC6",
                                                      "D8-relabeled", "D12-relabeled")])
def test_orbits_of_mask_less_copies(name, seed):
    """Systems built outside the walk carry no orbit mask, and `aut_orbits`
    reads every mask from bits; a list of them, and one mixing them with
    the walk's systems, splits into the walk's orbits with its profile,
    which are those found by relabeling pairs.  K4's orbits have their
    first pairs in three bytes, C2's and C4's in one, and C1 has none."""
    L = subgroup_lattice(dihedral(6)) if name == "D12" else _oracle_lattice(name)
    if seed is not None:
        L = subgroup_lattice(relabeled(L.group, seed))
    auts = automorphisms(L.group)
    systems = enumerate_all(L, bound=len(L.pair_orbits))
    want = aut_orbits(systems, auts)
    assert {frozenset(frozenset(T.pairs()) for T in orbit) for orbit in want[0]} \
        == _relabeling_orbits(L, systems)
    for n_copied in (len(systems), len(systems) // 2):
        listed = [TransferSystem(L, T.bits) for T in systems[:n_copied]] + systems[n_copied:]
        assert not any(hasattr(T, "_mask") for T in listed[:n_copied])
        orbits, profile = aut_orbits(listed, auts)
        assert profile == want[1]
        assert [[T.bits for T in orbit] for orbit in orbits] \
            == [[T.bits for T in orbit] for orbit in want[0]]


def test_orbits_of_no_systems():
    assert aut_orbits([], automorphisms(make_group("Q8"))) == ([], [])


def test_orbits_refuse_a_list_not_closed_under_automorphisms():
    L = L_("Q8")
    systems = enumerate_all(L)
    orbits, _ = aut_orbits(systems, automorphisms(L.group))
    for member in next(o for o in orbits if len(o) == 3):
        with pytest.raises(ValueError, match="not closed under the automorphism action"):
            aut_orbits([T for T in systems if T != member], automorphisms(L.group))


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
            aut_orbits(systems + extra, automorphisms(L.group))


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
        orbits, _ = aut_orbits(enumerate_all(L), automorphisms(L.group))
        diag_orbit = next(o for o in orbits if TransferSystem.diagonal(L) in o)
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
            ups = [h for h in range(L.n) if L.includes[k][h]]
            hs = set()
            for h in rng.sample(ups, rng.randint(1, len(ups))):
                hs |= {L.conjugate[g][h] for g in range(G.order)}
            assert closed_form_normal_source(L, k, hs) == \
                generate(L, [(k, h) for h in hs])
            h = rng.choice([s for s in range(L.n) if L.normal[s]])
            downs = [kk for kk in range(L.n) if L.includes[kk][h]]
            ks = set()
            for kk in rng.sample(downs, rng.randint(1, len(downs))):
                ks |= {L.conjugate[g][kk] for g in range(G.order)}
            assert closed_form_normal_target(L, ks, h) == \
                generate(L, [(kk, h) for kk in ks])
