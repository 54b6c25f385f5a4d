"""Realizability maps, their images, realizing universes, and fixture tables."""

import functools
import itertools
import json
import random
import time
from importlib import resources

import pytest

from trlat import serialize
from trlat.groups import abelian_group, cyclic_group, make_group
from trlat.lattice import automorphisms, subgroup_lattice
from trlat.transfer import (SearchBoundExceeded, TransferSystem, aut_orbits,
                            enumerate_all, generate, is_saturated, join, meet)
from trlat.realize import (NoRealizabilityData, NotRealizable, catalog, index_set,
                           linisom_cyclic, linisom_fixture, linisom_image, linisom_image_cyclic,
                           minimal_steiner_universe, realize_saturated, steiner_cyclic,
                           steiner_image, universe, unrealized_fixture)


def L_(name):
    return subgroup_lattice(make_group(name))


def named(T):
    return {(T.lattice.names[k], T.lattice.names[h]) for k, h in T.pairs()}


def by_order(L, d):
    return next(s for s in range(L.n) if L.order_of(s) == d)


# -- embedding (Steiner-type) map ------------------------------------------------

def test_steiner_cyclic_examples():
    assert named(steiner_cyclic(4, universe(4, {1, 3}))) == {("1", "C2"), ("1", "C4")}
    assert steiner_cyclic(10, universe(10, {0})).pairs() == []
    L5 = subgroup_lattice(cyclic_group(5))
    assert steiner_cyclic(5, universe(5, {1, 4})) == TransferSystem.maximum(L5)


def test_steiner_kernel_is_gcd_subgroup():
    T = steiner_cyclic(12, universe(12, {8}))
    # gcd(8, 12) = 4: generated by (C4, C12)
    assert named(T) == named(generate(T.lattice, [(by_order(T.lattice, 4),
                                                   T.lattice.full)]))


def test_steiner_abelian_k4_rows():
    """K4's summands keep the names its fixture rows use."""
    L = L_("K4")
    reps = {e.rep: e.orb_pairs for e in catalog(L)}
    assert reps == {f"sigma_{x}": ((L.resolve_name(f"<{x}>"), L.full),) for x in "abc"}
    assert named(generate(L, reps["sigma_c"])) == \
        {("1", "<a>"), ("1", "<b>"), ("<c>", "K4")}
    assert named(generate(L, reps["sigma_b"] + reps["sigma_c"])) == \
        {("1", "<a>"), ("1", "<b>"), ("1", "<c>"), ("1", "K4"),
         ("<b>", "K4"), ("<c>", "K4")}


@pytest.mark.parametrize("G", [cyclic_group(12), abelian_group((2, 4))], ids=["C12", "C2xC4"])
def test_abelian_catalog_is_the_proper_cocyclic_subgroups(G):
    L = subgroup_lattice(G)
    cocyclic = [s for s in range(L.n) if L.cocyclic[s] and s != L.full]
    assert [e.orb_pairs for e in catalog(L)] == [((s, L.full),) for s in cocyclic]
    # C12/H is cyclic for every H; C2xC4 has C2xC2 quotients by 1 and <(0,2)>
    assert len(cocyclic) == 5


def test_steiner_image_counts():
    assert len(steiner_image(subgroup_lattice(cyclic_group(8)))) == 8
    assert len(steiner_image(subgroup_lattice(cyclic_group(6)))) == 7
    k4 = steiner_image(L_("K4"))
    assert len(k4) == 8
    orbits, _ = aut_orbits(k4, automorphisms(make_group("K4")))
    assert len(orbits) == 4
    assert len(steiner_image(L_("Q8"))) == 16
    assert len(steiner_image(L_("Sym3"))) == 4


def test_steiner_subset_limit_refuses_up_front():
    L = subgroup_lattice(abelian_group((2,) * 5))
    started = time.perf_counter()
    with pytest.raises(SearchBoundExceeded, match="C2xC2xC2xC2xC2 has 31 embedding-map "
                       "summands, 2147483648 subsets, above the subset limit 32768"):
        steiner_image(L)
    assert time.perf_counter() - started < 1
    for G, count in ((abelian_group((2, 4)), 32), (make_group("K4"), 8),
                     (abelian_group((2, 6)), 91), (abelian_group((2, 2, 2)), 128),
                     (abelian_group((3, 6)), 337)):
        L = subgroup_lattice(G)
        cocyclic = [(s, L.full) for s in range(L.n - 1) if L.cocyclic[s]]
        every_subset = {generate(L, [p for p, b in zip(cocyclic, bits) if b])
                        for bits in itertools.product((0, 1), repeat=len(cocyclic))}
        assert steiner_image(L) == sorted(every_subset, key=lambda t: t.key)
        assert len(every_subset) == count


@pytest.mark.parametrize("name,count", [("K4", 8), ("Q8", 16), ("Sym3", 4)])
def test_steiner_image_agrees_with_every_catalog_subset(name, count):
    """One `generate` per subset of catalog summands; for K4, whose image
    comes from its cocyclic subgroups, this also checks the catalog."""
    L = L_(name)
    reps = catalog(L)
    from_catalog = {generate(L, [p for entry in combo for p in entry.orb_pairs])
                    for r in range(len(reps) + 1)
                    for combo in itertools.combinations(reps, r)}
    assert sorted(from_catalog, key=lambda t: t.key) == steiner_image(L)
    assert len(from_catalog) == count


def test_steiner_members_generated_by_top_targeted_pairs():
    for target in (L_("K4"), subgroup_lattice(cyclic_group(12))):
        for T in steiner_image(target):
            tops = [(k, h) for k, h in T.pairs() if h == target.full]
            assert generate(target, tops) == T


def test_steiner_monotone_and_join():
    rng = random.Random(2)
    for n in (6, 8, 9, 12):
        for _ in range(20):
            I = universe(n, rng.sample(range(n), rng.randint(0, n // 2)))
            J = universe(n, index_set(n, I) + [rng.randrange(n)])
            assert steiner_cyclic(n, I).refines(steiner_cyclic(n, J))
            K = universe(n, rng.sample(range(n), rng.randint(0, n // 2)))
            union = universe(n, index_set(n, I) + index_set(n, K))
            assert steiner_cyclic(n, union) == join(steiner_cyclic(n, I),
                                                    steiner_cyclic(n, K))


def test_steiner_meet_failure_on_c5():
    t1 = steiner_cyclic(5, universe(5, {1, 4}))
    t2 = steiner_cyclic(5, universe(5, {2, 3}))
    L5 = t1.lattice
    assert meet(t1, t2) == TransferSystem.maximum(L5)
    assert steiner_cyclic(5, universe(5, {0})) == TransferSystem.diagonal(L5)
    assert meet(t1, t2) != steiner_cyclic(5, universe(5, {0}))


# -- isometries map --------------------------------------------------------------

def test_linisom_cyclic_examples():
    assert named(linisom_cyclic(9, universe(9, {3, 6}))) == {("C3", "C9")}
    assert named(linisom_cyclic(9, universe(9, {1, 3, 6, 8}))) == {("1", "C3")}
    assert named(linisom_cyclic(6, universe(6, {2, 4}))) == {("1", "C3"), ("C2", "C6")}


def test_linisom_always_saturated():
    rng = random.Random(17)
    for n in (4, 6, 9, 12, 18):
        for _ in range(25):
            I = universe(n, rng.sample(range(n), rng.randint(0, n - 1)))
            assert is_saturated(linisom_cyclic(n, I))


def test_linisom_non_monotone_on_c9():
    small, large = universe(9, {3, 6}), universe(9, {1, 3, 6, 8})
    u1, u2 = linisom_cyclic(9, small), linisom_cyclic(9, large)
    assert set(index_set(9, small)) < set(index_set(9, large))
    assert not u1.refines(u2) and not u2.refines(u1)


def test_free_transfer_forces_complete_universe():
    """If 1 -> C_n is admitted, the index set must be all of Z/n."""
    for n in (4, 6, 9, 10, 12):
        L = subgroup_lattice(cyclic_group(n))
        for u in [universe(n, s) for s in ([], [1], [2], range(n))]:
            T = linisom_cyclic(n, u)
            if T.contains(0, L.full):
                assert index_set(n, u) == list(range(n))


def test_linisom_image_counts():
    counts = {4: 4, 6: 5, 5: 2, 7: 2, 12: 14, 18: 14, 20: 19, 28: 19, 30: 33, 35: 7, 36: 60,
              40: 60, 42: 33}
    assert {n: len(linisom_image_cyclic(n)) for n in counts} == counts
    assert linisom_image(subgroup_lattice(cyclic_group(6))) == (linisom_image_cyclic(6), 8)
    systems, universes = linisom_image(L_("Q8"))
    assert (len(systems), universes) == (12, 16)


@pytest.mark.parametrize("n", [12, 15, 16, 18, 20, 21, 24, 25, 27])
def test_linisom_image_matches_every_universe(n):
    every = {linisom_cyclic(n, universe(n, [i for i, b in zip(range(1, n // 2 + 1), bits) if b]))
             for bits in itertools.product((0, 1), repeat=n // 2)}
    assert set(linisom_image_cyclic(n)) == every


@pytest.mark.parametrize("n", [30, 36])
def test_linisom_image_holds_sampled_universes(n):
    rng = random.Random(n)
    image = set(linisom_image_cyclic(n))
    for _ in range(500):
        I = [i for i in range(1, n // 2 + 1) if rng.random() < 0.5]
        assert linisom_cyclic(n, universe(n, I)) in image


def test_linisom_scan_limit_is_fixed(monkeypatch):
    monkeypatch.setenv("TL_SEARCH_BOUND", "0")
    assert len(linisom_image_cyclic(9)) == 4
    with pytest.raises(SearchBoundExceeded, match="C44 has 4194304 universes, above "
                                                  "the scan limit 2097152"):
        linisom_image_cyclic(44)


def test_linisom_image_c4_is_saturated_set():
    L = subgroup_lattice(cyclic_group(4))
    saturated = {T for T in enumerate_all(L) if is_saturated(T)}
    assert set(linisom_image_cyclic(4)) == saturated


def test_linisom_image_c6_misses_single_edges():
    L = subgroup_lattice(cyclic_group(6))
    saturated = {T for T in enumerate_all(L) if is_saturated(T)}
    missing = {generate(L, [(0, 1)]), generate(L, [(0, 2)])}
    assert set(linisom_image_cyclic(6)) == saturated - missing


# -- realizing universes ---------------------------------------------------------

def test_realize_cpn_examples():
    L4 = subgroup_lattice(cyclic_group(4))
    assert index_set(4, realize_saturated(generate(L4, [(0, 1)]))) == [0, 1, 3]
    assert index_set(4, realize_saturated(TransferSystem.diagonal(L4))) == [0]
    L8 = subgroup_lattice(cyclic_group(8))
    assert index_set(8, realize_saturated(TransferSystem.maximum(L8))) == list(range(8))
    assert realize_saturated(TransferSystem.diagonal(subgroup_lattice(cyclic_group(1)))) == 0


def test_realize_cpn_rejects_unsaturated():
    L8 = subgroup_lattice(cyclic_group(8))
    with pytest.raises(ValueError, match="saturated"):
        realize_saturated(generate(L8, [(0, 2)]))


def test_realize_rejects_systems_not_built_cyclic():
    # same order as C_4 and C_6, so only how the group was built tells them apart
    for G in (make_group("K4"), abelian_group((2, 3))):
        with pytest.raises(ValueError, match=f"system lives on {G.name}, which was not "
                                             "built as C_n"):
            realize_saturated(TransferSystem.diagonal(subgroup_lattice(G)))


@pytest.mark.parametrize("n", [12, 30])
def test_realize_needs_a_prime_power_or_pq(n):
    L = subgroup_lattice(cyclic_group(n))
    with pytest.raises(NoRealizabilityData, match=f"no realizing construction for C{n}: "):
        realize_saturated(TransferSystem.diagonal(L))


def test_realize_cpn_round_trips():
    for n in (8, 9, 16, 27):
        L = subgroup_lattice(cyclic_group(n))
        for T in enumerate_all(L):
            if is_saturated(T):
                assert linisom_cyclic(n, realize_saturated(T)) == T


def test_realize_cpq_table():
    L35 = subgroup_lattice(cyclic_group(35))
    T = generate(L35, [(0, by_order(L35, 7))])
    u = realize_saturated(T)
    assert index_set(35, u) == [0, 1, 5, 10, 15, 20, 25, 30, 34]
    assert linisom_cyclic(35, u) == T


def test_realize_cpq_exclusions():
    L6 = subgroup_lattice(cyclic_group(6))
    verdict = realize_saturated(generate(L6, [(0, 2)]))
    assert isinstance(verdict, NotRealizable) and verdict.tag == "indq"
    verdict = realize_saturated(generate(L6, [(0, 1)]))
    assert isinstance(verdict, NotRealizable) and verdict.tag == "indp"
    L10 = subgroup_lattice(cyclic_group(10))
    verdict = realize_saturated(generate(L10, [(0, by_order(L10, 5))]))
    assert isinstance(verdict, NotRealizable) and verdict.tag == "indq"
    # 1 -> C2 over C10 is realizable, unlike over C6
    u = realize_saturated(generate(L10, [(0, by_order(L10, 2))]))
    assert index_set(10, u) == [0, 1, 9]


def test_realize_cpq_all_saturated_round_trip():
    for p, q in ((2, 3), (2, 5), (3, 5), (5, 7)):
        L = subgroup_lattice(cyclic_group(p * q))
        for T in enumerate_all(L):
            if not is_saturated(T):
                continue
            verdict = realize_saturated(T)
            if isinstance(verdict, NotRealizable):
                assert T not in set(linisom_image_cyclic(p * q))
            else:
                assert linisom_cyclic(p * q, verdict) == T


def test_realize_cpq_diagonal():
    L6 = subgroup_lattice(cyclic_group(6))
    assert index_set(6, realize_saturated(TransferSystem.diagonal(L6))) == [0]


# -- minimal universes -----------------------------------------------------------

def test_minimal_universe_k4():
    L = L_("K4")
    a, b, c = (L.resolve_name(x) for x in ("<a>", "<b>", "<c>"))
    assert minimal_steiner_universe(L, 0, a) == [(b,), (c,)]
    assert minimal_steiner_universe(L, 0, L.full) == [(a, b), (a, c), (b, c)]
    assert minimal_steiner_universe(L, a, L.full) == [(a,)]


def test_minimal_universe_admissibility():
    L = L_("K4")
    for k, h in L.proper_pairs:
        for combo in minimal_steiner_universe(L, k, h):
            T = generate(L, [(s, L.full) for s in combo])
            assert T.contains(k, h)
            for i in range(len(combo)):
                smaller = generate(L, [(s, L.full) for s in combo[:i] + combo[i + 1:]])
                assert not smaller.contains(k, h)


def test_minimal_universe_refuses_up_front():
    L = subgroup_lattice(abelian_group((2,) * 5))
    started = time.perf_counter()
    with pytest.raises(SearchBoundExceeded, match="has 31 candidate kernels for 1 -> "
                       "C2xC2xC2xC2xC2, 2147483648 subsets, above the subset limit 32768"):
        minimal_steiner_universe(L, 0, L.full)
    assert time.perf_counter() - started < 1


def test_minimal_universe_candidates_lose_no_set():
    """Searching only the kernels s with K <= s and H not <= s finds the same
    sets as searching every proper cocyclic subgroup."""
    L = subgroup_lattice(abelian_group((2, 6)))
    kernels = [s for s in range(L.n - 1) if L.cocyclic[s]]
    for k, h in L.proper_pairs:
        def meet_h(combo):
            return functools.reduce(lambda a, s: L.intersect[a][s], combo, h)
        minimal = []
        for r in range(1, len(kernels) + 1):
            for combo in itertools.combinations(kernels, r):
                if meet_h(combo) == k and all(meet_h(combo[:i] + combo[i + 1:]) != k
                                              for i in range(r)):
                    minimal.append(combo)
        assert minimal_steiner_universe(L, k, h) == sorted(minimal, key=lambda c: (len(c), c))


def test_minimal_universe_errors():
    L = L_("K4")
    with pytest.raises(ValueError, match="strictly below"):
        minimal_steiner_universe(L, 1, 1)
    with pytest.raises(ValueError, match="strictly below"):
        minimal_steiner_universe(L, 1, 2)
    with pytest.raises(ValueError, match="abelian"):
        minimal_steiner_universe(L_("Sym3"), 0, 1)


# -- exclusions -----------------------------------------------------------------

def test_tower_exclusion_in_cp3():
    for p in (2, 3):
        L = subgroup_lattice(cyclic_group(p ** 3))
        bad = generate(L, [(0, 2)])
        assert bad not in set(steiner_image(L))
        assert bad not in set(linisom_image_cyclic(p ** 3))


def test_noncyclic_exclusion():
    LK = L_("K4")
    bad = generate(LK, [(0, LK.full)])
    assert bad not in set(steiner_image(LK))
    assert bad not in set(linisom_image(LK)[0])
    L33 = subgroup_lattice(abelian_group((3, 3)))
    assert generate(L33, [(0, L33.full)]) not in set(steiner_image(L33))


# -- fixtures --------------------------------------------------------------------

def test_catalog_contents():
    LQ = L_("Q8")
    q8 = {e.rep: e for e in catalog(LQ)}
    assert q8["H"].orb_pairs == ((0, LQ.full),)
    assert q8["sigma_i"].orb_pairs == ((LQ.resolve_name("<i>"), LQ.full),)
    LS = L_("Sym3")
    s3 = {e.rep: e for e in catalog(LS)}
    assert s3["sigma"].orb_pairs == ((LS.resolve_name("<(123)>"), LS.full),)
    assert len(s3["Delta"].orb_pairs) == 4
    with pytest.raises(ValueError, match="no embedding-map data for Sym4; supported: "
                                         "abelian groups and K4, Q8, Sym3"):
        catalog(L_("Sym4"))


def test_fixture_data_follows_how_the_group_was_built():
    """Fixture data is keyed on the group's constructor, never its name: a
    table copy of Q8, or K4 built as C2xC2, has none."""
    Q8 = make_group("Q8")
    table = [[Q8.compose(a, b) for b in range(Q8.order)] for a in range(Q8.order)]
    copy = make_group({"kind": "table", "name": "Q8", "table": table})
    with pytest.raises(NoRealizabilityData, match="no embedding-map data for Q8"):
        catalog(subgroup_lattice(copy))
    with pytest.raises(NoRealizabilityData, match="no unrealized-system data for Q8; "
                                                  "supported: K4, Q8, Sym3$"):
        unrealized_fixture(subgroup_lattice(copy))
    with pytest.raises(NoRealizabilityData, match="no isometries-map data for C2xC2; "
                                                  "supported: cyclic groups and K4"):
        linisom_fixture(subgroup_lattice(abelian_group((2, 2))))


def test_shipped_fixtures_match_their_schema():
    """The program reads data/fixtures.json without a schema check; this is it."""
    with resources.files("trlat").joinpath("data/fixtures.json").open() as fh:
        serialize.validate_document(json.load(fh), serialize.FIXTURES_SCHEMA)


@pytest.mark.parametrize("name", ["Q8", "Sym3"])
def test_catalog_pairs_join_a_proper_subgroup_to_the_group(name):
    L = L_(name)
    pairs = [pair for entry in catalog(L) for pair in entry.orb_pairs]
    assert pairs and all(h == L.full and k != L.full for k, h in pairs)


def test_fixture_rows_validate_and_saturate():
    for name in ("K4", "Q8", "Sym3"):
        for row in linisom_fixture(L_(name)):
            assert is_saturated(row.system)  # validity checked on load


def test_fixture_refines_matching_steiner_value():
    """Per universe, the isometries value refines the embedding value."""
    for name in ("K4", "Q8", "Sym3"):
        L = L_(name)
        reps = {e.rep: e for e in catalog(L)}
        for row in linisom_fixture(L):
            pairs = [p for r in row.universe for p in reps[r].orb_pairs]
            steiner_value = generate(L, pairs)
            assert row.system.refines(steiner_value)


def test_q8_fixture_row_for_four_dim_rep():
    row = next(r for r in linisom_fixture(L_("Q8")) if r.universe == ("H",))
    assert named(row.system) == {("1", "<-1>")}


def test_k4_fixture_trivial_universe_row():
    row = next(r for r in linisom_fixture(L_("K4")) if r.universe == ())
    assert row.system.pairs() == []


def test_realized_fractions():
    for name, hits, total in (("K4", 9, 19), ("Sym3", 5, 9), ("Q8", 22, 68)):
        L = L_(name)
        realized = set(steiner_image(L)) | set(linisom_image(L)[0])
        assert len(realized) == hits
        assert len(enumerate_all(L)) == total


def test_unrealized_lists_match():
    for name in ("K4", "Sym3", "Q8"):
        G = make_group(name)
        L = subgroup_lattice(G)
        realized = set(steiner_image(L)) | set(linisom_image(L)[0])
        unrealized = [T for T in enumerate_all(L) if T not in realized]
        orbits, _ = aut_orbits(unrealized, automorphisms(G))
        reps = unrealized_fixture(L)
        assert len(orbits) == len(reps)
        for rep in reps:
            assert any(rep in [unrealized[i] for i in orbit] for orbit in orbits)
