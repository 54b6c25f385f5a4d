"""Subgroup lattice enumeration, conjugation data, automorphisms."""

import itertools
import math
import time

import pytest

from trlat.groups import (FiniteGroup, abelian_group, cyclic_group, dihedral_group,
                          klein_group, make_group, quaternion_group, symmetric_group)
from trlat.lattice import SearchBoundExceeded, _cyclic_walk, automorphisms, subgroup_lattice

from tables import ORDER_24_BUILTINS, dihedral, relabeled


def brute_force_subgroups(G):
    """Every subset containing the identity that is closed under the table."""
    elements = list(range(G.order))
    out = set()
    for r in range(G.order + 1):
        for combo in itertools.combinations(elements, r):
            s = set(combo)
            if G.identity not in s:
                continue
            if all(G.compose(a, b) in s for a in s for b in s):
                out.add(frozenset(s))
    return out


@pytest.mark.parametrize("G", [cyclic_group(12), symmetric_group(3), quaternion_group(),
                               klein_group(), dihedral_group(10), abelian_group((3, 3))],
                         ids=lambda g: g.name)
def test_subgroups_match_brute_force(G):
    L = subgroup_lattice(G)
    assert set(L.subgroups) == brute_force_subgroups(G)


@pytest.mark.parametrize("name,count", [("C4", 3), ("Q8", 6), ("Sym4", 30), ("K4", 5)])
def test_subgroup_counts(name, count):
    assert subgroup_lattice(make_group(name)).n == count


def test_canonical_order_and_determinism():
    L1 = subgroup_lattice(make_group("Q8"))
    orders = [L1.order_of(s) for s in range(L1.n)]
    assert orders == sorted(orders)
    assert L1.names == ("1", "<-1>", "<i>", "<j>", "<k>", "Q8")
    members = [tuple(sorted(s)) for s in L1.subgroups]
    for a, b in zip(members, members[1:]):
        assert (len(a), a) < (len(b), b)


def test_cyclic_subgroup_count_is_divisor_count():
    for n in (*range(1, 65), 360, 2048):
        L = subgroup_lattice(cyclic_group(n))
        assert L.n == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_cyclic_subgroups_come_from_walking_powers(monkeypatch):
    """One walk of a generator's powers lists all 12 subgroups of C2048, so
    the build closes joins and no cyclic subgroup, where closing <g> for
    each element g <= g^-1 would take 1,025 calls.  The table is fresh,
    with no lattice cached."""
    calls = []
    closure = FiniteGroup.closure
    monkeypatch.setattr(FiniteGroup, "closure",
                        lambda G, seed: calls.append(seed) or closure(G, seed))
    assert subgroup_lattice(FiniteGroup(cyclic_group(2048)._table)).n == 12
    assert len(calls) < 100


def gaussian_binomial(k, j, p):
    """The number of j-dimensional subspaces of F_p^k."""
    return math.prod(p ** (k - i) - 1 for i in range(j)) // math.prod(
        p ** (i + 1) - 1 for i in range(j))


@pytest.mark.parametrize("p,k,count", [(2, 1, 2), (2, 2, 5), (2, 3, 16), (2, 4, 67), (2, 5, 374),
                                       (3, 1, 2), (3, 2, 6), (3, 3, 28), (3, 4, 212), (5, 2, 8)])
def test_elementary_abelian_subgroup_counts(p, k, count):
    """The subgroups of C_p^k are the subspaces of F_p^k."""
    assert count == sum(gaussian_binomial(k, j, p) for j in range(k + 1))
    assert subgroup_lattice(make_group("x".join([f"C{p}"] * k))).n == count


ODD_PRIMES = [p for p in range(3, 62) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", ODD_PRIMES + [101])
def test_dihedral_subgroup_counts(p):
    """D2p has p + 3 subgroups: 1, the p reflections, C_p and D2p."""
    assert subgroup_lattice(dihedral_group(2 * p)).n == p + 3


LATTICE_JOIN_REFUSAL = ("the subgroup lattice of {} would join about {} pairs of its {} cyclic "
                        "subgroups, each over {} elements: {} steps, above the limit {}")


@pytest.mark.parametrize("name,cyclic", [("D502", 253), ("D1018", 511)])
def test_subgroup_lattice_refuses_too_many_joins_up_front(name, cyclic):
    G = make_group(name)
    started = time.perf_counter()
    with pytest.raises(SearchBoundExceeded) as refused:
        subgroup_lattice(G)
    assert time.perf_counter() - started < 1
    pairs = cyclic ** 2 // 2
    assert str(refused.value) == LATTICE_JOIN_REFUSAL.format(
        name, pairs, cyclic, G.order, pairs * G.order, 1 << 22)


def test_subgroup_lattice_refuses_too_many_subgroups():
    """C2^6 has 2825 subgroups; the loop stops soon after it passes 1024."""
    started = time.perf_counter()
    with pytest.raises(SearchBoundExceeded) as refused:
        subgroup_lattice(make_group("C2xC2xC2xC2xC2xC2"))
    assert time.perf_counter() - started < 2
    assert str(refused.value) == ("the subgroup lattice of C2xC2xC2xC2xC2xC2 has more than "
                                  "1024 subgroups: 1055 found so far")


def test_subgroup_lattice_limits_are_inclusive(monkeypatch):
    """D10 has 7 cyclic subgroups (24 pairs of them, over 10 elements: 240
    steps) and 8 subgroups; each table is fresh, with no lattice cached."""
    for steps, most, refused in ((240, 8, None), (239, 8, "240 steps, above the limit 239"),
                                 (240, 7, "more than 7 subgroups")):
        monkeypatch.setattr("trlat.lattice.STEP_LIMIT", steps)
        monkeypatch.setattr("trlat.lattice.MAX_SUBGROUPS", most)
        if refused is None:
            assert subgroup_lattice(dihedral(5)).n == 8
        else:
            with pytest.raises(SearchBoundExceeded, match=refused):
                subgroup_lattice(dihedral(5))


def test_q8_all_normal():
    L = subgroup_lattice(quaternion_group())
    assert all(L.normal)


def test_conjugation_preserves_inclusion():
    for G in (symmetric_group(3), quaternion_group(), symmetric_group(4)):
        L = subgroup_lattice(G)
        for perm in L.inner:
            assert sorted(perm) == list(range(L.n))
            for s in range(L.n):
                for t in range(L.n):
                    assert (L.subgroups[s] <= L.subgroups[t]) == \
                        (L.subgroups[perm[s]] <= L.subgroups[perm[t]])


def test_intersection_is_the_meet():
    L = subgroup_lattice(symmetric_group(3))
    for s in range(L.n):
        for t in range(L.n):
            m = L.intersect[s][t]
            assert L.subgroups[m] == L.subgroups[s] & L.subgroups[t]
            assert L.subgroups[m] <= L.subgroups[s] and L.subgroups[m] <= L.subgroups[t]


def test_cocyclicity():
    LQ = subgroup_lattice(quaternion_group())
    assert [LQ.names[s] for s in range(LQ.n) if LQ.cocyclic[s]] == \
        ["<i>", "<j>", "<k>", "Q8"]
    LK = subgroup_lattice(klein_group())
    assert [LK.names[s] for s in range(LK.n) if LK.cocyclic[s]] == \
        ["<a>", "<b>", "<c>", "K4"]
    # all subgroups of a cyclic group are cocyclic
    LC = subgroup_lattice(cyclic_group(12))
    assert all(LC.cocyclic)
    LS = subgroup_lattice(symmetric_group(3))
    assert [LS.names[s] for s in range(LS.n) if LS.cocyclic[s]] == ["<(123)>", "Sym3"]


def test_pair_orbits_abelian_singletons():
    L = subgroup_lattice(klein_group())
    orbits = L.pair_orbits
    assert len(orbits) == 7
    assert all(len(orbit) == 1 for orbit in orbits)


def test_pair_orbits_q8():
    L = subgroup_lattice(quaternion_group())
    orbits = L.pair_orbits
    assert len(orbits) == 12 == len(L.proper_pairs)
    assert all(len(orbit) == 1 for orbit in orbits)


def test_sym4_double_transposition_edges():
    """Two conjugacy classes of inclusions of a double-transposition C2 in D8."""
    G = symmetric_group(4)
    L = subgroup_lattice(G)
    dt = L.subgroups.index(G.closure([G.element_names.index("(12)(34)")]))
    dt_class = L.class_of[dt]
    restricted = [orbit for orbit in L.pair_orbits
                  if L.class_of[orbit[0][0]] == dt_class and L.order_of(orbit[0][1]) == 8]
    assert len(restricted) == 2
    assert sorted(len(o) for o in restricted) == [3, 6]


def brute_force_automorphisms(G):
    others = [x for x in range(G.order) if x != G.identity]
    out = []
    for images in itertools.permutations(others):
        phi = {G.identity: G.identity}
        phi.update(dict(zip(others, images)))
        if all(phi[G.compose(a, b)] == G.compose(phi[a], phi[b])
               for a in range(G.order) for b in range(G.order)):
            out.append(tuple(phi[x] for x in range(G.order)))
    return sorted(out)


# every builtin token of order <= 8 (at most 7! candidate permutations each)
SMALL_BUILTINS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "K4", "Q8", "Sym3", "D6",
                  "C2xC2", "C2xC3", "C2xC4", "C2xC2xC2")


@pytest.mark.parametrize("G", [make_group(name) for name in SMALL_BUILTINS]
                         + [relabeled(dihedral(4), 8),
                            pytest.param(relabeled(dihedral(4), 7), id="D8-relabeled-7"),
                            pytest.param(relabeled(make_group("C2xC4"), 7), id="C2xC4-relabeled-7")],
                         ids=lambda g: g.name)
def test_automorphisms_match_brute_force(G):
    """The relabeled D8 of seed 7 is generated by three involutions, and
    C2xC4 of seed 7 by three elements: for each, some choice of generator
    images fills a bijection along the breadth-first tree that is no
    homomorphism, which only the edges closing a cycle refuse."""
    assert automorphisms(G) == brute_force_automorphisms(G)


def test_automorphism_counts():
    assert len(automorphisms(klein_group())) == 6
    assert len(automorphisms(cyclic_group(5))) == 4
    assert len(automorphisms(quaternion_group())) == 24


def test_automorphisms_are_kept_on_the_group_and_handed_out_fresh():
    """The search runs once per group; a caller that edits the list it got
    does not change what the next call returns."""
    G = quaternion_group()
    got = automorphisms(G)
    want = list(got)
    got.append(got[0])
    got.reverse()
    assert automorphisms(G) == want
    assert automorphisms(G) is not automorphisms(G)
    assert G._automorphisms == tuple(want)


def test_q8_aut_acts_through_order_6_quotient():
    G = quaternion_group()
    L = subgroup_lattice(G)
    induced = {L.subgroup_perm(sigma) for sigma in automorphisms(G)}
    assert len(induced) == 6


def test_automorphism_search_counts_at_the_limit():
    """Each fits: 15^4 * 16 = 810,000 and 100 * 101 * 202 = 2,040,200 steps."""
    assert len(automorphisms(make_group("C2xC2xC2xC2"))) == 20160  # |GL(4, 2)|
    assert len(automorphisms(make_group("D202"))) == 101 * 100


@pytest.mark.parametrize("name,tuples", [("C2xC2xC2xC2xC2", 31 ** 5),
                                         ("C3xC3xC3xC3", 80 ** 4), ("D502", 250 * 251)])
def test_automorphism_search_above_the_limit_is_refused_up_front(name, tuples):
    G = make_group(name)
    started = time.perf_counter()
    with pytest.raises(SearchBoundExceeded) as refused:
        automorphisms(G)
    assert time.perf_counter() - started < 1
    assert str(refused.value) == (
        f"the automorphism search on {name} would try {tuples} tuples of generator images, "
        f"each over {G.order} elements: {tuples * G.order} steps, above the limit 4194304")


def test_automorphisms_closed_under_composition_and_inverse():
    G = symmetric_group(3)
    auts = set(automorphisms(G))
    for a in auts:
        inv = [0] * G.order
        for x, y in enumerate(a):
            inv[y] = x
        assert tuple(inv) in auts
        for b in auts:
            assert tuple(a[b[x]] for x in range(G.order)) in auts


def test_automorphisms_permute_subgroup_classes():
    G = symmetric_group(4)
    L = subgroup_lattice(G)
    for sigma in automorphisms(G):
        perm = L.subgroup_perm(sigma)
        for s in range(L.n):
            size = sum(1 for t in range(L.n) if L.class_of[t] == L.class_of[s])
            size2 = sum(1 for t in range(L.n)
                        if L.class_of[t] == L.class_of[perm[s]])
            assert size == size2


def test_display_names_follow_construction_not_name():
    sym3 = symmetric_group(3)
    table = [[sym3.compose(a, b) for b in range(6)] for a in range(6)]
    names = subgroup_lattice(make_group({"kind": "table", "table": table,
                                         "name": "C6"})).names
    assert len(set(names)) == 6 and names[-1] == "C6"
    assert subgroup_lattice(cyclic_group(6)).names == ("1", "C2", "C3", "C6")


def names_oracle(G):
    """Each subgroup's display name, from its least generating tuple found by
    closing every tuple of its members, by size and then lexicographically."""
    def name(H):
        if len(H) == 1:
            return "1"
        if len(H) == G.order:
            return G.name
        if G.kind == "cyclic":
            return f"C{len(H)}"
        members = sorted(H - {G.identity})
        gens = next(combo for size in range(1, len(members) + 1)
                    for combo in itertools.combinations(members, size) if G.closure(combo) == H)
        return "<" + ",".join(G.element_names[g] for g in gens) + ">"
    return tuple(name(H) for H in subgroup_lattice(G).subgroups)


NAMED = ({name: make_group(name) for name in ORDER_24_BUILTINS + ("C2xC4xC8",)}
         | {f"relabeled-{name}-{seed}": relabeled(make_group(name), seed)
            for name in ("Sym4", "Q8", "C2xC2xC6", "C4xC4", "C2xC2xC2xC2") for seed in (1, 2)}
         | {f"table-D{2 * m}": dihedral(m) for m in (4, 6, 12)})


@pytest.mark.parametrize("G", NAMED.values(), ids=list(NAMED))
def test_names_match_the_oracle(G):
    assert subgroup_lattice(G).names == names_oracle(G)


def test_naming_closes_no_tuples(monkeypatch):
    """Names come from the joins that find the subgroups: C2xC2xC2xC2xC6 (748
    subgroups) takes under 30,000 closures, where closing every candidate
    generating tuple took 1,283,011.  The table is fresh, with no lattice
    cached."""
    calls = []
    closure = FiniteGroup.closure
    monkeypatch.setattr(FiniteGroup, "closure",
                        lambda G, seed: calls.append(seed) or closure(G, seed))
    assert subgroup_lattice(FiniteGroup(make_group("C2xC2xC2xC2xC6")._table)).n == 748
    assert len(calls) < 30000


def test_name_resolution():
    L = subgroup_lattice(quaternion_group())
    assert L.resolve_name("<i>") == 2
    assert L.resolve_name("Q8") == L.full
    with pytest.raises(KeyError, match="no subgroup named"):
        L.resolve_name("<x>")


def conjugation_oracle(G):
    """conjugate, normal, cocyclic, class_of and pair_orbits of G's lattice,
    from the subgroups' member sets and the Cayley table alone.  The member
    sets are the lattice's (test_subgroups_match_brute_force checks them),
    in the canonical order."""
    subs = sorted(subgroup_lattice(G).subgroups, key=lambda H: (len(H), sorted(H)))
    index = {H: i for i, H in enumerate(subs)}
    elements = range(G.order)

    def conj(g, H):
        return frozenset(G.compose(G.compose(g, h), G.invert(g)) for h in H)

    def product(A, B):
        return frozenset(G.compose(a, b) for a in A for b in B)

    def cyclic_quotient(H):
        cosets = {product([x], H) for x in elements}
        for xH in cosets:
            powers, power = {H}, xH
            while power not in powers:
                powers.add(power)
                power = product(power, xH)
            if powers == cosets:
                return True
        return False

    conjugate = tuple(tuple(index[conj(g, H)] for H in subs) for g in elements)
    normal = tuple(all(conj(g, H) == H for g in elements) for H in subs)
    cocyclic = tuple(normal[s] and cyclic_quotient(H) for s, H in enumerate(subs))
    classes = []
    for s in range(len(subs)):
        cls = {c[s] for c in conjugate}
        if cls not in classes:
            classes.append(cls)
    class_of = tuple(next(i for i, cls in enumerate(classes) if s in cls)
                     for s in range(len(subs)))
    orbits = {frozenset((c[index[K]], c[index[H]]) for c in conjugate)
              for K in subs for H in subs if K < H}
    pair_orbits = tuple(sorted(tuple(sorted(orbit)) for orbit in orbits))
    return tuple(subs), conjugate, normal, cocyclic, class_of, pair_orbits


RELABELED = {"D8": lambda: relabeled(dihedral(4), 8), "D12": lambda: relabeled(dihedral(6), 12),
             "Sym4": lambda: relabeled(symmetric_group(4), 24)}


@pytest.mark.parametrize("G", [make_group(name) for name in ORDER_24_BUILTINS]
                         + [make() for make in RELABELED.values()],
                         ids=list(ORDER_24_BUILTINS) + [f"relabeled-{k}" for k in RELABELED])
def test_conjugation_data_match_the_oracle(G):
    L = subgroup_lattice(G)
    subs, conjugate, normal, cocyclic, class_of, pair_orbits = conjugation_oracle(G)
    assert L.subgroups == subs
    assert L.inner == tuple(dict.fromkeys(conjugate))
    assert L.normal == normal
    assert L.cocyclic == cocyclic
    assert (L.class_of, len(L.class_reps)) == (class_of, max(class_of) + 1)
    assert L.pair_orbits == pair_orbits
    # the order tables, from inclusion of the member sets
    n = len(subs)
    assert L.incl == tuple(sum(1 << h for h, H in enumerate(subs) if K <= H) for K in subs)
    assert L.below == tuple(tuple(l for l, M in enumerate(subs) if M <= H) for H in subs)
    assert L.proper_pairs == tuple((k, h) for k, K in enumerate(subs)
                                   for h, H in enumerate(subs) if K < H)
    orbit_of = [-1] * (n * n)
    for j, orbit in enumerate(pair_orbits):
        for k, h in orbit:
            orbit_of[k * n + h] = j
    assert L.orbit_of.tolist() == orbit_of


@pytest.mark.parametrize("G", [make_group(name) for name in ORDER_24_BUILTINS]
                         + [make() for make in RELABELED.values()],
                         ids=list(ORDER_24_BUILTINS) + [f"relabeled-{k}" for k in RELABELED])
def test_cyclic_walk_matches_closures(G):
    """Each element's order is the size of the subgroup it generates, and
    each cyclic subgroup is listed once, with its least generator."""
    cyclic, orders = _cyclic_walk(G)
    closures = [G.closure([x]) for x in range(G.order)]
    assert orders == {x: len(C) for x, C in enumerate(closures)}
    assert cyclic == {C: closures.index(C) for C in closures}


def test_lattice_repr():
    assert repr(subgroup_lattice(make_group("C4"))) == "SubgroupLattice(C4, 3 subgroups)"
