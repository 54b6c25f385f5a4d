"""The Tr(G) walk, `transfer._systems`, against the closure-based walk it
replaced, and the order fact that makes it exact: in L.pair_orbits order,
the system an orbit generates holds no later orbit.  The walk lists Tr(G)
in TransferSystem.key order, which the closure walk does not.  Its tests
run on orbit masks, from tables checked here against the axioms, and it
yields each system's mask beside its packed int."""

import pytest

from trlat.groups import make_group
from trlat.lattice import subgroup_lattice
from trlat.transfer import _close, _packing, _systems, _tables, enumerate_all

from tables import ORDER_24_BUILTINS, dihedral, relabeled

LADDER = {"Q8": make_group("Q8"), "C16": make_group("C16"), "D8": dihedral(4),
          "C24": make_group("C24"), "C2xC6": make_group("C2xC6"), "D12": dihedral(6),
          "Sym4": make_group("Sym4")}
RELABELED = {f"{name}-{seed}": relabeled(G, seed)
             for name, G in LADDER.items() for seed in (1, 2)}
INVARIANT_RELABELED = {f"{name}-{seed}": relabeled(G, seed)
                       for name, G in (("Sym4", LADDER["Sym4"]), ("D12", LADDER["D12"]),
                                       ("Q8", LADDER["Q8"]), ("C2xC2xC6", make_group("C2xC2xC6")))
                       for seed in (1, 2)}


def closure_walk(L):
    """Fast Close-by-One over the pair orbits with a closure per candidate
    (Outrata and Vychodil, Inf. Sci. 185, 2012): the child of T at orbit j
    is T closed with j's edges, kept iff it adds no orbit below j; a failed
    closure is handed down, and a descendant that still lacks one of the
    orbits below j it holds skips j."""
    n = L.n
    tables = _tables(L)
    masks = [(tables.orbits[j] or tables._orbit(j))[0:3:2]  # (packed, edges)
             for j in range(len(L.pair_orbits))]
    low, below = [], 0  # low[j]: the packed orbits before j
    for packed, _ in masks:
        low.append(below)
        below |= packed
    diagonal = _packing(n)[0]
    yield diagonal
    stack = [(diagonal, 0, [0] * len(masks))]
    while stack:
        T, start, failed = stack.pop()
        failed = failed.copy()
        children = []
        for j in range(start, len(masks)):
            packed, edges = masks[j]
            if T & packed or failed[j] & low[j] & ~T:
                continue
            U = _close(T, edges, n)
            if U & ~T & low[j]:
                failed[j] = U
            else:
                yield U
                children.append((U, j + 1, failed))
        stack += children


@pytest.mark.parametrize("G", list(LADDER.values()) + list(RELABELED.values()),
                         ids=list(LADDER) + list(RELABELED))
def test_walk_equals_closure_walk(G):
    """The same packed systems, and the walk's own order is the bit-string
    key order, so every listing, export and orbit partition built on the
    walk needs no sort."""
    L = subgroup_lattice(G)
    key = f"0{L.n * L.n}b"
    walked = [P for P, _ in _systems(L, 34)]
    assert walked == sorted(closure_walk(L), key=lambda P: format(P, key)[::-1])


@pytest.mark.parametrize("G", list(LADDER.values()) + list(RELABELED.values()),
                         ids=list(LADDER) + list(RELABELED))
def test_enumerated_systems_carry_their_orbit_masks(G):
    """Each system `enumerate_all` returns keeps the walk's orbit mask, bit
    j set iff it holds orbit j's first pair, for `aut_orbits` to read."""
    L = subgroup_lattice(G)
    for T in enumerate_all(L, bound=34):
        held = 0
        for j, orbit in enumerate(L.pair_orbits):
            if T.contains(*orbit[0]):
                held |= 1 << j
        assert T._mask == held


@pytest.mark.parametrize("G", [make_group(name) for name in ORDER_24_BUILTINS]
                         + list(INVARIANT_RELABELED.values()),
                         ids=list(ORDER_24_BUILTINS) + list(INVARIANT_RELABELED))
def test_generated_systems_hold_no_later_orbit(G):
    """The walk's union test is exact only because closing with orbit j adds
    no orbit after j; the system orbit j generates is that closure over the
    diagonal."""
    L = subgroup_lattice(G)
    n = L.n
    orbit_index = {k * n + h: j for j, orbit in enumerate(L.pair_orbits) for k, h in orbit}
    tables = _tables(L)
    for j in range(len(L.pair_orbits)):
        P = (tables.generated[j] or tables._generated(j)) & ~_packing(n)[0]
        held = {orbit_index[p] for p in range(n * n) if P >> p & 1}
        assert max(held) == j


def orbit_masks_by_brute_force(L, j):
    """What adding orbit j asks of a system, straight from the axioms: the
    conjugates (C K C^-1, C H C^-1) and restrictions (M n K, M), M <= H, of
    its pairs (K, H), as (source, target) pairs; the orbits of those
    restrictions outside the orbit and the diagonal; and, for transitivity,
    per orbit b of a pair (X, H) with (K, H) in the orbit and X < K, the
    orbits of those (X, K)."""
    orbit_index = {pair: i for i, orbit in enumerate(L.pair_orbits) for pair in orbit}
    orbit = L.pair_orbits[j]
    demand, need, implied = set(), set(), {}
    for k, h in orbit:
        demand |= {(c[k], c[h]) for c in L.conjugate}
        for x in range(L.n):
            if L.includes[x][h]:
                a = L.intersect[x][k]
                demand.add((a, x))
                if a != x and (a, x) not in orbit:
                    need.add(orbit_index[a, x])
            if x != k and L.includes[x][k]:
                implied.setdefault(orbit_index[x, h], set()).add(orbit_index[x, k])
    return demand, need, implied


@pytest.mark.parametrize("G", [make_group(name) for name in ORDER_24_BUILTINS]
                         + list(INVARIANT_RELABELED.values()),
                         ids=list(ORDER_24_BUILTINS) + list(INVARIANT_RELABELED))
def test_orbit_mask_tables_match_brute_force(G):
    """`_Tables.orbits`, which closure, validation and the walk read,
    against the axioms applied pair by pair: the packed orbit, its demand
    and that demand's nonzero rows, the orbits it needs, and one implied
    entry per target orbit."""
    L = subgroup_lattice(G)
    n = L.n
    tables = _tables(L)
    for j, orbit in enumerate(L.pair_orbits):
        packed, demand, edges, need, implied = tables.orbits[j] or tables._orbit(j)
        want_demand, want_need, want_implied = orbit_masks_by_brute_force(L, j)
        assert packed == sum(1 << k * n + h for k, h in orbit)
        assert demand == sum(1 << k * n + h for k, h in want_demand)
        rows = {}
        for k, h in want_demand:
            rows[k] = rows.get(k, 0) | 1 << h
        assert edges == sorted(rows.items())
        assert need == sum(1 << i for i in want_need)
        assert len(dict(implied)) == len(implied)
        assert dict(implied) == {1 << b: sum(1 << i for i in a) for b, a in want_implied.items()}


def test_tr_c4xc4_count_by_streaming():
    """|Tr(C4xC4)| = 610,108 over 54 pair orbits, counted without holding
    the systems."""
    L = subgroup_lattice(make_group("C4xC4"))
    assert len(L.pair_orbits) == 54
    assert sum(1 for _ in _systems(L, 54)) == 610108
