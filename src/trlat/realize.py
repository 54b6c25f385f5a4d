"""Realizability of transfer systems by geometric operad families.

Two maps out of the cube of universes are computed: the "embedding" map
(here: steiner_*), whose value on a universe is the join in Tr(G) of the
systems its irreducible summands generate from their orbit data, and the
"isometries" map (linisom_*), which for cyclic groups is decided by the
translation-invariance criterion on reduced index sets.  `catalog` is the
one source of summands: an abelian group's come from its proper cocyclic
subgroups.  K4's isometries values, and both maps for Q8 and Sym3, ship as
fixture tables; the module refuses to approximate any other group.  Which
fixture data a group has is decided by `_fixture` alone, from how the group
was built; a group without data raises `NoRealizabilityData`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from importlib import resources

from .groups import FiniteGroup, cyclic_group, is_prime
from .lattice import SubgroupLattice, subgroup_lattice
from .transfer import (SearchBoundExceeded, TransferSystem, generate, in_key_order,
                       is_saturated, irreducible_pairs, join)
from .universes import CyclicUniverseIndexSet, index_set_count, lambda_kernel_order

# 2^(n // 2) universes over C_n: the scan reaches every n <= 43
UNIVERSE_SCAN_LIMIT = 1 << 21
# 2^k subsets of k embedding-map summands, or of k minimal-universe candidate
# kernels: C2xC2xC6, with 15 summands, is the largest abelian group of order <= 24
STEINER_SUBSET_LIMIT = 1 << 15


class NoRealizabilityData(ValueError):
    """Raised for a group that the asked realizability map has no data for."""


@dataclass(frozen=True)
class RepCatalogEntry:
    """One irreducible summand and its orbit pairs, all targeting G."""

    rep: str
    orb_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LinIsomFixtureRow:
    """Isometries-map value for one universe, given by its summand names."""

    universe: tuple[str, ...]
    system: TransferSystem


@dataclass(frozen=True)
class NotRealizable:
    """Verdict for a saturated system outside the isometries image."""

    tag: str
    reason: str


# -- fixtures -----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fixture_data() -> dict:
    """The shipped tables; the tests check them against FIXTURES_SCHEMA."""
    with resources.files("trlat").joinpath("data/fixtures.json").open() as fh:
        return json.load(fh)


def _resolve_pairs(L: SubgroupLattice, pairs) -> list[tuple[int, int]]:
    return [(L.resolve_name(k), L.resolve_name(h)) for k, h in pairs]


def _fixture(G: FiniteGroup, what: str, also: str = "") -> dict:
    """The fixture entry of a group built by its catalog constructor, found
    from `kind` and `spec`, never the name.  Any other group has no `what`
    data; the refusal names the groups that have it, after `also` if given."""
    groups = _fixture_data()["groups"]
    name = G.spec["name"] if G.kind == "builtin" else None
    if name not in groups:
        supported = ", ".join(groups)
        raise NoRealizabilityData(f"no {what} data for {G.name}; supported: "
                                  + (f"{also} and {supported}" if also else supported))
    return groups[name]


def catalog(L: SubgroupLattice) -> tuple[RepCatalogEntry, ...]:
    """Nontrivial irreducible summands with their orbit pairs: the one source
    of embedding-map summands.

    An abelian group has one summand per proper cocyclic subgroup H, the
    character with kernel H, named sigma_H with H's display name unbracketed
    (sigma_a, sigma_b, sigma_c for K4) and orbit pair (H, G): for abelian G
    the Steiner-realized systems are those generated by cyclic orbits.  Q8
    and Sym3 entries are fixture data.
    """
    if L.group.is_abelian:
        return tuple(RepCatalogEntry(f"sigma_{L.names[s].strip('<>')}", ((s, L.full),))
                     for s in range(L.n - 1) if L.cocyclic[s])
    raw = _fixture(L.group, "embedding-map", "abelian groups")["catalog"]
    return tuple(RepCatalogEntry(e["rep"], tuple(_resolve_pairs(L, e["orb"]))) for e in raw)


def linisom_fixture(L: SubgroupLattice) -> tuple[LinIsomFixtureRow, ...]:
    """Fixture table of isometries-map values, one row per universe.

    Each row's pair set must already be a transfer system (`from_pairs`
    checks it on load); the tests check that every row is saturated.
    """
    rows = _fixture(L.group, "isometries-map", "cyclic groups")["linisom"]
    return tuple(LinIsomFixtureRow(tuple(row["universe"]),
                                   TransferSystem.from_pairs(L, _resolve_pairs(L, row["pairs"])))
                 for row in rows)


def unrealized_fixture(L: SubgroupLattice) -> tuple[TransferSystem, ...]:
    """Orbit representatives of systems hit by neither realizability map."""
    reps = _fixture(L.group, "unrealized-system")["unrealized_orbit_reps"]
    return tuple(TransferSystem.from_pairs(L, _resolve_pairs(L, pairs)) for pairs in reps)


# -- the embedding (Steiner-type) map -----------------------------------------

def _cyclic_lattice(n: int) -> tuple[SubgroupLattice, dict[int, int]]:
    """The subgroup lattice of C_n, and the index of its one subgroup of each order."""
    L = subgroup_lattice(cyclic_group(n))
    return L, {L.order_of(s): s for s in range(L.n)}


def steiner_cyclic(n: int, index_set) -> TransferSystem:
    """Embedding-map value on C_n for the universe with the given index set.

    Generated by (ker lambda(i), C_n) over i in the set; the kernel of the
    label-i rotation is the unique subgroup of order gcd(i, n).
    """
    I = _as_index_set(n, index_set)
    L, of_order = _cyclic_lattice(n)
    pairs = {(of_order[lambda_kernel_order(n, i)], L.full) for i in I.members}
    return generate(L, pairs)


def steiner_image(L: SubgroupLattice) -> list[TransferSystem]:
    """All embedding-map values, deduplicated and sorted.

    One value per subset of summands, the system generated by the union of
    their orbit pairs.  That is the join of the systems each summand
    generates, since generate(A | B) is the smallest system holding both
    generate(A) and generate(B); so each summand joins its system into
    every value found so far.  The summands are `catalog`'s.  Refused before
    any generation above STEINER_SUBSET_LIMIT subsets.
    """
    summands = [entry.orb_pairs for entry in catalog(L)]
    if 1 << len(summands) > STEINER_SUBSET_LIMIT:
        raise SearchBoundExceeded(
            f"{L.group.name} has {len(summands)} embedding-map summands, "
            f"{1 << len(summands)} subsets, above the subset limit {STEINER_SUBSET_LIMIT}")
    values = {TransferSystem.diagonal(L)}
    for summand in summands:
        g = generate(L, summand)
        values |= {join(T, g) for T in values}
    return in_key_order(values)


# -- the isometries map --------------------------------------------------------

def _as_index_set(n: int, index_set) -> CyclicUniverseIndexSet:
    if isinstance(index_set, CyclicUniverseIndexSet):
        if index_set.modulus != n:
            raise ValueError(f"index set has modulus {index_set.modulus}, expected {n}")
        return index_set
    return CyclicUniverseIndexSet.canonical(n, index_set)


def linisom_cyclic(n: int, index_set) -> TransferSystem:
    """Isometries-map value on C_n for the given index set.

    C_d -> C_e holds (d | e | n) iff the reduction of the index set mod e is
    invariant under translation by d.  The result is always saturated.
    """
    I = _as_index_set(n, index_set)
    L, _ = _cyclic_lattice(n)
    pairs = []
    for k, h in L.proper_pairs:
        d, e = L.order_of(k), L.order_of(h)
        reduced = I.reduction(e)
        if {(x + d) % e for x in reduced} == reduced:
            pairs.append((k, h))
    return TransferSystem.from_pairs(L, pairs)


def linisom_image_cyclic(n: int) -> list[TransferSystem]:
    """All isometries-map values on C_n, over every index set.

    The universes are decided all at once, as bit positions: universe u is
    {0} with the negation classes {c, -c} for which bit c-1 of u is set.
    Per divisor e > 1, member[y] is the bitmap of universes whose reduction
    mod e holds y, and the pair (d, e) holds on the universes where no
    member[y] differs from member[y + d].  Refining the partition of all
    universes by each pair's bitmap leaves one cell per distinct value.
    Refused above UNIVERSE_SCAN_LIMIT universes.
    """
    if index_set_count(n) > UNIVERSE_SCAN_LIMIT:
        raise SearchBoundExceeded(f"C{n} has {index_set_count(n)} universes, above "
                                  f"the scan limit {UNIVERSE_SCAN_LIMIT}")
    # bit u of columns[c - 1] is bit c-1 of u, built by doubling the universe count
    every, columns = 1, []
    for b in range(n // 2):
        width = 1 << b
        columns = [col | col << width for col in columns] + [every << width]
        every |= every << width
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    L, of_order = _cyclic_lattice(n)
    # each cell: universes, and the pairs held by every one of them
    cells = [(every, ())]
    for e in divisors[1:]:
        member = [0] * e
        for c, col in enumerate(columns, 1):
            member[c % e] |= col
            member[-c % e] |= col
        member[0] = every
        for d in divisors:
            if d >= e or e % d:
                continue
            moved = functools.reduce(operator.or_,
                                     map(operator.xor, member, member[d:] + member[:d]))
            holds = every & ~moved
            pair = (of_order[d], of_order[e])
            refined = []
            for a, pairs in cells:
                C = a & holds
                if C:
                    refined.append((C, pairs + (pair,)))
                if a != C:
                    refined.append((a ^ C, pairs))
            cells = refined
    return in_key_order({TransferSystem.from_pairs(L, pairs) for _, pairs in cells})


def linisom_image(L: SubgroupLattice) -> tuple[list[TransferSystem], int]:
    """The distinct isometries-map values, sorted, and the number of universes
    they come from: the scan for a cyclic group, fixture rows for a catalog
    group."""
    G = L.group
    if G.kind == "cyclic":
        return linisom_image_cyclic(G.order), index_set_count(G.order)
    rows = linisom_fixture(L)
    return in_key_order({row.system for row in rows}), len(rows)


# -- constructing realizing universes ------------------------------------------

def cpn_modulus(p: int, n: int) -> int:
    """p^n, checked before any group of that order is built: p must be prime
    and n >= 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError(f"exponent n must be >= 0, got {n}")
    return p ** n


def cpq_modulus(p: int, q: int) -> int:
    """pq, checked before any group of that order is built: p < q, both prime."""
    if not (is_prime(p) and is_prime(q) and p < q):
        raise ValueError(f"need primes p < q, got ({p}, {q})")
    return p * q


def realize_saturated_cpn(p: int, n: int, T: TransferSystem) -> CyclicUniverseIndexSet:
    """Index set whose isometries-map value is the given saturated system.

    Built from the exponents k_i of T's irreducible relations as all signed
    sums +-(a_1 p^{k_1} + ... + a_m p^{k_m}) with 0 <= a_i < p.  The round
    trip through linisom_cyclic is checked before returning.
    """
    modulus = cpn_modulus(p, n)
    if T.lattice.group.spec != {"kind": "cyclic", "n": modulus}:
        raise ValueError(f"system lives on {T.lattice.group.name}, expected C{modulus}")
    if not is_saturated(T):
        raise ValueError("system is not saturated; isometries-map values always are")
    levels = sorted(round(math.log(T.lattice.order_of(k), p))
                    for k, h in irreducible_pairs(T))
    members = {0}
    for digits in itertools.product(range(p), repeat=len(levels)):
        total = sum(a * p ** k for a, k in zip(digits, levels))
        members.add(total % modulus)
        members.add(-total % modulus)
    I = CyclicUniverseIndexSet.canonical(modulus, members)
    back = linisom_cyclic(modulus, I)
    if back != T:
        raise AssertionError(f"round trip failed for {T!r} with {I!r}")
    return I


def _shape_of_cpq(T: TransferSystem, p: int, q: int) -> str:
    by_order = {(T.lattice.order_of(k), T.lattice.order_of(h)) for k, h in T.pairs()}
    shapes = {
        frozenset(): "trivial",
        frozenset({(1, p)}): "indp",
        frozenset({(1, q)}): "indq",
        frozenset({(1, p), (1, q)}): "indpq",
        frozenset({(1, q), (p, p * q)}): "indpqp",
        frozenset({(1, p), (q, p * q)}): "indpqq",
        frozenset({(1, p), (1, q), (1, p * q), (p, p * q), (q, p * q)}): "complete",
    }
    try:
        return shapes[frozenset(by_order)]
    except KeyError:
        raise AssertionError(f"unexpected saturated shape {sorted(by_order)}") from None


def realize_saturated_cpq(p: int, q: int, T: TransferSystem):
    """Index set realizing a saturated system on C_pq, or a NotRealizable tag.

    The single-edge system into C_q is out of reach when p <= 3, and the one
    into C_p additionally when (p, q) = (2, 3); everything else comes from an
    explicit index-set table, verified by round trip: a miss is a bug in the
    table, raised as `AssertionError`.
    """
    n = cpq_modulus(p, q)
    if T.lattice.group.spec != {"kind": "cyclic", "n": n}:
        raise ValueError(f"system lives on {T.lattice.group.name}, expected C{n}")
    if not is_saturated(T):
        raise ValueError("system is not saturated; isometries-map values always are")
    shape = _shape_of_cpq(T, p, q)
    if shape == "indq" and p <= 3:
        return NotRealizable("indq", f"the single transfer 1 -> C{q} needs p > 3; "
                                     f"here p = {p}")
    if shape == "indp" and (p, q) == (2, 3):
        return NotRealizable("indp", "the single transfer 1 -> C2 is out of reach "
                                     "over C6")
    table = {
        "trivial": {0},
        "indp": set(range(-(p // 2), p // 2 + 1)),
        "indpq": set(range(-(q // 2), q // 2 + 1)),
        "indpqp": {p * t for t in range(q)},
        "indpqq": {q * t for t in range(p)},
        "indq": {0, 1, -1} | {p * t for t in range(q)},
        "complete": set(range(n)),
    }
    I = CyclicUniverseIndexSet.canonical(n, table[shape])
    if linisom_cyclic(n, I) != T:
        raise AssertionError(f"table index set {I!r} for shape {shape} on C{n} "
                             "fails the round trip")
    return I


def minimal_steiner_universe(L: SubgroupLattice, k: int, h: int) -> list[tuple[int, ...]]:
    """All minimal cocyclic-kernel sets whose embedding map admits K -> H.

    Returns every set {H_1, ..., H_m} of distinct kernels of `catalog`
    summands, the proper cocyclic subgroups, with H n H_1 n ... n H_m = K
    such that omitting any one H_i strictly enlarges the intersection.  Each
    H_i contains K, and one containing H could be omitted, so only kernels
    s with K <= s and H not <= s are candidates.  Refused before any search
    above STEINER_SUBSET_LIMIT candidate subsets.
    """
    if not L.group.is_abelian:
        raise ValueError(f"{L.group.name} is not abelian")
    if k == h or not L.includes[k][h]:
        raise ValueError(f"need {L.names[k]} strictly below {L.names[h]}")
    candidates = [s for entry in catalog(L) for s, _ in entry.orb_pairs
                  if L.includes[k][s] and not L.includes[h][s]]
    if 1 << len(candidates) > STEINER_SUBSET_LIMIT:
        raise SearchBoundExceeded(
            f"{L.group.name} has {len(candidates)} candidate kernels for "
            f"{L.names[k]} -> {L.names[h]}, {1 << len(candidates)} subsets, "
            f"above the subset limit {STEINER_SUBSET_LIMIT}")

    def intersect_with_h(combo) -> int:
        acc = h
        for s in combo:
            acc = L.intersect[acc][s]
        return acc

    out = []
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            if intersect_with_h(combo) != k:
                continue
            if all(intersect_with_h(combo[:i] + combo[i + 1:]) != k
                   for i in range(r)):
                out.append(tuple(combo))
    return sorted(out, key=lambda c: (len(c), c))
