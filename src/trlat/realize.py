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
was built; a group without data raises `NoRealizabilityData`.  A universe
over C_n is one int, its class bitmask (see `universe`), and no other module
reads its bits.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from importlib import resources

from .groups import MAX_ORDER, FiniteGroup, check_order, cyclic_group, is_prime
from .lattice import SubgroupLattice, subgroup_lattice
from .transfer import (SearchBoundExceeded, TransferSystem, generate, is_saturated,
                       irreducible_pairs, join)

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


# -- universes over C_n -------------------------------------------------------

def _check_int(what: str, value, least: int) -> None:
    """Refuse a value that is not an int (a bool is not one) or is below least."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


def universe(n: int, residues) -> int:
    """The universe over C_n holding the given residues, as its class bitmask.

    A universe is an index set I of Z/n with 0 in I and -I = I; member i
    stands for infinitely many copies of the rotation representation of
    label i.  Its class bitmask u has bit c-1 (1 <= c <= n//2) set when c
    and -c are in I.  The residues are reduced mod n, 0 is added, and I is
    closed under negation.
    """
    _check_int("modulus n", n, 1)
    u = 0
    for i in residues:
        c = min(i % n, -i % n)
        if c:
            u |= 1 << c - 1
    return u


def index_set(n: int, u: int) -> list[int]:
    """The sorted index set of universe u over C_n: 0, and c and -c mod n
    for each set bit c-1 of u.  Anything but the class bitmask of a universe
    over C_n is refused."""
    _check_int("modulus n", n, 1)
    if type(u) is not int:
        raise TypeError(f"a universe over C{n} is an int class bitmask, got {type(u).__name__}")
    if not 0 <= u < 1 << n // 2:
        raise ValueError(f"universe {u} is outside 0 <= u < {1 << n // 2} for C{n}")
    return sorted({0} | {r for c in range(1, n // 2 + 1) if u >> c - 1 & 1
                         for r in (c, n - c)})


# -- the embedding (Steiner-type) map -----------------------------------------

def _cyclic_lattice(n: int) -> tuple[SubgroupLattice, dict[int, int]]:
    """The subgroup lattice of C_n, and the index of its one subgroup of each order."""
    L = subgroup_lattice(cyclic_group(n))
    return L, {L.order_of(s): s for s in range(L.n)}


def steiner_cyclic(n: int, u: int) -> TransferSystem:
    """Embedding-map value on C_n for universe u.

    Generated by (ker lambda(i), C_n) over i in the index set; the kernel of
    the label-i rotation is the unique subgroup of order gcd(i, n).
    """
    I = index_set(n, u)
    L, of_order = _cyclic_lattice(n)
    return generate(L, {(of_order[math.gcd(n, i)], L.full) for i in I})


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
    return sorted(values, key=operator.attrgetter("key"))


# -- the isometries map --------------------------------------------------------

def linisom_cyclic(n: int, u: int) -> TransferSystem:
    """Isometries-map value on C_n for universe u.

    C_d -> C_e holds (d | e | n) iff the reduction of the index set mod e is
    invariant under translation by d.  The result is always saturated.
    """
    I = index_set(n, u)
    L, _ = _cyclic_lattice(n)
    pairs = []
    for k, h in L.proper_pairs:
        d, e = L.order_of(k), L.order_of(h)
        reduced = {i % e for i in I}
        if {(x + d) % e for x in reduced} == reduced:
            pairs.append((k, h))
    return TransferSystem.from_pairs(L, pairs)


def linisom_image_cyclic(n: int) -> list[TransferSystem]:
    """All isometries-map values on C_n, over every universe.

    The universes are decided all at once, as bit positions: bit u of a
    bitmap stands for universe u.  Per divisor e > 1, member[y] is the
    bitmap of universes whose reduction mod e holds y, and the pair (d, e)
    holds on the universes where no member[y] differs from member[y + d].
    Refining the partition of all universes by each pair's bitmap leaves
    one cell per distinct value.  Refused above UNIVERSE_SCAN_LIMIT universes.
    """
    _check_int("modulus n", n, 1)
    if 1 << n // 2 > UNIVERSE_SCAN_LIMIT:
        raise SearchBoundExceeded(f"C{n} has {1 << n // 2} universes, above "
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
    return sorted({TransferSystem.from_pairs(L, pairs) for _, pairs in cells},
                  key=operator.attrgetter("key"))


def linisom_image(L: SubgroupLattice) -> tuple[list[TransferSystem], int]:
    """The distinct isometries-map values, sorted, and the number of universes
    they come from: the scan for a cyclic group, fixture rows for a catalog
    group."""
    G = L.group
    if G.kind == "cyclic":
        return linisom_image_cyclic(G.order), 1 << G.order // 2
    rows = linisom_fixture(L)
    return sorted({row.system for row in rows}, key=operator.attrgetter("key")), len(rows)


# -- constructing realizing universes ------------------------------------------

def cpn_modulus(p: int, n: int) -> int:
    """p^n, checked before any group of that order is built: p must be prime,
    n >= 0 and p^n at most MAX_ORDER.  The sizes are bounded first, so that
    is_prime divides only up to √MAX_ORDER and p ** n is never computed huge."""
    _check_int("p", p, 2)
    check_order(p, f"p = {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_int("exponent n", n, 0)
    # p >= 2, so every n from MAX_ORDER.bit_length() on is past the limit
    check_order(p ** min(n, MAX_ORDER.bit_length()), f"C{p}^{n}")
    return p ** n


def cpq_modulus(p: int, q: int) -> int:
    """pq, checked before any group of that order is built: p < q, both prime
    and pq at most MAX_ORDER.  As in cpn_modulus, the sizes are bounded before
    is_prime divides: p before its own test, pq before q's."""
    _check_int("p", p, 2)
    _check_int("q", q, 2)
    check_order(p, f"p = {p}")
    if p < q and is_prime(p):
        check_order(p * q, f"C{p * q}")
    if not (is_prime(p) and is_prime(q) and p < q):
        raise ValueError(f"need primes p < q, got ({p}, {q})")
    return p * q


def realize_saturated(T: TransferSystem) -> int | NotRealizable:
    """A universe whose isometries-map value is the saturated system T on C_n,
    or a NotRealizable verdict; n is read from T's group.

    For n = p^e, the universe holds the signed sums +-(a_1 p^{k_1} + ... +
    a_m p^{k_m}) with 0 <= a_i < p over the exponents k_i of T's irreducible
    relations.  For n = pq with primes p < q, it comes from a table with one
    index set per saturated shape; the single-edge system into C_q is out of
    reach when p <= 3, and the one into C_p also when (p, q) = (2, 3).  The
    round trip through linisom_cyclic is checked: a miss is a bug, raised as
    `AssertionError`.  Any other n raises `NoRealizabilityData`.
    """
    L = T.lattice
    if L.group.kind != "cyclic":
        raise ValueError(f"system lives on {L.group.name}, which was not built as C_n")
    n = L.group.order
    primes = [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]
    if len(primes) > 2 or len(primes) == 2 and n != primes[0] * primes[1]:
        raise NoRealizabilityData(f"no realizing construction for C{n}: {n} is neither "
                                  "a prime power nor a product of two distinct primes")
    if not is_saturated(T):
        raise ValueError("system is not saturated; isometries-map values always are")
    if len(primes) == 2:
        p, q = primes
        # the seven saturated systems, keyed by the orders in their pairs: the
        # shape's name and an index set realizing it
        shapes = {
            frozenset(): ("trivial", {0}),
            frozenset({(1, p)}): ("indp", range(-(p // 2), p // 2 + 1)),
            frozenset({(1, q)}): ("indq", {0, 1, -1} | {p * t for t in range(q)}),
            frozenset({(1, p), (1, q)}): ("indpq", range(-(q // 2), q // 2 + 1)),
            frozenset({(1, q), (p, n)}): ("indpqp", {p * t for t in range(q)}),
            frozenset({(1, p), (q, n)}): ("indpqq", {q * t for t in range(p)}),
            frozenset({(1, p), (1, q), (1, n), (p, n), (q, n)}): ("complete", range(n)),
        }
        shape, residues = shapes[frozenset((L.order_of(k), L.order_of(h)) for k, h in T.pairs())]
        if shape == "indq" and p <= 3:
            return NotRealizable("indq", f"the single transfer 1 -> C{q} needs p > 3; "
                                         f"here p = {p}")
        if shape == "indp" and (p, q) == (2, 3):
            return NotRealizable("indp", "the single transfer 1 -> C2 is out of reach "
                                         "over C6")
    else:
        p = min(primes, default=1)  # C1 has no relations to read p from
        levels = [round(math.log(L.order_of(k), p)) for k, h in irreducible_pairs(T)]
        residues = {sum(a * p ** k for a, k in zip(digits, levels))
                    for digits in itertools.product(range(p), repeat=len(levels))}
    u = universe(n, residues)
    if linisom_cyclic(n, u) != T:
        raise AssertionError(f"index set {index_set(n, u)} for {T!r} fails the round trip")
    return u


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
    if k == h or not L.incl[k] >> h & 1:
        raise ValueError(f"need {L.names[k]} strictly below {L.names[h]}")
    candidates = [s for entry in catalog(L) for s, _ in entry.orb_pairs
                  if L.incl[k] >> s & 1 and not L.incl[h] >> s & 1]
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
