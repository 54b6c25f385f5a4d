"""Realizability of transfer systems by geometric operad families.

Two maps out of the cube of universes are computed: the "embedding" map
(here: steiner_*), whose value on a universe is the join in Tr(G) of the
systems its irreducible summands generate from their orbit data, and the
"isometries" map (linisom_*), which for cyclic groups is decided by the
translation-invariance criterion on reduced index sets.  An abelian group
takes its summands from its proper cocyclic subgroups; K4's isometries
values, and both maps for Q8 and Sym3, ship as fixture tables; the module
refuses to approximate any other group.  Which data a group has is decided
here alone, from how it was built; a group without data raises
`NoRealizabilityData`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from importlib import resources

from .groups import FiniteGroup, cyclic_group, is_prime, make_group
from .lattice import SubgroupLattice, subgroup_lattice
from .transfer import (SearchBoundExceeded, TransferSystem, generate, in_key_order,
                       is_saturated, irreducible_pairs, join)
from .universes import (CyclicUniverseIndexSet, _negation_classes, index_set_count,
                        lambda_kernel_order)

CATALOG_GROUPS = ("K4", "Q8", "Sym3")
# 2^(n // 2) universes over C_n: the scan reaches every n <= 43
UNIVERSE_SCAN_LIMIT = 1 << 21
# 2^k summand subsets for k summands: C2xC2xC6, with 15, is the largest
# abelian group of order <= 24
STEINER_SUBSET_LIMIT = 1 << 15


class NoRealizabilityData(ValueError):
    """Raised for a group that the asked realizability map has no data for."""


@dataclass(frozen=True)
class RepCatalogEntry:
    """One irreducible summand: its orbit pairs (all targeting G) and dimension."""

    group: str
    rep: str
    orb_pairs: tuple[tuple[int, int], ...]
    dimension: int


@dataclass(frozen=True)
class LinIsomFixtureRow:
    """Isometries-map value for one universe, given by its summand names."""

    group: str
    universe: tuple[str, ...]
    system: TransferSystem

    @property
    def universe_label(self) -> str:
        return "(R+" + "+".join(self.universe) + ")^inf" if self.universe else "R^inf"


@dataclass(frozen=True)
class NotRealizable:
    """Verdict for a saturated system outside the isometries image."""

    tag: str
    reason: str


# -- fixtures -----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fixture_data() -> dict:
    from .serialize import FIXTURES_SCHEMA, validate_document
    with resources.files("trlat").joinpath("data/fixtures.json").open() as fh:
        data = json.load(fh)
    validate_document(data, FIXTURES_SCHEMA)
    return data


def _resolve_pairs(L: SubgroupLattice, pairs) -> list[tuple[int, int]]:
    return [(L.resolve_name(k), L.resolve_name(h)) for k, h in pairs]


def _require_catalog_group(name: str) -> SubgroupLattice:
    if name not in CATALOG_GROUPS:
        raise NoRealizabilityData(f"no realizability data for group {name!r}; "
                                  f"supported: {', '.join(CATALOG_GROUPS)}")
    return subgroup_lattice(make_group(name))


def _catalog_name(G: FiniteGroup, what: str, supported: str) -> str:
    """The fixture name of a catalog group as its constructor built it; any
    other group has no `what` data."""
    name = G.spec["name"] if G.kind == "builtin" else None
    if name not in CATALOG_GROUPS:
        raise NoRealizabilityData(f"no {what} data for {G.name}; supported: {supported} "
                                  "and " + ", ".join(CATALOG_GROUPS))
    return name


@functools.lru_cache(maxsize=None)
def catalog(name: str) -> tuple[RepCatalogEntry, ...]:
    """Nontrivial irreducible summands with their orbit pairs.

    K4 entries are derived from its proper cocyclic subgroups, each of index
    2 and the kernel of one sign representation; Q8 and Sym3 entries are
    fixture data.
    """
    L = _require_catalog_group(name)
    raw = _fixture_data()["groups"][name]["catalog"]
    if raw == "derived":
        entries = []
        for s in range(L.n - 1):
            if not L.cocyclic[s]:
                continue
            gen = L.names[s].strip("<>").split(",")[0]
            entries.append(RepCatalogEntry(name, f"sigma_{gen}", ((s, L.full),), 1))
        return tuple(entries)
    entries = tuple(RepCatalogEntry(name, e["rep"], tuple(_resolve_pairs(L, e["orb"])),
                                    e["dim"]) for e in raw)
    for entry in entries:
        for k, h in entry.orb_pairs:
            if h != L.full or k == L.full:
                raise AssertionError(f"catalog orbit pair for {entry.rep} must join a "
                                     "proper subgroup to the whole group")
    return entries


@functools.lru_cache(maxsize=None)
def linisom_fixture(name: str) -> tuple[LinIsomFixtureRow, ...]:
    """Fixture table of isometries-map values, one row per universe.

    Every row is validated on load: the pair set must already be a transfer
    system, and it must be saturated.
    """
    L = _require_catalog_group(name)
    rows = []
    for row in _fixture_data()["groups"][name]["linisom"]:
        system = TransferSystem.from_pairs(L, _resolve_pairs(L, row["pairs"]))
        if not is_saturated(system):
            raise AssertionError(f"fixture row {row['universe']} for {name} "
                                 "is not saturated")
        rows.append(LinIsomFixtureRow(name, tuple(row["universe"]), system))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def unrealized_fixture(name: str) -> tuple[TransferSystem, ...]:
    """Orbit representatives of systems hit by neither realizability map."""
    L = _require_catalog_group(name)
    return tuple(TransferSystem.from_pairs(L, _resolve_pairs(L, pairs))
                 for pairs in _fixture_data()["groups"][name]["unrealized_orbit_reps"])


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


def steiner_abelian(L: SubgroupLattice, kernels) -> TransferSystem:
    """Embedding-map value generated by (H_i, G) over the given proper
    cocyclic subgroup indices H_i of an abelian group."""
    if not L.group.is_abelian:
        raise ValueError(f"{L.group.name} is not abelian")
    kernels = sorted(set(kernels))
    for s in kernels:
        if s == L.full or not L.cocyclic[s]:
            raise ValueError(f"subgroup {L.names[s]} is not proper cocyclic")
    return generate(L, [(s, L.full) for s in kernels])


def steiner_image(L: SubgroupLattice) -> list[TransferSystem]:
    """All embedding-map values, deduplicated and sorted.

    One value per subset of summands, the system generated by the union of
    their orbit pairs.  That is the join of the systems each summand
    generates, since generate(A | B) is the smallest system holding both
    generate(A) and generate(B); so each summand joins its system into
    every value found so far.  An abelian group has one summand ((H, G),)
    per proper cocyclic H; a catalog group takes its summands from
    `catalog`.  Refused before any generation above STEINER_SUBSET_LIMIT
    subsets.
    """
    if L.group.is_abelian:
        summands = [((s, L.full),) for s in range(L.n - 1) if L.cocyclic[s]]
    else:
        name = _catalog_name(L.group, "embedding-map", "abelian groups")
        summands = [entry.orb_pairs for entry in catalog(name)]
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
    T = TransferSystem.from_pairs(L, pairs)
    assert is_saturated(T)
    return T


def _unions(base: int, parts) -> list[int]:
    """base | (the OR of S) for every subset S of parts; subset j, as a bit
    vector over parts, at position j."""
    masks = [base]
    for part in parts:
        masks += [m | part for m in masks]
    return masks


def _stabilizer_table(e: int, order_pairs) -> dict[int, int]:
    """Signature bits of the pairs (d, e) that each reduced index set mod e
    satisfies, keyed by its bitmask.

    Only masks invariant under translation by e/p, for a prime p | e, get an
    entry: the negation-closed unions, containing 0, of cosets of the order-p
    subgroup.  That is exact, since invariance under d < e with d | e implies
    invariance under e/p for each prime p | e/d, a multiple of d; every other
    mask satisfies no pair.
    """
    full = (1 << e) - 1
    targets = [(idx, d) for idx, (d, f) in enumerate(order_pairs) if f == e]
    table = {}
    for p in range(2, e + 1):
        if e % p or not is_prime(p):
            continue
        m = e // p
        # the class {j, -j} of Z/m lifted to Z/e, j = 0 first
        lifted = [sum(1 << x for x in range(e) if x % m in (j, m - j))
                  for j in range(m // 2 + 1)]
        for mask in _unions(lifted[0], lifted[1:]):
            table[mask] = sum(1 << idx for idx, d in targets
                              if ((mask << d | mask >> (e - d)) & full) == mask)
    return table


def linisom_image_cyclic(n: int) -> list[TransferSystem]:
    """All isometries-map values on C_n, over every index set.

    An index set's value depends only on its reduction mod each divisor
    e > 1, looked up in that divisor's `_stabilizer_table`; the signature is
    the OR of the lookups.  An index set is a subset of the first 12
    negation classes (low) joined with a subset of the rest (high); each high
    subset takes one pass of lookups over every low one, so the masks held
    per divisor stay at 2^12 plus the high subsets.  Signatures are
    deduplicated before any transfer system is materialized.  Refused above
    UNIVERSE_SCAN_LIMIT universes.
    """
    if index_set_count(n) > UNIVERSE_SCAN_LIMIT:
        raise SearchBoundExceeded(f"C{n} has {index_set_count(n)} universes, above "
                                  f"the scan limit {UNIVERSE_SCAN_LIMIT}")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    order_pairs = [(d, e) for d in divisors for e in divisors if d < e and e % d == 0]
    moduli = divisors[1:]
    tables = [_stabilizer_table(e, order_pairs) for e in moduli]
    classes = _negation_classes(n)

    def reduced(part):
        """Per modulus e, the masks mod e of {0} with every subset of `part`."""
        return [_unions(1, [sum({1 << (x % e) for x in cls}) for cls in part])
                for e in moduli]

    low, high = reduced(classes[:12]), reduced(classes[12:])
    zero = itertools.repeat(0)
    # {0} satisfies no pair; over C1, with no modulus to scan, it is the only index set
    signatures = {0}
    for his in zip(*high):
        sigs = zero
        for table, lows, hi in zip(tables, low, his):
            sigs = map(operator.or_, sigs, map(table.get, map(hi.__or__, lows), zero))
        signatures.update(sigs)
    L, of_order = _cyclic_lattice(n)
    values = set()
    for sig in signatures:
        pairs = [(of_order[d], of_order[e])
                 for idx, (d, e) in enumerate(order_pairs) if sig >> idx & 1]
        values.add(TransferSystem.from_pairs(L, pairs))
    return in_key_order(values)


def linisom_image(L: SubgroupLattice) -> tuple[list[TransferSystem], int]:
    """The distinct isometries-map values, sorted, and the number of universes
    they come from: the scan for a cyclic group, fixture rows for a catalog
    group."""
    G = L.group
    if G.kind == "cyclic":
        return linisom_image_cyclic(G.order), index_set_count(G.order)
    rows = linisom_fixture(_catalog_name(G, "isometries-map", "cyclic groups"))
    return in_key_order({row.system for row in rows}), len(rows)


# -- constructing realizing universes ------------------------------------------

def realize_saturated_cpn(p: int, n: int, T: TransferSystem) -> CyclicUniverseIndexSet:
    """Index set whose isometries-map value is the given saturated system.

    Built from the exponents k_i of T's irreducible relations as all signed
    sums +-(a_1 p^{k_1} + ... + a_m p^{k_m}) with 0 <= a_i < p.  The round
    trip through linisom_cyclic is checked before returning.
    """
    modulus = p ** n
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
    if not (is_prime(p) and is_prime(q) and p < q):
        raise ValueError(f"need primes p < q, got ({p}, {q})")
    if T.lattice.group.spec != {"kind": "cyclic", "n": p * q}:
        raise ValueError(f"system lives on {T.lattice.group.name}, expected C{p * q}")
    if not is_saturated(T):
        raise ValueError("system is not saturated; isometries-map values always are")
    n = p * q
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

    Returns every set {H_1, ..., H_m} of distinct proper cocyclic subgroups
    with H n H_1 n ... n H_m = K such that omitting any one H_i strictly
    enlarges the intersection.
    """
    if not L.group.is_abelian:
        raise ValueError(f"{L.group.name} is not abelian")
    if k == h or not L.includes[k][h]:
        raise ValueError(f"need {L.names[k]} strictly below {L.names[h]}")
    candidates = [s for s in range(L.n - 1) if L.cocyclic[s]]

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
