"""Transfer systems: relation closure, validation, enumeration, lattice ops.

A transfer system over n subgroups is one int: bit k*n + h means the
relation K_k -> H_h holds (canonical lattice indices).
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple
from .lattice import STEP_LIMIT, SearchBoundExceeded, SubgroupLattice


class TransferSystemError(ValueError):
    """Raised for relations that violate the transfer-system axioms."""


class Violation(NamedTuple):
    axiom: str
    pair: tuple[int, int]
    forced_by: tuple[int, int] | None = None

    def describe(self, L: SubgroupLattice) -> str:
        k, h = self.pair
        msg = f"{self.axiom} violation at ({L.names[k]}, {L.names[h]})"
        if self.forced_by is not None:
            a, b = self.forced_by
            msg += f" forced by ({L.names[a]}, {L.names[b]})"
        return msg


class TransferSystem:
    """An immutable transfer system over a subgroup lattice of n subgroups,
    held as one int: bit k*n + h stands for the pair (k, h).  The constructor
    refuses an int that is not a transfer system; the library wraps those it
    builds by `_wrap`, unchecked."""

    __slots__ = ("lattice", "bits")

    def __init__(self, lattice: SubgroupLattice, bits: int):
        if type(bits) is not int or bits < 0 or bits >> lattice.n ** 2:
            raise TransferSystemError(f"bits must be an int in [0, 2^{lattice.n ** 2}), "
                                      f"a bit per pair of {lattice.group.name}'s subgroups")
        violations = _violations(lattice, bits)
        if violations:
            raise TransferSystemError(
                "not a transfer system: "
                + "; ".join(v.describe(lattice) for v in violations))
        self.lattice = lattice
        self.bits = bits

    @classmethod
    def diagonal(cls, lattice: SubgroupLattice) -> "TransferSystem":
        return _wrap(lattice, _packing(lattice.n)[0])

    @classmethod
    def maximum(cls, lattice: SubgroupLattice) -> "TransferSystem":
        return _wrap(lattice, _tables(lattice).maximum)

    @classmethod
    def from_pairs(cls, lattice: SubgroupLattice, pairs) -> "TransferSystem":
        """Wrap an explicit pair set; raises unless it is already closed."""
        return cls(lattice, _bits_of(lattice, pairs))

    @property
    def rows(self) -> tuple[int, ...]:
        """One int per subgroup: bit h of rows[k] stands for the pair (k, h)."""
        return _unpack(self.bits, self.lattice.n)

    def contains(self, k: int, h: int) -> bool:
        return bool(self.bits >> k * self.lattice.n + h & 1)

    def pairs(self) -> list[tuple[int, int]]:
        """Nontrivial related pairs, sorted."""
        n = self.lattice.n
        bits = self.bits & ~_packing(n)[0]
        out = []
        while bits:
            low = bits & -bits
            out.append(divmod(low.bit_length() - 1, n))
            bits ^= low
        return out

    def pair_count(self) -> int:
        return (self.bits & ~_packing(self.lattice.n)[0]).bit_count()

    @property
    def key(self) -> str:
        """Bit string, bit k*n + h first to last: the order of every list of
        systems the library returns, and the node names of a DOT export."""
        n = self.lattice.n
        return format(self.bits, f"0{n * n}b")[::-1]

    def refines(self, other: "TransferSystem") -> bool:
        return self.bits & ~other.bits == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransferSystem) and self.bits == other.bits
                and (self.lattice is other.lattice
                     or self.lattice.fingerprint == other.lattice.fingerprint))

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        named = [f"({self.lattice.names[k]}->{self.lattice.names[h]})"
                 for k, h in self.pairs()]
        return f"TransferSystem({self.lattice.group.name}: {' '.join(named) or 'diagonal'})"


def _wrap(L: SubgroupLattice, bits: int) -> TransferSystem:
    """The TransferSystem over L holding bits that the library built: unchecked."""
    T = object.__new__(TransferSystem)
    T.lattice, T.bits = L, bits
    return T


# -- validation ---------------------------------------------------------------

class _Tables:
    """What validation, closure and the Tr(G) walk need of a lattice over n
    subgroups; pairs are indexed k*n + h, their bit in a packed system.

    maximum: the packed inclusion relation, every pair (k, h) with K_k <= H_h.

    The rest is built on first use, since one mask is an n^2-bit int and a
    large lattice has many orbits; an entry is falsy until built, read as
    `orbits[j] or self._orbit(j)` and so on, and its builder stores it.
    orbits[j]: (packed, demand, edges, need, implied).  packed holds orbit
      j's pairs, demand those the conjugation and restriction axioms ask of
      a system holding them: the restrictions (L_l n K_k, L_l), L_l <= H_h,
      of its members (k, h), which hold orbit j itself (l = h).
      edges are demand's nonzero (row, bits), which `_close` takes; every
      pair of an orbit closes to the same system.  need and implied are
      what `enumerate_all` tests on orbit masks, bit i for orbit i: need
      has the orbits of demand outside orbit j and the diagonal; implied
      holds one (1 << b, a) per orbit b of a pair (x, h) with (k, h) in
      orbit j, x != k and K_x <= K_k, a the orbit bits of those (x, k).
    conjugates[k*n + h]: for a pair `_violations` lists, its conjugates
      (c[k], c[h]) in L.inner order with repeats dropped: the tuples
      L.pair_orbits holds, so a listing adds only references.
    generated[j]: the packed system orbit j generates.
    packed_bytes[i]: the `_byte_table` of the packed orbits 8i to 8i + 7,
      from which `SystemList` builds a system, one entry per mask byte.
    spans[a][b]: the OR of blocks[a:b], blocks[i] holding the orbits whose
      need holds orbit i, from which `enumerate_all` takes the candidates
      that pass its first test.  It is built from every orbit's entry, so
      only by the walk, once its bound check has passed.
    """

    __slots__ = ("lattice", "maximum", "orbits", "conjugates", "generated", "spans", "packed_bytes")

    def __init__(self, L: SubgroupLattice):
        self.lattice = L
        self.maximum = sum(r << k * L.n for k, r in enumerate(L.incl))
        m = len(L.pair_orbits)
        self.orbits, self.generated = [()] * m, [0] * m
        self.conjugates: dict[int, tuple[tuple[int, int], ...]] = {}
        self.spans = self.packed_bytes = None

    def _orbit(self, j: int) -> tuple:
        L, n = self.lattice, self.lattice.n
        orbit, orbit_of = L.pair_orbits[j], L.orbit_of
        packed = sum(1 << k * n + h for k, h in orbit)
        demand, implied = 0, {}
        for k, h in orbit:
            for l in L.below[h]:
                demand |= 1 << L.intersect[l][k] * n + l
            for x in L.below[k]:
                if x != k:
                    b = 1 << orbit_of[x * n + h]
                    implied[b] = implied.get(b, 0) | 1 << orbit_of[x * n + k]
        outside, need = demand & ~packed & ~_packing(n)[0], 0
        while outside:
            low = outside & -outside
            outside ^= low
            need |= 1 << orbit_of[low.bit_length() - 1]
        edges = [(i, r) for i, r in enumerate(_unpack(demand, n)) if r]
        value = self.orbits[j] = (packed, demand, edges, need, tuple(implied.items()))
        return value

    def _conjugates(self, p: int) -> tuple[tuple[int, int], ...]:
        L, n = self.lattice, self.lattice.n
        k, h = divmod(p, n)
        orbit = {pair: pair for pair in L.pair_orbits[L.orbit_of[p]]}
        pairs = self.conjugates[p] = tuple(
            orbit[q] for q in dict.fromkeys((c[k], c[h]) for c in L.inner))
        return pairs

    def _generated(self, j: int) -> int:
        n = self.lattice.n
        P = self.generated[j] = _close(_packing(n)[0], (self.orbits[j] or self._orbit(j))[2], n)
        return P

    def _packed_bytes(self) -> list[list[int]]:
        packed = [(self.orbits[j] or self._orbit(j))[0] for j in range(len(self.orbits))]
        tables = self.packed_bytes = [_byte_table(packed[at:at + 8]) for at in range(0, len(packed), 8)]
        return tables

    def _spans(self) -> list[list[int]]:
        m = len(self.lattice.pair_orbits)
        blocks = [0] * m
        for j in range(m):
            need = (self.orbits[j] or self._orbit(j))[3]
            while need:
                low = need & -need
                need ^= low
                blocks[low.bit_length() - 1] |= 1 << j
        spans = self.spans = []
        for a in range(m + 1):
            row = [0] * (m + 1)
            for b in range(a, m):
                row[b + 1] = row[b] | blocks[b]
            spans.append(row)
        return spans


def _tables(L: SubgroupLattice) -> _Tables:
    """L's tables, built on first use and kept on L, as `subgroup_lattice`
    keeps L on its group."""
    tables = getattr(L, "_tables", None)
    if tables is None:
        tables = L._tables = _Tables(L)
    return tables


def _check_indices(L: SubgroupLattice, k, h) -> None:
    if type(k) is not int or type(h) is not int:
        raise TransferSystemError(f"pair ({k!r}, {h!r}) must hold integer subgroup indices")
    if not (0 <= k < L.n and 0 <= h < L.n):
        raise TransferSystemError(
            f"pair ({k}, {h}) is out of range: {L.group.name} has {L.n} subgroups, "
            f"indexed 0 to {L.n - 1}")


def _bits_of(L: SubgroupLattice, pairs) -> int:
    """The packed diagonal plus the given pairs; raises on an index outside L."""
    P = _packing(L.n)[0]
    for k, h in pairs:
        _check_indices(L, k, h)
        P |= 1 << k * L.n + h
    return P


def _violations(L: SubgroupLattice, P: int) -> list[Violation]:
    """The axioms the packed relation P (below 2^(n*n)) breaks, each
    (axiom, pair) once, in the order of the listing loops over its rows:
    per row, reflexivity and then the pairs outside inclusion; then per held
    proper pair (k, h) in row-major order, the conjugates (c[k], c[h]) it
    lacks in L.inner order, its restrictions (L_l n K_k, L_l) it lacks
    by ascending l, and (k, h2) for each h2 that h reaches and k does not,
    ascending.

    Exact with few tests.  The first loop runs only if P lacks a reflexive
    pair or holds one outside inclusion.  A held pair's listing, its
    distinct conjugates (`_Tables.conjugates`) and then its restrictions
    (one per l in `L.below[h]`), lists only pairs P lacks, and they
    lie in its orbit's demand mask, so a pair whose orbit's mask lies
    inside P lists nothing and is not walked; its transitive steps are the
    bits of rows[h] that row k lacks.  A pair already listed for an axiom
    is not listed again: each axiom keeps its own copy of the rows, P plus
    the pairs listed for it so far, and a pair is listed iff that copy
    lacks it.
    """
    n = L.n
    tables = _tables(L)
    incl, orbit_of, below = L.incl, L.orbit_of, L.below
    orbits, conjugates = tables.orbits, tables.conjugates
    rows = _unpack(P, n)
    # tuple.__new__ skips the NamedTuple's generated __new__, the larger cost here
    new = tuple.__new__
    out: list[Violation] = []
    if _packing(n)[0] & ~P or P & ~tables.maximum:
        for k, bits in enumerate(rows):
            if not bits >> k & 1:
                out.append(new(Violation, ("reflexivity", (k, k), None)))
            outside = bits & ~incl[k]
            while outside:
                low = outside & -outside
                outside ^= low
                out.append(new(Violation,
                               ("refines-inclusion", (k, low.bit_length() - 1), None)))
    absent = ~P
    conjugated, restricted, composed = list(rows), list(rows), list(rows)
    for k, bits in enumerate(rows):
        held = bits & incl[k] & ~(1 << k)
        while held:
            low = held & -held
            held ^= low
            h = low.bit_length() - 1
            forced, p = (k, h), k * n + h
            j = orbit_of[p]
            if (orbits[j] or tables._orbit(j))[1] & absent:
                for pair in conjugates.get(p) or tables._conjugates(p):
                    a, b = pair
                    if not conjugated[a] >> b & 1:
                        conjugated[a] |= 1 << b
                        out.append(new(Violation, ("conjugation", pair, forced)))
                meets = L.intersect[k]
                for l in below[h]:
                    a = meets[l]
                    if not restricted[a] >> l & 1:
                        restricted[a] |= 1 << l
                        out.append(new(Violation, ("restriction", (a, l), forced)))
            reached = rows[h] & ~composed[k]
            if reached:
                composed[k] |= reached
                while reached:
                    low = reached & -reached
                    reached ^= low
                    out.append(new(Violation,
                                   ("transitivity", (k, low.bit_length() - 1), forced)))
    return out


def validate(L: SubgroupLattice, relation) -> list[Violation]:
    """Check the transfer-system axioms on a pair set; [] means valid."""
    return _violations(L, _bits_of(L, relation))


# -- generation (smallest transfer system containing a relation) -------------

@functools.cache
def _packing(n: int) -> tuple[int, int]:
    """The packed diagonal over n subgroups, and colbase: bit k*n of every row k."""
    return (sum(1 << k * (n + 1) for k in range(n)),
            sum(1 << k * n for k in range(n)))


def _unpack(packed: int, n: int) -> tuple[int, ...]:
    """The rows of a packed system: bit h of row k is bit k*n + h."""
    full = (1 << n) - 1
    return tuple([packed >> shift & full for shift in range(0, n * n, n)])


def _close(P: int, edges, n: int) -> int:
    """Transitive closure of a packed reflexive, transitive system P over n
    subgroups plus (source, targets) edges.

    Source by source: with J the new targets of i, every row reaching i
    (i itself included) gains all that J reaches.  This is exact because a
    transitive relation plus edges from one source i is closed by exactly
    the pairs (x, y) with x reaching i and some j in J reaching y.  Bit k*n
    of (P >> i) & colbase is set iff row k reaches i, and reach < 2^n, so
    multiplying by reach ORs it into exactly those rows, with no carries.
    """
    full = (1 << n) - 1
    colbase = _packing(n)[1]
    for i, targets in edges:
        new = targets & ~(P >> i * n)
        reach = 0
        while new:
            low = new & -new
            new ^= low
            reach |= P >> (low.bit_length() - 1) * n
        if reach:
            P |= (P >> i & colbase) * (reach & full)
    return P


def generate(L: SubgroupLattice, relation) -> TransferSystem:
    """The smallest transfer system containing the given relation.

    Closes under conjugation, then restriction, by taking the edges of each
    pair's orbit, then takes the reflexive-transitive closure.  Pairs that
    do not refine inclusion are rejected with the first offending pair named.
    The result is a transfer system because the transitive closure of a
    conjugation- and restriction-closed relation is one (Rubin, 1903.08723).

    The seeds are the indices in L.pair_orbits of the orbits the relation
    meets.  The system the largest seed generates is kept on
    `_Tables.generated`; the other seeds, in descending order, close it
    further with their edges.  A seed the system so far meets is skipped,
    which is exact: that system is a transfer system, and one holding a
    pair of an orbit holds the whole orbit and everything the orbit
    demands.  Closing a transfer system with an orbit's edges gives the
    join of the two, so the order of the seeds changes only how many are
    skipped.
    """
    n = L.n
    tables = _tables(L)
    seeds = set()
    for k, h in relation:
        _check_indices(L, k, h)
        j = L.orbit_of[k * n + h]
        if j >= 0:
            seeds.add(j)
        elif not L.incl[k] >> h & 1:
            raise TransferSystemError(
                f"pair ({L.names[k]}, {L.names[h]}) does not refine inclusion")
    if not seeds:
        return _wrap(L, _packing(n)[0])
    seeds = sorted(seeds, reverse=True)
    P = tables.generated[seeds[0]] or tables._generated(seeds[0])
    for j in seeds[1:]:
        packed, _, edges, _, _ = tables.orbits[j] or tables._orbit(j)
        if not P & packed:
            P = _close(P, edges, n)
    return _wrap(L, P)


# -- lattice operations on Tr(G) ---------------------------------------------

def _same_lattice(L: SubgroupLattice, T: TransferSystem) -> bool:
    """True if T lives over L or a lattice of the same group table, else raises."""
    if T.lattice is not L and T.lattice.fingerprint != L.fingerprint:
        raise ValueError("transfer systems live over different lattices")
    return True


def meet(T1: TransferSystem, T2: TransferSystem) -> TransferSystem:
    """Pairwise intersection; a transfer system, because each axiom asks a
    relation to be closed under a rule, and that holds for an intersection
    of closed relations."""
    _same_lattice(T1.lattice, T2)
    return _wrap(T1.lattice, T1.bits & T2.bits)


def join(T1: TransferSystem, T2: TransferSystem) -> TransferSystem:
    """Smallest transfer system containing both: the transitive closure of
    their union, which is closed under conjugation and restriction.  Only
    the rows where T2 adds pairs are closed: the closure P holds T1
    throughout, so T2's pairs already in T1 are in P."""
    _same_lattice(T1.lattice, T2)
    n = T1.lattice.n
    added = [(k, r) for k, r in enumerate(_unpack(T2.bits & ~T1.bits, n)) if r]
    return _wrap(T1.lattice, _close(T1.bits, added, n))


def is_saturated(T: TransferSystem) -> bool:
    """Horn filling: K -> H forces K -> L -> H through every K <= L <= H.
    T must be a transfer system: then K -> L holds by restriction, as
    L n K = K, so only L -> H is checked.  That is, for each proper
    inclusion K < L, every target above L that K reaches, L reaches too."""
    rows, incl = T.rows, T.lattice.incl
    return not any(rows[k] & incl[l] & ~rows[l] for k, l in T.lattice.proper_pairs)


def irreducible_pairs(T: TransferSystem) -> list[tuple[int, int]]:
    """Related pairs (K, H) with K maximal proper in H: the interval [K, H]
    holds only K and H."""
    incl, below = T.lattice.incl, T.lattice.below
    return [(k, h) for k, h in T.pairs() if sum(incl[k] >> l & 1 for l in below[h]) == 2]


# -- enumeration ---------------------------------------------------------------

# the default maximum number of inclusion-pair orbits a Tr(G) walk attempts:
# C24 (22 orbits) fits, C2xC6 (26) and Sym4 (34) are refused
SEARCH_BOUND = 24


class SystemList(Sequence):
    """Tr(G) as `enumerate_all` lists it, held as the walk's orbit masks:
    bit j of masks[i] is set iff system i holds orbit j of
    lattice.pair_orbits.  masks is an array('Q') up to 64 orbits, else a
    list of ints; an item is a TransferSystem built when it is read, and a
    slice is a SystemList."""

    __slots__ = ("lattice", "masks")

    def __init__(self, lattice: SubgroupLattice, masks):
        self.lattice, self.masks = lattice, masks

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SystemList(self.lattice, self.masks[i])
        return self._system(self.masks[i])

    def __iter__(self):
        return map(self._system, self.masks)

    def _system(self, M: int) -> TransferSystem:
        """The system whose orbit mask is M: the diagonal plus its orbits."""
        parts = _tables(self.lattice).packed_bytes or _tables(self.lattice)._packed_bytes()
        held = sum(map(list.__getitem__, parts, M.to_bytes(len(parts), "little")))
        return _wrap(self.lattice, _packing(self.lattice.n)[0] | held)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SystemList) and self.masks == other.masks
                and self.lattice.fingerprint == other.lattice.fingerprint)


def enumerate_all(L: SubgroupLattice, bound: int = SEARCH_BOUND) -> SystemList:
    """Every transfer system over L once, in TransferSystem.key order, as a
    `SystemList` of the walk's orbit masks.  Refuses, before any work on the
    orbits, if L has more than `bound` inclusion-pair orbits.  The result
    depends on the arguments alone; no environment variable is read.

    Lists each system once by Close-by-One (Outrata and Vychodil, "Fast
    algorithm for computing fixpoints of Galois connections induced by
    object-attribute relational data", Inf. Sci. 185, 2012) over the pair
    orbits.

    Tr(G) is closed under meets, so it is a closure system on the pair
    orbits, taken in L.pair_orbits order: by least pair, with subgroups by
    order.  In that order, closing a system with orbit j adds no orbit
    after j.  A restriction (L_l n K_k, L_l) of (k, h) comes at or before
    (k, h), since L_l n K_k is K_k or smaller, and if it is K_k then
    L_l <= H_h.  A composite (a, c) of (a, b) and (b, c) comes before
    (b, c)'s orbit, since A is smaller than B.

    So every system T the walk reaches by adding orbit j - 1 holds no orbit
    from j on.  For an orbit j' >= j, T closed with j' is a canonical child
    (it holds no orbit before j' that T lacks) iff it is V = T | orbit j',
    that is iff V is already closed.  Each system has one parent, and the
    walk closes nothing.

    T is closed, so V is closed iff two things hold.  First, orbit j' asks
    nothing of T: its restrictions outside itself and the diagonal lie in
    T.  Second, V is transitive.  Two pairs of j' never compose, because
    conjugates have the same source order and the same target order, and a
    proper pair's target is larger.  A pair (h, y) of T never follows a
    pair (k, h) of j', because every orbit whose sources have H's order
    comes after j'.  What is left: for each (k, h) in j', every x -> k in
    T reaches h, that is (x, h) lies in V.

    Both tests run on T's orbit mask M, bit i set iff T holds orbit i,
    which the stack carries in place of T (`_Tables.orbits`).  T holds a
    proper pair iff it holds that pair's orbit, so the demands lie in T
    iff their orbits lie in M.  For x != k, (x, k) lies in T iff its
    orbit a is in M.  Then (x, h) is a proper pair outside orbit j',
    because conjugates keep the source order and K_x is smaller than K_k,
    so (x, h) lies in V iff its orbit b is in M.

    The first test is made on all candidates at once.  blocks[i] holds the
    orbits whose need holds orbit i, and they all come after i, since a
    restriction comes at or before its pair; spans[a][b] ORs blocks[a:b]
    (`_Tables.spans`).  Orbit j' fails the first test iff some orbit i in
    its need is absent from M.  M holds no orbit from start on, so each
    i >= start is absent, and for j' >= start such an i is in [start, j')
    iff j' lies in spans[start][m]: blocks[i] for i >= j' holds only orbits
    after j'.  Each stack entry also carries blocked, the OR of blocks over
    the orbits below start that M lacks; a child at j' lacks those and
    [start, j'), so it carries blocked | spans[start][j'].  So the orbits
    from start on that pass the first test are those outside
    blocked | spans[start][m], and only the second is made one by one.

    Listing T when it is popped, its children pushed by ascending orbit,
    is a preorder taking later orbits first, which is key order: orbits are
    listed by least packed pair and a system is the diagonal plus whole
    orbits, so key order compares orbit membership from orbit 0 on, absent
    first.  T's descendants share its orbits before its start and it holds
    none after, so T is the least of them; for j1 < j2, every system below
    T | orbit j2 lacks j1 and every one below T | orbit j1 holds it.
    """
    m = len(L.pair_orbits)
    if m > bound:
        raise SearchBoundExceeded(
            f"{L.group.name} has {m} inclusion-pair orbits, above the search bound {bound}")
    tables = _tables(L)
    implied = [(tables.orbits[j] or tables._orbit(j))[4] for j in range(m)]
    spans = tables.spans or tables._spans()
    full = (1 << m) - 1
    masks = array("Q") if m <= 64 else []
    stack = [(0, 0, 0)]
    while stack:
        M, start, blocked = stack.pop()
        masks.append(M)
        span = spans[start]
        free = full >> start << start & ~(blocked | span[m])
        absent = ~M
        while free:
            low = free & -free
            free ^= low
            j = low.bit_length() - 1
            for b, a in implied[j]:
                if M & a and b & absent:
                    break
            else:
                stack.append((M | low, j + 1, blocked | span[j]))
    return SystemList(L, masks)


def hasse_diagram(L: SubgroupLattice, bound: int = SEARCH_BOUND
                  ) -> tuple[SystemList, list[tuple[int, int]]]:
    """Tr(G) as `enumerate_all` lists it, and its covers: the sorted index
    pairs (i, j) with systems[i] covered by systems[j].

    A cover of T is T joined with a pair orbit it lacks.  Any orbit i != j
    in the system orbit j generates has a smaller target, or one of the same
    order with a smaller source, so no two orbits generate each other, and
    T joined with i lies within T joined with j.  So every cover is T joined
    with a lacking orbit j whose generated system holds no other lacking
    orbit; only those are closed, and among them S is minimal iff each
    candidate orbit S holds closes T to S.  Refuses as `enumerate_all` does.
    """
    systems = enumerate_all(L, bound)
    tables = _tables(L)
    masks = []
    for j in range(len(L.pair_orbits)):
        packed, _, edges, _, _ = tables.orbits[j] or tables._orbit(j)
        masks.append((packed, edges, tables.generated[j] or tables._generated(j)))
    bits = [T.bits for T in systems]
    index = dict(zip(bits, range(len(bits))))
    covers = []
    for i, P in enumerate(bits):
        lacking = sum(packed for packed, _, _ in masks if not P & packed)
        succ = [(packed, _close(P, edges, L.n)) for packed, edges, g in masks
                if g & lacking == packed]
        for S in {N for _, N in succ}:
            if all(N == S for packed, N in succ if S & packed):
                covers.append((i, index[S]))
    covers.sort()
    return systems, covers


def _byte_table(values) -> list[int]:
    """The 256 ORs of subsets of 8 ints: entry c ORs values[b] for the bits b of c."""
    table = [0]
    for v in values:
        table += [t | v for t in table]
    return table


def aut_orbits(systems, automorphism_perms):
    """Orbit partition of systems under relabeling by the group of
    automorphisms the permutations generate.

    Returns (orbits, profile): each orbit an ascending list of indices into
    systems, the orbits ordered by their least index, and profile as (orbit
    size, count) sorted by size descending.  Raises ValueError if a
    permutation is not an automorphism of the systems' group, if the
    systems live over different lattices, if the list repeats a system, or,
    when some automorphism moves a pair orbit, if it is not closed under
    the action.  Raises SearchBoundExceeded, before any table is built,
    above STEP_LIMIT table entries: 256 per mask byte per non-inner
    subgroup permutation given, or per relabeling they generate.

    A system is the diagonal plus whole pair orbits, so its orbit mask,
    bit j for orbit j, stands for it, and the work is done on masks alone:
    a `SystemList`'s own, else each read from bits at each orbit's first
    pair.  Inner automorphisms (the subgroup permutations L.inner) fix
    every mask, so only each distinct permutation of the pair orbits
    induced by a non-inner automorphism relabels; with none but the
    identity, as for every cyclic group, each system is its own orbit.  A
    subgroup permutation p sends orbit j onto the orbit of (p[k], p[h]),
    (k, h) its first pair.  Those images are closed under composition, an
    image the closure lacks joining the generators, so a generating set
    gives the partition the whole group gives.  A mask is relabeled by
    every relabeling at once, a byte at a time, through 256-entry tables
    whose entries hold relabeling i's image in bits [i*m, (i+1)*m), m the
    number of pair orbits; each image is then one shift and one AND.
    """
    if not systems:
        return [], []
    L = systems.lattice if isinstance(systems, SystemList) else systems[0].lattice
    n, orbit_of, m = L.n, L.orbit_of, len(L.pair_orbits)
    perms = {L.subgroup_perm(sigma) for sigma in automorphism_perms} - set(L.inner)
    width = -(-m // 8)
    def check(count: int, what: str) -> None:
        if width * 256 * count > STEP_LIMIT:
            raise SearchBoundExceeded(
                f"relabeling Tr({L.group.name}) by {count} {what} needs {width} x 256 table "
                f"entries each: {width * 256 * count}, above the limit {STEP_LIMIT}")
    check(len(perms), "non-inner subgroup permutations")
    images, gens = {tuple(range(m))}, []
    for image in {tuple(orbit_of[p[k] * n + p[h]] for (k, h), *_ in L.pair_orbits) for p in perms}:
        if image not in images:
            gens.append(image)
            queue = images
            while queue:  # one breadth-first level of products at a time
                queue = {tuple(map(x.__getitem__, g)) for x in queue for g in gens} - images
                images |= queue
                check(len(images) - 1, "or more generated pair-orbit relabelings")
    images.discard(tuple(range(m)))
    if isinstance(systems, SystemList):
        masks = list(systems.masks)  # each int boxed once, not at every read
    else:
        firsts = [(1 << k * n + h, 1 << j) for j, ((k, h), *_) in enumerate(L.pair_orbits)]
        masks = [sum(bit for pair, bit in firsts if T.bits & pair)
                 for T in systems if T.lattice is L or _same_lattice(L, T)]
    index = dict(zip(masks, range(len(masks))))
    if len(index) < len(masks):
        raise ValueError("system list repeats a system")
    if not images:
        return [[i] for i in range(len(masks))], [(1, len(masks))]
    shifts, full = range(0, len(images) * m, m), (1 << m) - 1
    orbit_images = [sum(1 << image[j] + s for image, s in zip(images, shifts)) for j in range(m)]
    tables = [_byte_table(orbit_images[at:at + 8]) for at in range(0, m, 8)]
    placed = bytearray(len(masks))
    orbits = []
    try:
        for i, M in enumerate(masks):
            if not placed[i]:
                placed[i] = 1
                members = [i]
                all_images = sum(map(list.__getitem__, tables, M.to_bytes(width, "little")))
                for s in shifts:
                    j = index[all_images >> s & full]
                    if not placed[j]:
                        placed[j] = 1
                        members.append(j)
                members.sort()
                orbits.append(members)
    except KeyError:
        raise ValueError("system list is not closed under the automorphism action") from None
    profile = sorted(Counter(map(len, orbits)).items(), key=lambda sc: -sc[0])
    return orbits, profile


# -- closed forms for generated systems ---------------------------------------

def _conjugation_gap(L: SubgroupLattice, family) -> int | None:
    """A member of the family with a conjugate outside it; None if the
    family is closed under conjugation."""
    return next((s for s in family for c in L.inner if c[s] not in family), None)


def _check_conjugation_closed(L: SubgroupLattice, family, what: str) -> None:
    gap = _conjugation_gap(L, family)
    if gap is not None:
        raise ValueError(f"{what} family is not closed under conjugation "
                         f"(misses a conjugate of {L.names[gap]})")


def closed_form_normal_source(L: SubgroupLattice, k: int, hs) -> TransferSystem:
    """<(K, H_i)> for normal K below a conjugation-closed family of H_i.

    Equals the diagonal plus every (M n K, M) with M below some H_i.
    """
    hs = sorted(set(hs))
    if not L.normal[k]:
        raise ValueError(f"source {L.names[k]} is not normal")
    for h in hs:
        if not L.incl[k] >> h & 1:
            raise ValueError(f"source {L.names[k]} is not contained in {L.names[h]}")
    _check_conjugation_closed(L, hs, "target")
    pairs = [(L.intersect[m][k], m) for h in hs for m in L.below[h]]
    return TransferSystem.from_pairs(L, pairs)


def closed_form_normal_target(L: SubgroupLattice, ks, h: int) -> TransferSystem:
    """<(K_i, H)> for a conjugation-closed family of K_i below a normal H.

    Equals the diagonal plus every (M n K_{i_1} n ... n K_{i_m}, M)
    with M below H.
    """
    ks = sorted(set(ks))
    if not L.normal[h]:
        raise ValueError(f"target {L.names[h]} is not normal")
    for k in ks:
        if not L.incl[k] >> h & 1:
            raise ValueError(f"source {L.names[k]} is not contained in {L.names[h]}")
    _check_conjugation_closed(L, ks, "source")
    meets = set(ks)
    frontier = set(ks)
    while frontier:
        new = {L.intersect[a][b] for a in frontier for b in meets} - meets
        meets |= new
        frontier = new
    pairs = [(L.intersect[m][kk], m) for m in L.below[h] for kk in meets]
    return TransferSystem.from_pairs(L, pairs)
