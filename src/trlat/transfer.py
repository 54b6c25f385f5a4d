"""Transfer systems: relation closure, validation, enumeration, lattice ops.

A transfer system is encoded as one bitmask row per subgroup: bit h of
rows[k] means the relation K_k -> H_h holds (canonical lattice indices).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from .lattice import SubgroupLattice


class TransferSystemError(ValueError):
    """Raised for relations that violate the transfer-system axioms."""


class SearchBoundExceeded(ValueError):
    """Raised when an enumeration or a scan would exceed its bound."""


def non_negative_int(raw: str, what: str) -> int:
    """A search bound from text; else a ValueError naming `what`, since a
    negative bound would refuse every search."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {raw!r}")
    return value


def env_search_bound(default: int) -> int:
    """TL_SEARCH_BOUND if set and non-empty, else the default."""
    raw = os.environ.get("TL_SEARCH_BOUND")
    return non_negative_int(raw, "TL_SEARCH_BOUND") if raw else default


@dataclass(frozen=True)
class Violation:
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
    """An immutable transfer system over a subgroup lattice."""

    __slots__ = ("lattice", "rows", "_hash")

    def __init__(self, lattice: SubgroupLattice, rows: tuple[int, ...]):
        self.lattice = lattice
        self.rows = rows
        self._hash = hash(rows)

    @classmethod
    def diagonal(cls, lattice: SubgroupLattice) -> "TransferSystem":
        return cls(lattice, tuple(1 << k for k in range(lattice.n)))

    @classmethod
    def maximum(cls, lattice: SubgroupLattice) -> "TransferSystem":
        rows = []
        for k in range(lattice.n):
            bits = 1 << k
            for h in range(lattice.n):
                if lattice.includes[k][h]:
                    bits |= 1 << h
            rows.append(bits)
        return cls(lattice, tuple(rows))

    @classmethod
    def from_pairs(cls, lattice: SubgroupLattice, pairs) -> "TransferSystem":
        """Wrap an explicit pair set; raises unless it is already closed."""
        rows = _rows_of(lattice, pairs)
        violations = _violations(lattice, rows)
        if violations:
            raise TransferSystemError(
                "not a transfer system: "
                + "; ".join(v.describe(lattice) for v in violations))
        return cls(lattice, rows)

    def contains(self, k: int, h: int) -> bool:
        return bool(self.rows[k] >> h & 1)

    def pairs(self) -> list[tuple[int, int]]:
        """Nontrivial related pairs, sorted."""
        return [(k, h) for k in range(self.lattice.n) for h in range(self.lattice.n)
                if k != h and self.rows[k] >> h & 1]

    def pair_count(self) -> int:
        return sum((r & ~(1 << k)).bit_count() for k, r in enumerate(self.rows))

    @property
    def key(self) -> str:
        """Row-major bit string; the deduplication and sort key."""
        return _rows_key(self.rows, self.lattice.n)

    def refines(self, other: "TransferSystem") -> bool:
        return all(r & ~s == 0 for r, s in zip(self.rows, other.rows))

    def relabel(self, perm: tuple[int, ...]) -> "TransferSystem":
        """Push the system forward along a subgroup-index permutation."""
        return TransferSystem(self.lattice, _relabel_rows(self.rows, perm))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransferSystem) and self.rows == other.rows
                and (self.lattice is other.lattice
                     or self.lattice.fingerprint == other.lattice.fingerprint))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        named = [f"({self.lattice.names[k]}->{self.lattice.names[h]})"
                 for k, h in self.pairs()]
        return f"TransferSystem({self.lattice.group.name}: {' '.join(named) or 'diagonal'})"


def _rows_key(rows: tuple[int, ...], n: int) -> str:
    """Row-major bit string of rows over n subgroups: TransferSystem.key."""
    fmt = f"0{n}b"
    return "".join([format(r, fmt)[::-1] for r in rows])


def _relabel_rows(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Rows pushed forward along a subgroup-index permutation."""
    images = [1 << p for p in perm]
    out = [0] * len(rows)
    for p, bits in zip(perm, rows):
        image = 0
        while bits:
            low = bits & -bits
            image |= images[low.bit_length() - 1]
            bits ^= low
        out[p] = image
    return tuple(out)


# -- validation ---------------------------------------------------------------

def _rows_of(L: SubgroupLattice, pairs) -> tuple[int, ...]:
    """The diagonal rows plus the given pairs."""
    rows = [1 << k for k in range(L.n)]
    for k, h in pairs:
        rows[k] |= 1 << h
    return tuple(rows)


def _violations(L: SubgroupLattice, rows: tuple[int, ...]) -> list[Violation]:
    out: list[Violation] = []
    n = L.n
    for k in range(n):
        if not rows[k] >> k & 1:
            out.append(Violation("reflexivity", (k, k)))
        bits = rows[k]
        for h in range(n):
            if bits >> h & 1 and not L.includes[k][h]:
                out.append(Violation("refines-inclusion", (k, h)))
    for k in range(n):
        for h in range(n):
            if k == h or not rows[k] >> h & 1 or not L.includes[k][h]:
                continue
            for g in range(L.group.order):
                ck, ch = L.conjugate[g][k], L.conjugate[g][h]
                if not rows[ck] >> ch & 1:
                    out.append(Violation("conjugation", (ck, ch), (k, h)))
            for l in range(n):
                if L.includes[l][h]:
                    m = L.intersect[l][k]
                    if not rows[m] >> l & 1:
                        out.append(Violation("restriction", (m, l), (k, h)))
            for h2 in range(n):
                if rows[h] >> h2 & 1 and not rows[k] >> h2 & 1:
                    out.append(Violation("transitivity", (k, h2), (k, h)))
    # deduplicate, preserving first-seen order
    seen, unique = set(), []
    for v in out:
        if (v.axiom, v.pair) not in seen:
            seen.add((v.axiom, v.pair))
            unique.append(v)
    return unique


def _checked(L: SubgroupLattice, rows: tuple[int, ...], what: str) -> TransferSystem:
    """The system with these rows, for a construction that guarantees the
    axioms: a violation means a bug in it, raised as `what: <violation>`."""
    bad = _violations(L, rows)
    if bad:
        raise AssertionError(f"{what}: {bad[0].describe(L)}")
    return TransferSystem(L, rows)


def validate(L: SubgroupLattice, relation) -> list[Violation]:
    """Check the transfer-system axioms on a pair set; [] means valid."""
    return _violations(L, _rows_of(L, relation))


# -- generation (smallest transfer system containing a relation) -------------

def _add_pair_closure(L: SubgroupLattice, rows: list[int], pairs) -> None:
    """Close the given pairs under conjugation, then restriction, into rows."""
    conj_closed = set()
    for k, h in pairs:
        if not L.includes[k][h]:
            raise TransferSystemError(
                f"pair ({L.names[k]}, {L.names[h]}) does not refine inclusion")
        for g in range(L.group.order):
            conj_closed.add((L.conjugate[g][k], L.conjugate[g][h]))
    for k, h in conj_closed:
        rows[k] |= 1 << h
        for l in range(L.n):
            if L.includes[l][h]:
                rows[L.intersect[l][k]] |= 1 << l


def _close(rows, edges):
    """Transitive closure of reflexive, transitive rows plus (source, targets) edges.

    Source by source: with J the new targets of i, every row reaching i
    (i itself included) gains all that J reaches.  This is exact because a
    transitive relation plus edges from one source i is closed by exactly
    the pairs (x, y) with x reaching i and some j in J reaching y.
    """
    for i, targets in edges:
        new = targets & ~rows[i]
        reach = 0
        while new:
            low = new & -new
            new ^= low
            reach |= rows[low.bit_length() - 1]
        if reach:
            bit = 1 << i
            rows = [r | reach if r & bit else r for r in rows]
    return rows


def _orbit_masks(L: SubgroupLattice):
    """Per pair orbit, its first pair and the nonzero (row, bits) that pair adds
    under conjugation, then restriction: every pair of an orbit closes to the
    same system, and a system holds a whole orbit or none of it."""
    out = []
    for orbit in L.pair_orbits:
        mask = [0] * L.n
        _add_pair_closure(L, mask, orbit[:1])
        out.append((orbit[0], [(i, m) for i, m in enumerate(mask) if m]))
    return out


def generate(L: SubgroupLattice, relation) -> TransferSystem:
    """The smallest transfer system containing the given relation.

    Closes under conjugation, then restriction, then takes the
    reflexive-transitive closure.  Pairs that do not refine inclusion are
    rejected with the offending pair named.
    """
    mask = [0] * L.n
    _add_pair_closure(L, mask, relation)
    return _checked(L, tuple(_close(TransferSystem.diagonal(L).rows, enumerate(mask))),
                    "closure produced an invalid system")


# -- lattice operations on Tr(G) ---------------------------------------------

def _require_same_lattice(T1: TransferSystem, T2: TransferSystem) -> None:
    if T1.lattice is not T2.lattice and T1.lattice.fingerprint != T2.lattice.fingerprint:
        raise ValueError("transfer systems live over different lattices")


def meet(T1: TransferSystem, T2: TransferSystem) -> TransferSystem:
    """Pairwise intersection; always a transfer system."""
    _require_same_lattice(T1, T2)
    return _checked(T1.lattice, tuple(a & b for a, b in zip(T1.rows, T2.rows)),
                    "meet produced an invalid system")


def join(T1: TransferSystem, T2: TransferSystem) -> TransferSystem:
    """Smallest transfer system containing both."""
    _require_same_lattice(T1, T2)
    return _checked(T1.lattice, tuple(_close(T1.rows, enumerate(T2.rows))),
                    "join produced an invalid system")


def is_saturated(T: TransferSystem) -> bool:
    """Horn filling: K -> H forces K -> L -> H through every K <= L <= H."""
    L = T.lattice
    for k, h in T.pairs():
        for l in range(L.n):
            if l in (k, h) or not (L.includes[k][l] and L.includes[l][h]):
                continue
            if not (T.contains(k, l) and T.contains(l, h)):
                return False
    return True


def irreducible_pairs(T: TransferSystem) -> list[tuple[int, int]]:
    """Related pairs (K, H) with K maximal proper in H."""
    L = T.lattice
    out = []
    for k, h in T.pairs():
        if not any(l not in (k, h) and L.includes[k][l] and L.includes[l][h]
                   for l in range(L.n)):
            out.append((k, h))
    return out


# -- enumeration ---------------------------------------------------------------

def _walk(L: SubgroupLattice, bound: int | None):
    """Yield each transfer system T over L once, as (rows, successors): per
    pair orbit T misses, the orbit's first pair and the rows of T joined with
    it (its `_orbit_masks` mask, then `_close`).  Extending the diagonal and
    each system found this way until a fixpoint reaches all of Tr(G), since
    every system is generated by its own pairs.
    """
    limit = bound if bound is not None else env_search_bound(24)
    if len(L.pair_orbits) > limit:
        raise SearchBoundExceeded(
            f"{L.group.name} has {len(L.pair_orbits)} inclusion-pair orbits, "
            f"above the search bound {limit}")
    masks = _orbit_masks(L)
    diag = TransferSystem.diagonal(L).rows
    seen = {diag}
    stack = [diag]
    while stack:
        T = stack.pop()
        succ = [((k, h), tuple(_close(T, mask))) for (k, h), mask in masks
                if not T[k] >> h & 1]
        for _, N in succ:
            if N not in seen:
                seen.add(N)
                stack.append(N)
        yield T, succ


def _sorted_systems(L: SubgroupLattice, rows) -> list[TransferSystem]:
    return [TransferSystem(L, r) for r in sorted(rows, key=lambda r: _rows_key(r, L.n))]


def enumerate_all(L: SubgroupLattice, bound: int | None = None) -> list[TransferSystem]:
    """Every transfer system over L, sorted by deduplication key.

    Refuses if the number of inclusion-pair orbits exceeds the search bound
    (default 24, overridable via TL_SEARCH_BOUND).
    """
    return _sorted_systems(L, [T for T, _ in _walk(L, bound)])


def hasse_diagram(L: SubgroupLattice, bound: int | None = None
                  ) -> tuple[list[TransferSystem], list[tuple[int, int]]]:
    """Tr(G) as `enumerate_all` lists it, and its covers: the sorted index
    pairs (i, j) with systems[i] covered by systems[j].

    A cover of T is T joined with a pair orbit it lacks, so the covers of T
    are the minimal ones among the successors `_walk` yields for it: S is
    minimal iff each missed orbit S holds closes T to S.  Refuses as
    `enumerate_all` does.
    """
    # each successor is a fresh tuple; canon keeps one copy of each cover's rows
    found, canon = {}, {}
    for T, succ in _walk(L, bound):
        found[T] = [canon.setdefault(S, S) for S in {N for _, N in succ}
                    if all(N == S for (k, h), N in succ if S[k] >> h & 1)]
    systems = _sorted_systems(L, found)
    index = {T.rows: i for i, T in enumerate(systems)}
    return systems, sorted((i, index[S]) for i, T in enumerate(systems)
                           for S in found[T.rows])


def aut_orbits(systems, automorphism_perms):
    """Orbit partition of systems under relabeling by group automorphisms.

    Returns (orbits, profile): orbits as lists of systems, profile as
    (orbit size, count) sorted by size descending.  Inner automorphisms
    (subgroup permutations L.conjugate[g]) fix every conjugation-closed
    system, so one representative per coset of Inn(G) relabels.
    """
    if not systems:
        return [], []
    L = systems[0].lattice
    n = L.n
    sub_perms, covered = [], set()
    for p in sorted({L.subgroup_perm(sigma) for sigma in automorphism_perms}):
        if p not in covered:
            sub_perms.append(p)
            covered |= {tuple(p[s] for s in c) for c in L.conjugate}
    index = {T.rows: i for i, T in enumerate(systems)}
    seen = set()
    orbits = []
    for T in systems:
        if T.rows in seen:
            continue
        orbit_rows = {_relabel_rows(T.rows, p) for p in sub_perms}
        if not all(r in index for r in orbit_rows):
            raise ValueError("system list is not closed under the automorphism action")
        seen |= orbit_rows
        orbits.append([systems[index[r]]
                       for r in sorted(orbit_rows, key=lambda r: _rows_key(r, n))])
    sizes: dict[int, int] = {}
    for orbit in orbits:
        sizes[len(orbit)] = sizes.get(len(orbit), 0) + 1
    profile = sorted(sizes.items(), key=lambda sc: -sc[0])
    return orbits, profile


# -- closed forms for generated systems ---------------------------------------

def _conjugation_gap(L: SubgroupLattice, family) -> int | None:
    """A member of the family with a conjugate outside it; None if the
    family is closed under conjugation."""
    return next((s for s in family for c in L.conjugate if c[s] not in family), None)


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
        if not L.includes[k][h]:
            raise ValueError(f"source {L.names[k]} is not contained in {L.names[h]}")
    _check_conjugation_closed(L, hs, "target")
    rows = [1 << s for s in range(L.n)]
    for h in hs:
        for m in range(L.n):
            if L.includes[m][h]:
                rows[L.intersect[m][k]] |= 1 << m
    return _checked(L, tuple(rows), "closed form invalid")


def closed_form_normal_target(L: SubgroupLattice, ks, h: int) -> TransferSystem:
    """<(K_i, H)> for a conjugation-closed family of K_i below a normal H.

    Equals the diagonal plus every (M n K_{i_1} n ... n K_{i_m}, M)
    with M below H.
    """
    ks = sorted(set(ks))
    if not L.normal[h]:
        raise ValueError(f"target {L.names[h]} is not normal")
    for k in ks:
        if not L.includes[k][h]:
            raise ValueError(f"source {L.names[k]} is not contained in {L.names[h]}")
    _check_conjugation_closed(L, ks, "source")
    meets = set(ks)
    frontier = set(ks)
    while frontier:
        new = {L.intersect[a][b] for a in frontier for b in meets} - meets
        meets |= new
        frontier = new
    rows = [1 << s for s in range(L.n)]
    for m in range(L.n):
        if L.includes[m][h]:
            for kk in meets:
                rows[L.intersect[m][kk]] |= 1 << m
    return _checked(L, tuple(rows), "closed form invalid")
