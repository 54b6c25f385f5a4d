"""Seeded Cayley tables and an independent reference for checking outputs.

Nothing here imports trlat.  The table-built groups come from permutation
generators, and the reference works on subgroup member sets derived from a
Cayley table alone, so a check never shares code with the call it checks.
"""

from __future__ import annotations

import math
import random


def _dihedral_gens(m: int) -> list[tuple[int, ...]]:
    # rotation i -> i+1 and reflection i -> -i on the vertices of an m-gon
    return [tuple((i + 1) % m for i in range(m)), tuple(-i % m for i in range(m))]


# Groups the program only ever sees as Cayley tables.
TABLE_GENERATORS = {
    "D8": _dihedral_gens(4),
    "D12": _dihedral_gens(6),
    "D24": _dihedral_gens(12),
    # A4 on points 0..3 by (012) and (01)(23), times C2 swapping points 4 and 5
    "C2xA4": [(1, 2, 0, 3, 4, 5), (1, 0, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
}


def seeded_table(name: str, seed: int) -> list[list[int]]:
    """Cayley table of a TABLE_GENERATORS group, elements shuffled by the seed."""
    gens = TABLE_GENERATORS[name]
    identity = tuple(range(len(gens[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    elements = sorted(elements)
    random.Random(f"{name}:{seed}").shuffle(elements)
    index = {x: i for i, x in enumerate(elements)}
    return [[index[tuple(a[b[i]] for i in range(len(a)))] for b in elements]
            for a in elements]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


class Reference:
    """Subgroups and transfer-system closure computed from a Cayley table.

    Subgroups are numbered in this class's own order; `index` maps a member
    set to that number, which is how program outputs are translated.
    """

    def __init__(self, table):
        t = [list(row) for row in table]
        n = len(t)
        e = next(x for x in range(n) if all(t[x][y] == y for y in range(n)))
        inv = [next(y for y in range(n) if t[x][y] == e) for x in range(n)]

        def generated(seed):
            members = {e} | set(seed)
            while True:
                more = {t[a][b] for a in members for b in members} - members
                if not more:
                    return frozenset(members)
                members |= more

        subs = {generated([x]) for x in range(n)}
        frontier = set(subs)
        while frontier:
            new = {generated(a | b) for a in frontier for b in subs} - subs
            subs |= new
            frontier = new
        self.subgroups = sorted(subs, key=lambda s: (len(s), sorted(s)))
        self.index = {s: i for i, s in enumerate(self.subgroups)}
        m = len(self.subgroups)
        self.n = m
        self.conj = [[self.index[frozenset(t[t[g][x]][inv[g]] for x in s)]
                      for s in self.subgroups] for g in range(n)]
        self.meet = [[self.index[a & b] for b in self.subgroups] for a in self.subgroups]
        self.below = [[i for i in range(m) if self.subgroups[i] <= h]
                      for h in self.subgroups]
        self.proper_pairs = [(k, h) for h in range(m) for k in self.below[h] if k != h]

    def pair_orbit_count(self) -> int:
        seen, count = set(), 0
        for k, h in self.proper_pairs:
            if (k, h) not in seen:
                count += 1
                seen |= {(c[k], c[h]) for c in self.conj}
        return count

    def closure(self, pairs) -> frozenset[tuple[int, int]]:
        """Smallest relation holding `pairs` and the diagonal that is closed
        under conjugation, restriction and transitivity, by a worklist."""
        rel: set[tuple[int, int]] = set()
        out = [set() for _ in range(self.n)]
        into = [set() for _ in range(self.n)]
        work = []

        def add(k, h):
            if (k, h) not in rel:
                rel.add((k, h))
                out[k].add(h)
                into[h].add(k)
                work.append((k, h))

        for i in range(self.n):
            add(i, i)
        for k, h in pairs:
            if not self.subgroups[k] <= self.subgroups[h]:
                raise ValueError(f"pair {k}->{h} does not refine inclusion")
            add(k, h)
        while work:
            k, h = work.pop()
            for c in self.conj:
                add(c[k], c[h])
            for low in self.below[h]:
                add(self.meet[k][low], low)
            for a in list(into[k]):
                add(a, h)
            for c in list(out[h]):
                add(k, c)
        return frozenset(rel)

    def is_closed(self, pairs) -> bool:
        pairs = set(pairs) | {(i, i) for i in range(self.n)}
        return self.closure(pairs) == pairs


class Translation:
    """Maps a program lattice's subgroup indices onto a Reference's.

    Construction fails unless both list exactly the same member sets, so it
    also checks the program's subgroup enumeration.
    """

    def __init__(self, ref: Reference, program_subgroups):
        program_subgroups = [frozenset(s) for s in program_subgroups]
        if sorted(program_subgroups, key=sorted) != sorted(ref.subgroups, key=sorted):
            raise ValueError("program and reference list different subgroups")
        self.to_ref = [ref.index[s] for s in program_subgroups]
        self.from_ref = {r: p for p, r in enumerate(self.to_ref)}

    def rows_to_pairs(self, rows) -> frozenset[tuple[int, int]]:
        """Reference pairs of a bitmask-row relation (bit h of rows[k]: k -> h)."""
        f = self.to_ref
        return frozenset((f[k], f[h]) for k, bits in enumerate(rows)
                         for h in range(len(rows)) if bits >> h & 1)

    def pairs_to_ref(self, pairs) -> list[tuple[int, int]]:
        return [(self.to_ref[k], self.to_ref[h]) for k, h in pairs]
