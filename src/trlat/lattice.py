"""Subgroup lattices: enumeration, inclusion/conjugation data, automorphisms."""

from __future__ import annotations

import itertools
from .groups import FiniteGroup


class SubgroupLattice:
    """All subgroups of a finite group with derived lattice data.

    Subgroups are listed canonically: by order ascending, then by the
    lexicographic order of the sorted member tuple.  Every matrix and table
    below is indexed by that canonical position, so all outputs are
    reproducible across runs.
    """

    def __init__(self, group: FiniteGroup, subgroups: list[frozenset[int]]):
        self.group = group
        self.subgroups = tuple(sorted(subgroups, key=lambda s: (len(s), tuple(sorted(s)))))
        self.n = len(self.subgroups)
        self.index_of = {s: i for i, s in enumerate(self.subgroups)}
        self.full = self.n - 1

        n = self.n
        self.includes = tuple(tuple(self.subgroups[k] <= self.subgroups[h] for h in range(n))
                              for k in range(n))
        self.intersect = tuple(
            tuple(self.index_of[self.subgroups[a] & self.subgroups[b]] for b in range(n))
            for a in range(n))
        self.conjugate = tuple(
            tuple(self.index_of[frozenset(group.conjugate(g, x) for x in self.subgroups[s])]
                  for s in range(n))
            for g in range(group.order))
        self.normal = tuple(all(self.conjugate[g][s] == s for g in range(group.order))
                            for s in range(n))
        self.cocyclic = tuple(self._is_cocyclic(s) for s in range(n))

        class_of = [-1] * n
        cid = 0
        for s in range(n):
            if class_of[s] >= 0:
                continue
            for g in range(group.order):
                class_of[self.conjugate[g][s]] = cid
            cid += 1
        self.class_of = tuple(class_of)
        self.class_count = cid

        self.proper_pairs = tuple((k, h) for k in range(n) for h in range(n)
                                  if k != h and self.includes[k][h])
        self.pair_orbits = self._pair_orbit_partition()
        self.names = tuple(self._display_name(s) for s in range(n))
        self._name_index = {}
        for i, nm in enumerate(self.names):
            self._name_index.setdefault(nm, []).append(i)

    def _is_cocyclic(self, s: int) -> bool:
        # normal with cyclic quotient: some coset generates the quotient
        if not self.normal[s]:
            return False
        G, H = self.group, self.subgroups[s]
        q = G.order // len(H)
        for x in range(G.order):
            coset, power = set(), x
            for _ in range(q):
                coset.add(min(G.compose(power, h) for h in H))
                power = G.compose(power, x)
            if len(coset) == q:
                return True
        return False

    def _pair_orbit_partition(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        orbits, seen = [], set()
        for pair in self.proper_pairs:
            if pair in seen:
                continue
            orbit = {(self.conjugate[g][pair[0]], self.conjugate[g][pair[1]])
                     for g in range(self.group.order)}
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
        return tuple(sorted(orbits, key=lambda o: o[0]))

    def _display_name(self, s: int) -> str:
        G, H = self.group, self.subgroups[s]
        if len(H) == 1:
            return "1"
        if len(H) == G.order:
            return G.name
        if G.kind == "cyclic":
            return f"C{len(H)}"  # one subgroup per divisor
        gens = self._minimal_generators(H)
        return "<" + ",".join(G.name_of(g) for g in gens) + ">"

    def _minimal_generators(self, H: frozenset[int]) -> list[int]:
        members = sorted(H - {self.group.identity})
        for size in range(1, len(members) + 1):
            for combo in itertools.combinations(members, size):
                if self.group.closure(combo) == H:
                    return list(combo)
        return members

    def resolve_name(self, name: str) -> int:
        """Canonical index of the subgroup with the given display name."""
        hits = self._name_index.get(name.strip(), [])
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise KeyError(f"no subgroup named {name!r}; known names: {', '.join(self.names)}")
        raise KeyError(f"ambiguous subgroup name {name!r}; candidates at indices {hits}")

    def order_of(self, s: int) -> int:
        return len(self.subgroups[s])

    def subgroup_perm(self, sigma: tuple[int, ...]) -> tuple[int, ...]:
        """Permutation of subgroup indices induced by an element permutation."""
        return tuple(self.index_of[frozenset(sigma[x] for x in self.subgroups[s])]
                     for s in range(self.n))

    @property
    def fingerprint(self) -> tuple:
        """The group's Cayley table, which fixes the canonical subgroup list;
        names play no part."""
        return self.group._table

    def __repr__(self) -> str:
        return f"SubgroupLattice({self.group.name}, {self.n} subgroups)"


def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """Enumerate all subgroups of G (cached on the group object).

    Breadth-first closure over generator sets: start from the cyclic
    subgroups, repeatedly close pairs under join, and deduplicate by member
    set.  Exact for any finite group; intended for order <= 24.
    """
    cached = getattr(G, "_lattice", None)
    if cached is not None:
        return cached
    subs = {frozenset([G.identity])}
    subs |= {G.closure([g]) for g in range(G.order)}
    frontier = set(subs)
    while frontier:
        new = set()
        for H in frontier:
            for K in list(subs):
                if H <= K or K <= H:
                    continue
                J = G.closure(H | K)
                if J not in subs:
                    new.add(J)
        subs |= new
        frontier = new
    lattice = SubgroupLattice(G, list(subs))
    G._lattice = lattice
    return lattice


def automorphisms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms of G as element-index permutations.

    For each choice of images of G.generators, of matching element
    orders, phi is filled along one breadth-first tree of right
    multiplications by the generators from the identity, and kept iff it is
    a bijection with phi(x g) = phi(x) phi(g) for every element x and
    generator g.  That makes phi a homomorphism, since every element is a
    product of generators.
    """
    gens = G.generators
    right = [[G.compose(x, g) for x in range(G.order)] for g in gens]  # right[i][x] = x g_i
    tree, seen = [], {G.identity}  # (x, i, x g_i), each element first reached
    frontier = [G.identity]
    for x in frontier:
        for i, col in enumerate(right):
            if col[x] not in seen:
                seen.add(col[x])
                frontier.append(col[x])
                tree.append((x, i, col[x]))
    orders = [G.element_order(x) for x in range(G.order)]
    candidates = [[y for y in range(G.order) if orders[y] == orders[g]] for g in gens]
    out: list[tuple[int, ...]] = []
    for images in itertools.product(*candidates):
        phi = [G.identity] * G.order
        for x, i, y in tree:
            phi[y] = G.compose(phi[x], images[i])
        if len(set(phi)) == G.order and all(
                phi[xg] == G.compose(phi[x], img)
                for col, img in zip(right, images) for x, xg in enumerate(col)):
            out.append(tuple(phi))
    return sorted(out)
