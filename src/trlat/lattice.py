"""Subgroup lattices: enumeration, inclusion/conjugation data, automorphisms."""

from __future__ import annotations

import itertools
import math
from array import array
from .groups import FiniteGroup

# The most steps a search in this module takes on.  An automorphism search
# takes its candidate generator images times the group order: C2048
# (2,097,152), D202 (2,040,200) and C2xC2xC2xC2 (810,000) fit; C2xC1024
# (6.3M) and C2xC2xC2xC2xC2 (916M) do not.  The subgroup enumeration takes
# about half the square of the number of cyclic subgroups times the group
# order: D202 (1,071,408) and C2048 (147,456) fit; D502 (16M) and D1018
# (133M) do not.
STEP_LIMIT = 1 << 22

# The most subgroups the enumeration finds before it is refused: every
# lattice table below has one row per subgroup and one entry per pair.
# C2xC2xC2xC2xC2 (374) fits; C2xC2xC2xC2xC2xC2 (2825) does not.
MAX_SUBGROUPS = 1024


class SearchBoundExceeded(ValueError):
    """Raised when an enumeration or a scan would exceed its bound."""


class SubgroupLattice:
    """All subgroups of a finite group with derived lattice data.

    Subgroups are listed canonically: by order ascending, then by the
    lexicographic order of the sorted member tuple.  Every matrix and table
    below is indexed by that canonical position, so all outputs are
    reproducible across runs.
    """

    def __init__(self, group: FiniteGroup, generated: dict[frozenset[int], tuple[int, ...]]):
        """`generated` maps each subgroup to its least generating tuple."""
        self.group = group
        self.subgroups = tuple(sorted(generated, key=lambda s: (len(s), tuple(sorted(s)))))
        self.n = len(self.subgroups)
        self.full = self.n - 1
        # each subgroup as the bitmask of its members: bit x for element x
        masks = [sum(1 << x for x in s) for s in self.subgroups]
        self._index_of_members = {m: i for i, m in enumerate(masks)}

        n = self.n
        # incl[k]: bit h set iff K_k <= H_h; below[h]: the l with L_l <= H_h,
        # ascending; proper_pairs: the (k, h) with K_k < H_h, row-major
        incl, below, proper = [], [[] for _ in masks], []
        for k, a in enumerate(masks):
            ups = [h for h, b in enumerate(masks) if a & b == a]
            incl.append(sum(1 << h for h in ups))
            proper += ((k, h) for h in ups if h != k)
            for h in ups:
                below[h].append(k)
        self.incl, self.below = tuple(incl), tuple(map(tuple, below))
        self.proper_pairs = tuple(proper)
        self.intersect = tuple(tuple(self._index_of_members[a & b] for b in masks) for a in masks)

        # x -> g x g^-1 depends only on the coset of g modulo the centre: one
        # permutation per coset, each kept once, in the order of its least g
        centre = [z for z in range(group.order)
                  if all(group.compose(z, g) == group.compose(g, z) for g in group.generators)]
        inner, covered = {}, set()
        for g in range(group.order):
            if g not in covered:
                perm = self.subgroup_perm(tuple(group.conjugate(g, x) for x in range(group.order)))
                inner.setdefault(perm)
                covered.update(group.compose(g, z) for z in centre)
        self.inner = inner = tuple(inner)
        self.normal = tuple(all(c[s] == s for c in inner) for s in range(n))
        # normal H is cocyclic iff CH = G for a cyclic C (then G/H = CH/H is
        # isomorphic to C/(C n H)), that is iff |C||H| = |G||C n H|
        cyclic = [s for s, S in enumerate(self.subgroups) if len(generated[S]) <= 1]
        self.cocyclic = tuple(self.normal[s] and any(
            self.order_of(c) * self.order_of(s) == group.order * self.order_of(self.intersect[c][s])
            for c in cyclic) for s in range(n))

        # classes are numbered in the order of their least members
        least = [min(c[s] for c in inner) for s in range(n)]
        self.class_reps = tuple(sorted(set(least)))
        rank = {s: i for i, s in enumerate(self.class_reps)}
        self.class_of = tuple(rank[s] for s in least)

        self.pair_orbits, self.orbit_of = self._pair_orbit_partition()
        self.names = tuple(self._display_name(H, generated[H]) for H in self.subgroups)

    def _pair_orbit_partition(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], array]:
        """The proper pairs' orbits under L.inner, each listed at its least pair,
        and orbit_of: at k*n + h the orbit of (k, h), -1 off proper pairs."""
        n, inner = self.n, self.inner
        orbits, orbit_of = [], array("i", [-1]) * (n * n)
        for k, h in self.proper_pairs:
            if orbit_of[k * n + h] < 0:
                orbit = tuple(sorted({(c[k], c[h]) for c in inner}))
                for a, b in orbit:
                    orbit_of[a * n + b] = len(orbits)
                orbits.append(orbit)
        return tuple(orbits), orbit_of

    def _display_name(self, H: frozenset[int], gens: tuple[int, ...]) -> str:
        G = self.group
        if len(H) == 1:
            return "1"
        if len(H) == G.order:
            return G.name
        if G.kind == "cyclic":
            return f"C{len(H)}"  # one subgroup per divisor
        return "<" + ",".join(G.element_names[g] for g in gens) + ">"

    def resolve_name(self, name: str) -> int:
        """Canonical index of the subgroup with the given display name."""
        hits = [i for i, nm in enumerate(self.names) if nm == name.strip()]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise KeyError(f"no subgroup named {name!r}; known names: {', '.join(self.names)}")
        raise KeyError(f"ambiguous subgroup name {name!r}; candidates at indices {hits}")

    def order_of(self, s: int) -> int:
        return len(self.subgroups[s])

    def subgroup_perm(self, sigma: tuple[int, ...]) -> tuple[int, ...]:
        """Permutation of subgroup indices induced by an element permutation;
        raises ValueError unless sigma has one entry per element of G and
        sends each subgroup onto a subgroup, as an automorphism of G does."""
        G, bit = self.group, [1 << y for y in sigma]
        if len(bit) == G.order:
            try:
                return tuple(self._index_of_members[sum(map(bit.__getitem__, s))]
                             for s in self.subgroups)
            except KeyError:
                pass
        raise ValueError(f"a permutation of {len(bit)} elements is not an automorphism of {G.name}")

    @property
    def fingerprint(self) -> tuple:
        """The group's Cayley table, which fixes the canonical subgroup list;
        names play no part."""
        return self.group._table

    def __repr__(self) -> str:
        return f"SubgroupLattice({self.group.name}, {self.n} subgroups)"


def _cyclic_walk(G: FiniteGroup) -> tuple[dict[frozenset[int], int], dict[int, int]]:
    """Each cyclic subgroup of G with its least generator g, and each
    element's order, from one walk g, g^2, ..., g^m = 1 per cyclic <g>: the
    g^i with gcd(i, m) = 1 generate <g>, and each has order m."""
    cyclic, orders = {}, {}
    for g in range(G.order):
        if g not in orders:
            powers = [g]
            while powers[-1] != G.identity:
                powers.append(G.compose(powers[-1], g))
            m = len(powers)
            orders.update((x, m) for i, x in enumerate(powers, 1) if math.gcd(i, m) == 1)
            cyclic[frozenset(powers)] = g
    return cyclic, orders


def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """Enumerate all subgroups of G, each with its least generating tuple
    (shortest, then lexicographic by element index); cached on the group.

    The cyclic subgroups come from `_cyclic_walk`, each with its least
    generator g.  In that order, each cyclic <g> is joined with every
    subgroup H found so far not holding it; the join keeps the lesser of
    its tuple and H's tuple then g.  After k steps this holds every join of
    the first k cyclic subgroups, and each subgroup is the join of its
    cyclic ones.  The tuples are exact: a least tuple uses only least
    generators (a smaller generator of <x> gives a smaller tuple), and its
    prefix is the least tuple of the subgroup it generates, final before
    the last element's step.  Refused up front above STEP_LIMIT steps
    ((cyclic subgroups)^2 / 2 times |G|), in the loop above MAX_SUBGROUPS.
    """
    cached = getattr(G, "_lattice", None)
    if cached is not None:
        return cached
    cyclic = _cyclic_walk(G)[0]
    pairs = len(cyclic) ** 2 // 2
    if pairs * G.order > STEP_LIMIT:
        raise SearchBoundExceeded(
            f"the subgroup lattice of {G.name} would join about {pairs} pairs of its "
            f"{len(cyclic)} cyclic subgroups, each over {G.order} elements: "
            f"{pairs * G.order} steps, above the limit {STEP_LIMIT}")
    subs = {frozenset([G.identity]): ()}
    for C, g in cyclic.items():
        for J, gens in [(G.closure(H | C), gens + (g,)) for H, gens in subs.items() if not C <= H]:
            subs[J] = min(subs.get(J, gens), gens, key=lambda t: (len(t), t))
        if len(subs) > MAX_SUBGROUPS:
            raise SearchBoundExceeded(
                f"the subgroup lattice of {G.name} has more than {MAX_SUBGROUPS} "
                f"subgroups: {len(subs)} found so far")
    lattice = SubgroupLattice(G, subs)
    G._lattice = lattice
    return lattice


def automorphisms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms of G as element-index permutations.

    For each choice of images of G.generators, of matching element
    orders, phi is filled along one breadth-first tree of right
    multiplications by the generators from the identity, so that
    phi(x g) = phi(x) phi(g) on the tree's edges x -> x g, and kept iff it
    is a bijection and that holds on the edges closing a cycle too.  That
    makes phi a homomorphism, since every element is a product of
    generators.  Refused, before any candidate is tried, above
    STEP_LIMIT candidate image tuples times the group order.  Computed once
    and kept on G, as `subgroup_lattice` keeps its lattice; each call
    returns a fresh list.
    """
    cached = getattr(G, "_automorphisms", None)
    if cached is not None:
        return list(cached)
    gens = G.generators
    orders = _cyclic_walk(G)[1]
    candidates = [[y for y in range(G.order) if orders[y] == orders[g]] for g in gens]
    tuples = math.prod(map(len, candidates))
    if tuples * G.order > STEP_LIMIT:
        raise SearchBoundExceeded(
            f"the automorphism search on {G.name} would try {tuples} tuples of generator "
            f"images, each over {G.order} elements: {tuples * G.order} steps, above the "
            f"limit {STEP_LIMIT}")
    tree, cycles, seen = [], [], {G.identity}  # (x, i, x g_i); in tree if first reached
    frontier = [G.identity]
    for x in frontier:
        for i, g in enumerate(gens):
            xg = G.compose(x, g)
            if xg in seen:
                cycles.append((x, i, xg))
            else:
                seen.add(xg)
                frontier.append(xg)
                tree.append((x, i, xg))
    out: list[tuple[int, ...]] = []
    for images in itertools.product(*candidates):
        phi = [G.identity] * G.order
        for x, i, y in tree:
            phi[y] = G.compose(phi[x], images[i])
        if all(phi[y] == G.compose(phi[x], images[i]) for x, i, y in cycles) \
                and len(set(phi)) == G.order:
            out.append(tuple(phi))
    G._automorphisms = tuple(sorted(out))
    return list(G._automorphisms)
