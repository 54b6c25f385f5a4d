"""An element-level reference for the indexing system of a transfer system.

An indexing system (Blumberg-Hill) is a family of admissible H-sets closed
under conjugation, restriction and self-induction, and its admissible orbits
H/K are the pairs K -> H of a transfer system (Rubin, 1903.08723).
`ElementOracle` closes a family of orbits H/K, each a pair (K, H) of member
sets, under those three rules:

- conjugation: gH/gK, with conjugates gKg^-1 <= gHg^-1;
- restriction by the double-coset formula: for each M <= H, res^H_M H/K is
  the disjoint union of M/(M n gKg^-1) over the double cosets MgK;
- self-induction: H x_K K/J = H/J, which is transitivity.

It reads the Cayley table through `G.compose` and, to translate canonical
indices, the member sets `L.subgroups`; nothing else of the lattice
(`incl`, `below`, `intersect`, `inner`, `pair_orbits`, `orbit_of`) or of
`trlat.transfer`.  So a wrong entry in those tables shows as a disagreement
with `generate` or with `enumerate_all`.
"""


class ElementOracle:
    def __init__(self, L):
        G = L.group
        self.mul = [[G.compose(a, b) for b in range(G.order)] for a in range(G.order)]
        e = next(x for x, row in enumerate(self.mul) if row[x] == x)
        self.inv = [row.index(e) for row in self.mul]
        self.subgroups = L.subgroups
        self.index = {S: i for i, S in enumerate(self.subgroups)}
        self.below = {H: [M for M in self.subgroups if M <= H] for H in self.subgroups}
        self.proper = [(K, H) for H in self.subgroups for K in self.below[H] if K != H]
        self._conj = {}

    def conj(self, g, S):
        """gSg^-1."""
        if (g, S) not in self._conj:
            gi = self.inv[g]
            self._conj[g, S] = frozenset(self.mul[self.mul[g][x]][gi] for x in S)
        return self._conj[g, S]

    def restrictions(self, K, H):
        """The orbits M/(M n gKg^-1) of res^H_M H/K, one per double coset
        MgK, for every M <= H."""
        for M in self.below[H]:
            left = set(H)
            while left:
                g = min(left)
                left -= {self.mul[self.mul[m][g]][k] for m in M for k in K}
                yield M & self.conj(g, K), M

    def close(self, orbits, family=frozenset()):
        """The least closed family holding the closed `family` and `orbits`.

        Orbits H/H are admissible in every family and are left out, so a
        family is the set of its pairs (K, H) with K < H."""
        held = set(family)
        into, out = {}, {}  # H -> {K: (K, H) held}, K -> {H: (K, H) held}
        for K, H in held:
            into.setdefault(H, set()).add(K)
            out.setdefault(K, set()).add(H)
        todo = list(orbits)
        while todo:
            K, H = todo.pop()
            if K == H or (K, H) in held:
                continue
            held.add((K, H))
            into.setdefault(H, set()).add(K)
            out.setdefault(K, set()).add(H)
            todo += ((self.conj(g, K), self.conj(g, H)) for g in range(len(self.mul)))
            todo += self.restrictions(K, H)
            todo += ((J, H) for J in into.get(K, ()))
            todo += ((K, J) for J in out.get(H, ()))
        return frozenset(held)

    def pairs(self, family):
        """A family as its set of index pairs (k, h)."""
        return {(self.index[K], self.index[H]) for K, H in family}

    def generate(self, relation):
        """The closure of a relation of index pairs, as a set of index pairs."""
        return self.pairs(self.close((self.subgroups[k], self.subgroups[h])
                                     for k, h in relation))

    def families(self):
        """Every closed family, by a search from the least one: each closed
        family is reached by closing a smaller one with one orbit it lacks."""
        found = {self.close(())}
        frontier = list(found)
        while frontier:
            family = frontier.pop()
            for orbit in self.proper:
                if orbit not in family:
                    bigger = self.close([orbit], family)
                    if bigger not in found:
                        found.add(bigger)
                        frontier.append(bigger)
        return found
