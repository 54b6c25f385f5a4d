"""Cayley tables shared by the tests: D8, and any group under a seeded
relabeling of its elements."""

import random

from trlat.groups import make_group


def dihedral_8():
    """D8 as a bare Cayley table on (rotation mod 4, reflection bit) pairs."""
    items = [(r, s) for s in range(2) for r in range(4)]
    table = [[items.index(((x[0] + (y[0] if x[1] == 0 else -y[0])) % 4, (x[1] + y[1]) % 2))
              for y in items] for x in items]
    return make_group({"kind": "table", "table": table, "name": "D8"})


def relabeled(G, seed):
    """G as a bare Cayley table under a seeded permutation of its elements,
    so that its subgroups get other canonical indices.  The name is kept;
    the result has no spec, like any group read from a table."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    inv = {p: x for x, p in enumerate(perm)}
    table = [[perm[G.compose(inv[a], inv[b])] for b in range(G.order)]
             for a in range(G.order)]
    return make_group({"kind": "table", "table": table, "name": G.name})
