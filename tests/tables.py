"""Cayley tables shared by the tests: the dihedral groups, and any group
under a seeded relabeling of its elements."""

import random

from trlat.groups import make_group


def dihedral(m):
    """The dihedral group of order 2m as a bare Cayley table on (rotation
    mod m, reflection bit) pairs, named D<2m>."""
    items = [(r, s) for s in range(2) for r in range(m)]
    table = [[items.index(((x[0] + (y[0] if x[1] == 0 else -y[0])) % m, (x[1] + y[1]) % 2))
              for y in items] for x in items]
    return make_group({"kind": "table", "table": table, "name": f"D{2 * m}"})


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
