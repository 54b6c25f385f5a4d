"""Cayley tables shared by the tests: the dihedral groups, and any group
under a seeded relabeling of its elements; and the builtin group tokens of
order <= 24."""

import itertools
import math
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


# every builtin of order <= 24: C<n>, the named groups, D<2p>, and each
# product C<a>xC<b>... with factors in ascending order
ORDER_24_BUILTINS = (
    tuple(f"C{n}" for n in range(1, 25)) + ("K4", "Q8", "Sym3", "Sym4", "D6", "D10", "D14", "D22")
    + tuple("x".join(f"C{f}" for f in factors) for r in (2, 3, 4)
            for factors in itertools.combinations_with_replacement(range(2, 13), r)
            if math.prod(factors) <= 24))
