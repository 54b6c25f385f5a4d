"""Tr(G)'s covers and order against facts from the literature, which share
no code with hasse_diagram or refines.

Tr(C_{p^k}) is the Tamari lattice on Cat(k+1) elements (Balchin, Barnes and
Roitzheim, "N-infinity operads and associahedra"), and Tr(G) is a closure
system on the pair orbits in which no two orbits generate each other.
"""

import math
from collections import Counter

import pytest

from trlat.groups import cyclic_group, make_group
from trlat.lattice import subgroup_lattice
from trlat.transfer import enumerate_all, generate, hasse_diagram

from tables import ORDER_24_BUILTINS


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


@pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 8)] + [(3, k) for k in range(1, 5)])
def test_tamari_cover_counts(p, k):
    """The Hasse diagram of the Tamari lattice on Cat(k+1) elements is the
    edge graph of the k-dimensional associahedron, a simple polytope, so
    each element has k covers up or down: k Cat(k+1) / 2 in all."""
    L = subgroup_lattice(cyclic_group(p ** k))
    systems, covers = hasse_diagram(L, bound=len(L.pair_orbits))
    assert len(systems) == catalan(k + 1)
    assert len(covers) == k * catalan(k + 1) // 2


@pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 7)] + [(3, k) for k in range(1, 5)])
def test_tamari_interval_counts(p, k):
    """Chapoton, "Sur le nombre d'intervalles dans les treillis de Tamari"
    (Sem. Lothar. Combin. 55, 2006): the Tamari lattice on Cat(m) elements
    has 2(4m+1)! / ((m+1)! (3m+2)!) pairs S <= T."""
    m = k + 1
    systems = enumerate_all(subgroup_lattice(cyclic_group(p ** k)))
    intervals = sum(S.refines(T) for S in systems for T in systems)
    assert intervals == 2 * math.factorial(4 * m + 1) // (
        math.factorial(m + 1) * math.factorial(3 * m + 2))


# the builtins of order <= 24 with at most Sym4's 34 pair orbits: each
# Hasse diagram takes at most about a second
SMALL_TR = [name for name in ORDER_24_BUILTINS
            if len(subgroup_lattice(make_group(name)).pair_orbits) <= 34]


@pytest.mark.parametrize("name", SMALL_TR)
def test_irreducibles_are_the_one_orbit_systems(name):
    """In a closure system on the pair orbits where no two orbits generate
    each other, the join-irreducibles, the systems with one lower cover, are
    exactly the systems one orbit generates.  The meet-irreducibles, with one
    upper cover, are as many on each of these groups: observed, not derived."""
    L = subgroup_lattice(make_group(name))
    systems, covers = hasse_diagram(L, bound=34)
    lower, upper = Counter(j for _, j in covers), Counter(i for i, _ in covers)
    assert {systems[j] for j, c in lower.items() if c == 1} == \
        {generate(L, [orbit[0]]) for orbit in L.pair_orbits}
    assert sum(c == 1 for c in upper.values()) == len(L.pair_orbits)
