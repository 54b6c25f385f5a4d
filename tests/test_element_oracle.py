"""The paper's dictionary, checked on elements: the admissible orbits of an
indexing system, closed from the Cayley table by `ElementOracle`, are the
pairs of the transfer system that `generate` and `enumerate_all` build from
the lattice tables."""

import random
from types import SimpleNamespace

import pytest

from trlat.groups import abelian_group, cyclic_group, make_group
from trlat.lattice import subgroup_lattice
from trlat.transfer import TransferSystem, enumerate_all, generate, join

from element_oracle import ElementOracle
from tables import dihedral, relabeled


def oracle(L):
    """The oracle on a view of L that holds the Cayley table and the member
    sets, and none of the lattice's derived tables."""
    G = L.group
    return ElementOracle(SimpleNamespace(group=SimpleNamespace(order=G.order, compose=G.compose),
                                         subgroups=L.subgroups))


SOURCES = {"Sym4": lambda: make_group("Sym4"), "D8": lambda: relabeled(dihedral(4), 17),
           "Q8": lambda: make_group("Q8"), "D10": lambda: make_group("D10"),
           "C2xC2xC2": lambda: abelian_group((2, 2, 2))}


@pytest.mark.parametrize("name", SOURCES)
def test_oracle_matches_generate(name):
    """Every single pair, then seeded relations of up to three pairs."""
    L = subgroup_lattice(SOURCES[name]())
    O = oracle(L)
    rng = random.Random(f"oracle {name}")
    relations = [[p] for p in sorted(O.pairs(O.proper))]
    relations += [sorted(O.pairs(rng.sample(O.proper, rng.randint(0, 3)))) for _ in range(60)]
    for relation in relations:
        assert O.generate(relation) == set(generate(L, relation).pairs()), relation


@pytest.mark.parametrize("name", ["Sym3", "Q8", "D10", "D8"])
def test_oracle_families_are_tr(name):
    """C2xC2xC2 is left out: enumerate_all keeps its 10,429,586 systems."""
    L = subgroup_lattice(SOURCES.get(name, lambda: make_group(name))())
    O = oracle(L)
    assert ({frozenset(O.pairs(F)) for F in O.families()}
            == {frozenset(T.pairs()) for T in enumerate_all(L)})


def test_trivial_orbits_always_admissible():
    """The orbits H/H alone generate the diagonal, on every subgroup."""
    for name in ("C4", "Q8", "Sym3"):
        L = subgroup_lattice(make_group(name))
        trivial = [(h, h) for h in range(L.n)]
        assert oracle(L).generate(trivial) == set(generate(L, trivial).pairs()) == set()


def test_empty_relation_generates_the_diagonal():
    """The empty H-set has no orbits to close: the least family is the
    diagonal."""
    L = subgroup_lattice(make_group("C4"))
    O = oracle(L)
    assert O.close(()) == frozenset()
    assert O.generate([]) == set(generate(L, []).pairs()) == set(TransferSystem.diagonal(L).pairs())


def test_identity_orbits_add_nothing_to_any_system():
    """An identity map H/H -> H/H lies in every system: adding the orbit
    H/H to the orbits of any T in Tr(Sym3) closes to T again."""
    L = subgroup_lattice(make_group("Sym3"))
    O = oracle(L)
    for T in enumerate_all(L):
        for s in range(L.n):
            assert O.generate(T.pairs() + [(s, s)]) == set(T.pairs())


def test_admitted_orbits_reconstruct_uniquely():
    L = subgroup_lattice(make_group("Sym3"))
    O = oracle(L)
    for T in enumerate_all(L):
        admitted = O.generate(T.pairs())
        assert admitted == set(T.pairs())
        assert TransferSystem.from_pairs(L, sorted(admitted)) == T


def test_admits_monotone_and_union_closed():
    """On Tr(K4): a finer system admits fewer orbits, and the orbits of two
    systems together generate their join."""
    L = subgroup_lattice(make_group("K4"))
    O = oracle(L)
    systems = enumerate_all(L)
    admitted = {T: O.generate(T.pairs()) for T in systems}
    for T1 in systems:
        for T2 in systems:
            if T1.refines(T2):
                assert admitted[T1] <= admitted[T2]
            assert O.generate(T1.pairs() + T2.pairs()) == set(join(T1, T2).pairs())


def test_c9_orbit_admissibility():
    L = subgroup_lattice(cyclic_group(9))
    c3 = next(s for s in range(L.n) if L.order_of(s) == 3)
    admitted = oracle(L).generate([(c3, L.full)])
    assert (c3, L.full) in admitted and (0, L.full) not in admitted
    assert admitted == set(generate(L, [(c3, L.full)]).pairs())


def test_projection_membership_is_the_relation():
    L = subgroup_lattice(cyclic_group(8))
    T = generate(L, [(0, 2)])
    admitted = oracle(L).generate([(0, 2)])
    for k, h in L.proper_pairs:
        assert ((k, h) in admitted) == T.contains(k, h)


def test_conjugated_projection_sym3():
    """Sym3/<(12)> admissible makes its conjugate Sym3/<(13)> admissible."""
    L = subgroup_lattice(make_group("Sym3"))
    t12, t13 = L.resolve_name("<(12)>"), L.resolve_name("<(13)>")
    admitted = oracle(L).generate([(t12, L.full)])
    assert (t13, L.full) in admitted
    assert admitted == set(generate(L, [(t12, L.full)]).pairs())
