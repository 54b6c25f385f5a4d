"""Layer filtrations and maximal chains."""

import pytest

from trlat.chains import maximal_chain
from trlat.groups import cyclic_group, make_group
from trlat.lattice import subgroup_lattice
from trlat.transfer import TransferSystem, enumerate_all, validate


def L_(name):
    return subgroup_lattice(make_group(name))


def layer_subgroups(L):
    """The subgroups of each class id of L.class_of, in canonical order."""
    return [[s for s in range(L.n) if L.class_of[s] == c] for c in range(max(L.class_of) + 1)]


def test_layers_cp3():
    L = subgroup_lattice(cyclic_group(27))
    layers = layer_subgroups(L)
    assert [[L.order_of(s) for s in layer] for layer in layers] == [[1], [3], [9], [27]]


def test_layers_trivial_group():
    L = subgroup_lattice(cyclic_group(1))
    assert layer_subgroups(L) == [[0]]
    assert len(maximal_chain(L)) == 1


def test_layers_k4_one_class_per_subgroup():
    L = L_("K4")
    layers = layer_subgroups(L)
    assert [[L.names[s] for s in layer] for layer in layers] == \
        [["1"], ["<a>"], ["<b>"], ["<c>"], ["K4"]]


def test_layers_sym3_groups_conjugates():
    L = L_("Sym3")
    layers = layer_subgroups(L)
    assert [len(layer) for layer in layers] == [1, 3, 1, 1]


def test_prefixes_downward_closed_and_invariant():
    for name in ("Sym3", "Q8", "Sym4"):
        L = L_(name)
        layers = layer_subgroups(L)
        prefix = set()
        for m, layer in enumerate(layers):
            prefix |= set(layer)
            for s in prefix:
                for t in range(L.n):
                    if L.includes[t][s]:
                        assert t in prefix
                for g in range(L.group.order):
                    assert L.conjugate[g][s] in prefix
            for k in prefix:
                for h in prefix:
                    if k != h and L.includes[k][h]:
                        assert L.class_of[k] < L.class_of[h]


def peeled_chain_order(L):
    """Layers by peeling off the conjugacy class of the least remaining
    subgroup, and pair orbits by layer blocks (0,1), (0,2), (1,2), (0,3), ...,
    each in L.pair_orbits order: a reference that shares no code with
    chains.py."""
    remaining, layers = set(range(L.n)), []
    while remaining:
        pick = min(remaining)
        layer = sorted({L.conjugate[g][pick] for g in range(L.group.order)})
        layers.append(layer)
        remaining -= set(layer)
    layer_of = {s: i for i, layer in enumerate(layers) for s in layer}
    order = [orbit for j in range(len(layers)) for i in range(j) for orbit in L.pair_orbits
             if (layer_of[orbit[0][0]], layer_of[orbit[0][1]]) == (i, j)]
    return layers, tuple(layer[0] for layer in layers), tuple(order)


@pytest.mark.parametrize("name", ["Q8", "Sym4", "D10", "C2xC6", "C2xC2xC2", "C2xC2xC6"])
def test_chain_order_matches_peeled_layers(name):
    L = L_(name)
    layers, choices, order = peeled_chain_order(L)
    chain = maximal_chain(L)
    assert layer_subgroups(L) == layers
    assert chain.layer_choices == L.class_reps == choices
    assert chain.orbit_order == order


@pytest.mark.parametrize("name,length", [("C8", 7), ("C27", 7), ("K4", 8),
                                         ("Q8", 13), ("Sym3", 6)])
def test_chain_lengths(name, length):
    L = L_(name)
    chain = maximal_chain(L)
    assert len(chain) == length == 1 + len(L.pair_orbits)


def test_chain_structure():
    for name in ("C8", "K4", "Q8", "Sym3"):
        L = L_(name)
        chain = maximal_chain(L)
        assert chain.systems[0] == TransferSystem.diagonal(L)
        assert chain.systems[-1] == TransferSystem.maximum(L)
        for a, b in zip(chain.systems, chain.systems[1:]):
            assert a.refines(b) and a != b
        for T, S in zip(chain.systems, chain.systems[1:]):
            added = frozenset(set(S.pairs()) - set(T.pairs()))
            assert added in {frozenset(o) for o in L.pair_orbits}
        for T in chain.systems:
            assert validate(L, T.pairs()) == []


def test_chain_elements_are_enumerated_systems():
    for name in ("C8", "K4", "Q8", "Sym3"):
        L = L_(name)
        pool = set(enumerate_all(L))
        assert all(T in pool for T in maximal_chain(L).systems)


def test_k4_chain_reproduces_the_listed_sequence():
    L = L_("K4")
    a, b, c = (L.resolve_name(x) for x in ("<a>", "<b>", "<c>"))
    top = L.full
    chain = maximal_chain(L)
    expected = [
        set(),
        {(0, a)},
        {(0, a), (0, b)},
        {(0, a), (0, b), (0, c)},
        {(0, a), (0, b), (0, c), (0, top)},
        {(0, a), (0, b), (0, c), (0, top), (a, top)},
        {(0, a), (0, b), (0, c), (0, top), (a, top), (b, top)},
        {(0, a), (0, b), (0, c), (0, top), (a, top), (b, top), (c, top)},
    ]
    assert [set(T.pairs()) for T in chain.systems] == expected


def test_sym4_chain_without_enumeration():
    L = L_("Sym4")
    chain = maximal_chain(L)
    assert len(chain) == 1 + len(L.pair_orbits) == 35
    for T in (chain.systems[0], chain.systems[17], chain.systems[-1]):
        assert validate(L, T.pairs()) == []
