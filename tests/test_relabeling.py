"""Invariance under relabeling: the group-theoretic results must not depend
on how the elements of a Cayley table are numbered, nor commute badly with
automorphisms."""

import json
import random

import pytest

from trlat import serialize
from trlat.chains import maximal_chain
from trlat.groups import make_group
from trlat.lattice import automorphisms, subgroup_lattice
from trlat.realize import steiner_image
from trlat.transfer import SearchBoundExceeded, aut_orbits, enumerate_all, generate

from tables import dihedral, relabeled

# one builtin token per isomorphism type of order <= 24 that the builtins
# build, but C2xC2xC6 and C2xC2xC2xC2: each of their Steiner images takes
# seconds (CI pins C2xC2xC6's)
BUILTINS = tuple(f"C{n}" for n in range(1, 25)) + (
    "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3", "C2xC6", "C2xC8", "C2xC2xC4", "C4xC4",
    "C2xC10", "C2xC12", "C3xC6", "Q8", "Sym3", "D10", "D14", "D22", "Sym4")
BOUND = 34  # Sym4 and C2xC8; C3xC6, with 33 pair orbits, has 28,350 systems


def invariants(G):
    L = subgroup_lattice(G)
    out = {"pair orbits": len(L.pair_orbits), "chain length": len(maximal_chain(L))}
    try:
        systems = enumerate_all(L, bound=BOUND)
    except SearchBoundExceeded:
        out["Tr"] = "refused"
    else:
        out["Tr"] = len(systems)
        if len(systems) < 10000:
            out["orbit profile"] = aut_orbits(systems, automorphisms(G))[1]
    if G.is_abelian:
        out["Steiner image"] = len(steiner_image(L))
    return out


@pytest.mark.parametrize("name", BUILTINS)
def test_invariants_survive_relabeling(name):
    G = make_group(name)
    assert invariants(relabeled(G, G.order)) == invariants(G)


@pytest.mark.parametrize("name", ["C2xC6", "Q8", "Sym4"])
def test_system_json_round_trip_after_relabeling(name):
    G = relabeled(make_group(name), 3)
    chain = maximal_chain(subgroup_lattice(G)).systems
    for T in random.Random(name).sample(chain, 4):
        doc = json.loads(serialize.dumps(serialize.system_to_json(T)))
        assert doc["group"]["kind"] == "table"
        assert serialize.system_from_json(doc) == T


@pytest.mark.parametrize("G", [make_group("Q8"), make_group("Sym4"), make_group("C2xC4"),
                               make_group("C2xC2xC2"), relabeled(dihedral(4), 11)],
                         ids=["Q8", "Sym4", "C2xC4", "C2xC2xC2", "D8"])
def test_generate_commutes_with_automorphisms(G):
    """generate(sigma R) is sigma(generate(R)), sigma acting on the pairs."""
    L = subgroup_lattice(G)
    rng = random.Random(G.order)
    auts = automorphisms(G)
    for sigma in rng.sample(auts, min(8, len(auts))):
        p = L.subgroup_perm(sigma)
        for _ in range(8):
            R = rng.sample(L.proper_pairs, rng.randint(0, 3))
            moved = {(p[k], p[h]) for k, h in generate(L, R).pairs()}
            assert set(generate(L, [(p[k], p[h]) for k, h in R]).pairs()) == moved, (sigma, R)
