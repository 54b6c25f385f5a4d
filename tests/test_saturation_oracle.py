"""Saturation and irreducible pairs against an oracle on member sets,
which shares no code with the lattice's inclusion tables.

A transfer system is saturated when it fills every horn (Blumberg and
Hill): K -> H forces K -> L and L -> H for every subgroup L with
K <= L <= H.  A pair (K, H) is irreducible when K is maximal proper in H.
The oracle reads both from the subgroups' member sets alone.
"""

import random

import pytest

from trlat.groups import make_group
from trlat.lattice import subgroup_lattice
from trlat.transfer import enumerate_all, irreducible_pairs, is_saturated

from tables import dihedral, relabeled


def fills_every_horn(T):
    subgroups = T.lattice.subgroups
    held = set(T.pairs()) | {(i, i) for i in range(len(subgroups))}
    return all((k, l) in held and (l, h) in held
               for k, h in held for l, M in enumerate(subgroups)
               if subgroups[k] <= M <= subgroups[h])


def maximal_pairs(T):
    subgroups = T.lattice.subgroups
    return [(k, h) for k, h in T.pairs()
            if not any(subgroups[k] < M < subgroups[h] for M in subgroups)]


def lattice(name):
    """A builtin group's lattice, or D<2m>'s as a relabeled bare table."""
    if name.endswith("-relabeled"):
        return subgroup_lattice(relabeled(dihedral(int(name[1:name.index("-")]) // 2), 3))
    return subgroup_lattice(make_group(name))


@pytest.mark.parametrize("name,bound,saturated", [
    ("Q8", 24, 24), ("C24", 24, 73), ("C2xC6", 26, 168),
    ("D8-relabeled", 24, 48), ("D12-relabeled", 26, 122)])
def test_saturation_and_irreducibles_match_the_oracle(name, bound, saturated):
    systems = enumerate_all(lattice(name), bound=bound)
    verdicts = [is_saturated(T) for T in systems]
    assert verdicts == [fills_every_horn(T) for T in systems]
    assert sum(verdicts) == saturated
    assert [irreducible_pairs(T) for T in systems] == [maximal_pairs(T) for T in systems]


def test_sym4_sample_matches_the_oracle():
    """Every one of Tr(Sym4)'s 8691 systems is counted, and a seeded sample
    of 2000, with every saturated system, is checked against the oracle."""
    systems = enumerate_all(subgroup_lattice(make_group("Sym4")), bound=34)
    saturated = [T for T in systems if is_saturated(T)]
    assert len(saturated) == 132
    sample = random.Random(38).sample(systems, 2000) + saturated
    assert [is_saturated(T) for T in sample] == [fills_every_horn(T) for T in sample]
    assert [irreducible_pairs(T) for T in sample] == [maximal_pairs(T) for T in sample]
