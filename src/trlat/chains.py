"""Maximal chains in Tr(G) built one conjugation orbit of pairs at a time."""

from __future__ import annotations

from dataclasses import dataclass
from .lattice import SubgroupLattice
from .transfer import TransferSystem


@dataclass(frozen=True)
class MaximalChain:
    """A maximal-length chain of transfer systems.

    systems[0] is the diagonal, systems[-1] the maximum, and each step adds
    exactly one conjugation orbit of inclusion pairs; the length is therefore
    1 + (number of pair orbits), which no chain in Tr(G) can exceed.
    """

    systems: tuple[TransferSystem, ...]
    layer_choices: tuple[int, ...]
    orbit_order: tuple[tuple[tuple[int, int], ...], ...]

    def __len__(self) -> int:
        return len(self.systems)


def maximal_chain(L: SubgroupLattice) -> MaximalChain:
    """Build a maximal-length chain from the layer filtration.

    The layers are the conjugacy classes of L.class_of; layer_choices are
    their least members, L.class_reps.  A proper inclusion K < H has
    |K| < |H|, so its source class id is below its target class id; pair
    orbits are added by (target class, source class), and within one such
    block in L.pair_orbits order, which is by least pair.  Each partial
    union is a transfer system: it holds whole orbits and every pair of each
    earlier block, and restricting a held pair to a proper subgroup of its
    target, or composing two held pairs, gives a pair of a block before that
    of a pair it came from.
    """
    class_of = L.class_of
    ordered = sorted(L.pair_orbits, key=lambda o: (class_of[o[0][1]], class_of[o[0][0]]))

    n = L.n
    systems = [TransferSystem.diagonal(L)]
    for orbit in ordered:
        systems.append(TransferSystem(L, systems[-1].bits | sum(1 << k * n + h for k, h in orbit)))
    return MaximalChain(tuple(systems), L.class_reps, tuple(ordered))
