"""Maximal chains in Tr(G) built one conjugation orbit of pairs at a time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence
from .lattice import SubgroupLattice
from .transfer import TransferSystem, _bits_of, _checked


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


def layer_subgroups(L: SubgroupLattice) -> list[list[int]]:
    """Partition the subgroups into conjugacy-class layers.

    Repeatedly take the least remaining canonical index, which is minimal
    among the remaining subgroups because the canonical order is by order,
    and peel off its conjugacy class.  Every prefix union is
    downward-closed and conjugation-invariant.
    """
    remaining = list(range(L.n))
    layers: list[list[int]] = []
    while remaining:
        pick = min(remaining)
        layer = sorted({L.conjugate[g][pick] for g in range(L.group.order)})
        layers.append(layer)
        remaining = [s for s in remaining if s not in layer]
    return layers


def maximal_chain(L: SubgroupLattice) -> MaximalChain:
    """Build a maximal-length chain from the layer filtration.

    Inclusion pairs between layers i < j are grouped into conjugation
    orbits; blocks are visited in the order (0,1), (0,2), (1,2), (0,3), ...
    and orbits within a block in L.pair_orbits order, which is by least
    pair.  Each partial union is itself a transfer system and is validated.
    """
    layers = layer_subgroups(L)
    layer_of = {}
    for i, layer in enumerate(layers):
        for s in layer:
            layer_of[s] = i

    blocks: dict[tuple[int, int], list[tuple[tuple[int, int], ...]]] = {}
    for orbit in L.pair_orbits:
        k, h = orbit[0]
        blocks.setdefault((layer_of[k], layer_of[h]), []).append(orbit)

    ordered: list[tuple[tuple[int, int], ...]] = []
    for j in range(1, len(layers)):
        for i in range(j):
            ordered.extend(blocks.get((i, j), []))

    systems = [TransferSystem.diagonal(L)]
    for orbit in ordered:
        systems.append(_checked(L, systems[-1].bits | _bits_of(L, orbit),
                                "chain step is not a transfer system"))

    if systems[-1] != TransferSystem.maximum(L):
        raise AssertionError("chain did not reach the maximum system")
    if len(systems) != 1 + len(L.pair_orbits):
        raise AssertionError("chain length does not match the orbit count bound")
    return MaximalChain(tuple(systems), tuple(layer[0] for layer in layers),
                        tuple(ordered))


def inclusion_partition_identity(L: SubgroupLattice, layers: Sequence[Sequence[int]],
                                 m: int) -> bool:
    """Inclusion pairs within the first m+1 layers split as diagonal plus blocks."""
    prefix = {s for layer in layers[:m + 1] for s in layer}
    layer_of = {s: i for i, layer in enumerate(layers) for s in layer}
    inclusion = {(k, h) for k in prefix for h in prefix if L.includes[k][h]}
    blocks = set()
    for k, h in inclusion:
        if k != h:
            if not layer_of[k] < layer_of[h]:
                return False
            blocks.add((k, h))
    return inclusion == blocks | {(s, s) for s in prefix}
