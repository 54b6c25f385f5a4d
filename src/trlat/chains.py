"""Maximal chains in Tr(G) built one conjugation orbit of pairs at a time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence
from .lattice import SubgroupLattice
from .transfer import TransferSystem, _checked


Chooser = Callable[[SubgroupLattice, list[int]], int]
OrbitTiebreak = Callable[[tuple[tuple[int, int], ...]], object]


def default_chooser(L: SubgroupLattice, remaining: list[int]) -> int:
    return min(remaining)


def default_orbit_tiebreak(orbit: tuple[tuple[int, int], ...]):
    return min(orbit)


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


def layer_subgroups(L: SubgroupLattice, chooser: Chooser | None = None) -> list[list[int]]:
    """Partition the subgroups into conjugacy-class layers.

    Repeatedly pick a minimal remaining subgroup (default: least canonical
    index) and peel off its conjugacy class.  Every prefix union is
    downward-closed and conjugation-invariant.  A chooser returning a
    non-minimal subgroup is rejected.
    """
    chooser = chooser or default_chooser
    remaining = list(range(L.n))
    layers: list[list[int]] = []
    while remaining:
        pick = chooser(L, list(remaining))
        if pick not in remaining:
            raise ValueError(f"chooser returned {pick}, not among remaining subgroups")
        if any(s != pick and L.includes[s][pick] for s in remaining):
            raise ValueError(f"chooser returned non-minimal subgroup {L.names[pick]}")
        layer = sorted({L.conjugate[g][pick] for g in range(L.group.order)})
        layers.append(layer)
        remaining = [s for s in remaining if s not in layer]
    return layers


def maximal_chain(L: SubgroupLattice, chooser: Chooser | None = None,
                  orbit_tiebreak: OrbitTiebreak | None = None) -> MaximalChain:
    """Build a maximal-length chain from the layer filtration.

    Inclusion pairs between layers i < j are grouped into conjugation
    orbits; blocks are visited in the order (0,1), (0,2), (1,2), (0,3), ...
    and orbits within a block in tiebreak order (default: by least pair).
    Each partial union is itself a transfer system and is validated.
    """
    tiebreak = orbit_tiebreak or default_orbit_tiebreak
    layers = layer_subgroups(L, chooser)
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
            ordered.extend(sorted(blocks.get((i, j), []), key=tiebreak))

    rows = [1 << s for s in range(L.n)]
    systems = [TransferSystem(L, tuple(rows))]
    for orbit in ordered:
        for k, h in orbit:
            rows[k] |= 1 << h
        systems.append(_checked(L, tuple(rows), "chain step is not a transfer system"))

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
