"""Translation between transfer systems, admissible orbit data, and orbit maps."""

from __future__ import annotations

from dataclasses import dataclass
from .transfer import TransferSystem


@dataclass(frozen=True)
class HSetSpec:
    """A finite H-set given as a multiset of orbit stabilizers.

    ambient is the subgroup index H; each stabilizer entry K stands for one
    orbit H/K and must be contained in H.  Multiplicities are carried but do
    not affect admissibility.
    """

    ambient: int
    stabilizers: tuple[int, ...]


@dataclass(frozen=True)
class OrbitMapSpec:
    """An orbit map G/K -> G/H, eK |-> aH, per component (K, a, H)."""

    components: tuple[tuple[int, int, int], ...]


def admits(T: TransferSystem, spec: HSetSpec) -> bool:
    """True iff every orbit H/K of the H-set satisfies K -> H in T."""
    L = T.lattice
    for k in spec.stabilizers:
        if not L.includes[k][spec.ambient]:
            raise ValueError(f"stabilizer {L.names[k]} is not contained in "
                             f"ambient {L.names[spec.ambient]}")
    return all(T.contains(k, spec.ambient) for k in set(spec.stabilizers))


def morphism_in_category(T: TransferSystem, f: OrbitMapSpec) -> bool:
    """Membership of an orbit map in the wide subcategory attached to T.

    A component (K, a, H) is well-defined iff K <= aHa^-1; it lies in the
    category iff (K, aHa^-1) is in T.  Conjugation closure of T makes the
    single-point check per orbit sufficient.
    """
    L = T.lattice
    for k, a, h in f.components:
        target = L.conjugate[a][h]
        if not L.includes[k][target]:
            raise ValueError(
                f"ill-defined component: {L.names[k]} is not contained in "
                f"{L.group.name_of(a)}*{L.names[h]}*{L.group.name_of(a)}^-1")
        if not T.contains(k, target):
            return False
    return True
