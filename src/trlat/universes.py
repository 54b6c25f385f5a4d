"""Index-set avatars of cyclic-group universes and rotation representations.

A universe over C_n is recorded as the subset I of Z/n with 0 in I, closed
under negation mod n; member i stands for infinitely many copies of the
two-dimensional rotation representation of label i (the generator acts by
rotation through 2*pi*i/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CyclicUniverseIndexSet:
    """Subset of Z/n containing 0 and closed under additive inversion."""

    modulus: int
    members: frozenset[int]

    @classmethod
    def canonical(cls, modulus: int, members) -> "CyclicUniverseIndexSet":
        """Canonicalize: reduce mod n, insert 0, close under negation."""
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        reduced = {int(i) % modulus for i in members}
        reduced.add(0)
        reduced |= {(-i) % modulus for i in reduced}
        return cls(modulus, frozenset(reduced))

    def reduction(self, e: int) -> frozenset[int]:
        return frozenset(i % e for i in self.members)

    def sorted(self) -> list[int]:
        return sorted(self.members)

    def __repr__(self) -> str:
        return f"U({self.modulus}; {{{','.join(map(str, self.sorted()))}}})"


def induce_lambda(d: int, n: int, m: int) -> list[int]:
    """Induction from C_d to C_n of label m: labels m + d*a for 0 <= a < n/d."""
    if n % d != 0:
        raise ValueError(f"{d} does not divide {n}")
    return sorted((m + d * a) % n for a in range(n // d))


def lambda_kernel_order(n: int, i: int) -> int:
    """Order of the kernel of the label-i rotation representation of C_n."""
    return math.gcd(n, i % n)


def _negation_classes(n: int) -> list[frozenset[int]]:
    """The classes {i, -i} of the nonzero residues mod n, by least member."""
    return [frozenset({i, n - i}) for i in range(1, n // 2 + 1)]


def index_set_count(n: int) -> int:
    return 1 << (n // 2)
