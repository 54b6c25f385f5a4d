"""Finite groups as validated Cayley tables with 0-based element indices."""

from __future__ import annotations

import functools
import itertools
import re
from typing import Callable, Iterable, Sequence


class GroupValidationError(ValueError):
    """Raised when a Cayley table fails the group axioms."""


class FiniteGroup:
    """A finite group given by a composition table on {0, ..., order-1}.

    Instances are immutable after construction and safe to share between
    threads.  Construction validates the table: totality, a two-sided
    identity, two-sided inverses, and associativity (by Light's test over a
    generating set; all supported groups have order <= 24).  That set is
    `generators`: each element, in index order, that the earlier ones do
    not generate.

    `spec` records how a named constructor built the group, as the
    make_group spec that rebuilds it; a group built from a bare table has
    none, whatever its `name`.  Every choice that depends on which group
    this is reads `kind`, never the name.
    """

    spec: dict | None = None

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None,
                 name: str = "G"):
        n = len(table)
        if n == 0:
            raise GroupValidationError("empty Cayley table")
        rows = []
        for row in table:
            if len(row) != n:
                raise GroupValidationError(
                    f"Cayley table is not square: row of length {len(row)}, expected {n}")
            row = tuple(int(x) for x in row)
            for x in row:
                if not 0 <= x < n:
                    raise GroupValidationError(f"table entry {x} outside 0..{n - 1}")
            rows.append(row)
        self.order = n
        self._table = tuple(rows)
        if names is None:
            names = tuple(f"x{i}" for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise GroupValidationError(
                    f"names has length {len(names)}, but the table has order {n}")
        self.element_names = names
        self.name = name

        self.identity = self._find_identity()
        self._invert = self._find_inverses()
        self.generators = tuple(self._right_closure(range(n))[1])
        self._check_associative()
        self._abelian: bool | None = None

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self._table[e][x] == x == self._table[x][e] for x in range(self.order)):
                return e
        raise GroupValidationError("no two-sided identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = []
        e = self.identity
        for x in range(self.order):
            for y in range(self.order):
                if self._table[x][y] == e == self._table[y][x]:
                    inv.append(y)
                    break
            else:
                raise GroupValidationError(
                    f"element {self.element_names[x]} has no two-sided inverse")
        return tuple(inv)

    def _check_associative(self) -> None:
        """Light's test: (x g) y == x (g y) for all x, y and each g of a
        generating set.  The g that pass are closed under products, and
        every element is a right product of generators from the identity,
        so this is as exact as checking every triple."""
        t = self._table
        for g in self.generators:
            row_g = t[g]
            for x in range(self.order):
                row_x = t[x]
                row_xg = t[row_x[g]]
                if row_xg != tuple(map(row_x.__getitem__, row_g)):
                    y = next(y for y in range(self.order) if row_xg[y] != row_x[row_g[y]])
                    raise GroupValidationError(
                        "non-associative table at triple "
                        f"({self.element_names[x]}, {self.element_names[g]}, "
                        f"{self.element_names[y]})")

    # -- basic operations ---------------------------------------------------

    def compose(self, a: int, b: int) -> int:
        return self._table[a][b]

    def invert(self, a: int) -> int:
        return self._invert[a]

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self._table[self._table[g][x]][self._invert[g]]

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != self.identity:
            x = self._table[x][a]
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self._table
            self._abelian = all(t[a][b] == t[b][a]
                                for a in range(self.order) for b in range(self.order))
        return self._abelian

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by the given elements."""
        return frozenset(self._right_closure(seed)[0])

    def _right_closure(self, seed: Iterable[int]) -> tuple[set[int], list[int]]:
        """Elements reached from the identity by right multiplication, and
        the generators used.

        Seed elements already reached are skipped; each new one joins the
        generators, and the members are closed under right multiplication
        by them, which in a finite group also captures inverses.
        """
        members = {self.identity}
        gens: list[int] = []
        for g in seed:
            if g in members:
                continue
            gens.append(g)
            frontier = list(members)
            while frontier:
                new = []
                for x in frontier:
                    row = self._table[x]
                    for s in gens:
                        z = row[s]
                        if z not in members:
                            members.add(z)
                            new.append(z)
                frontier = new
        return members, gens

    @property
    def kind(self) -> str:
        return self.spec["kind"] if self.spec else "table"

    def name_of(self, x: int) -> str:
        return self.element_names[x]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# -- constructions ----------------------------------------------------------

def is_prime(n: int) -> bool:
    """Trial division up to the square root; n < 2 is not prime."""
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _built(G: FiniteGroup, **spec) -> FiniteGroup:
    G.spec = spec
    return G


def _table_from_op(items: list, op: Callable) -> list[list[int]]:
    index = {x: i for i, x in enumerate(items)}
    return [[index[op(a, b)] for b in items] for a in items]


@functools.lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    """C_n, additive on residues, generator named g."""
    if n < 1:
        raise GroupValidationError(f"cyclic order must be >= 1, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    names = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return _built(FiniteGroup(table, names, name=f"C{n}"), kind="cyclic", n=n)


@functools.lru_cache(maxsize=None)
def abelian_group(factors: tuple[int, ...]) -> FiniteGroup:
    """Direct product of cyclic groups given by invariant factors."""
    factors = tuple(int(f) for f in factors)
    if not factors or any(f < 2 for f in factors):
        raise GroupValidationError(f"invariant factors must all be >= 2, got {list(factors)}")
    if len(factors) == 1:
        return cyclic_group(factors[0])
    items = list(itertools.product(*(range(f) for f in factors)))

    def op(a, b):
        return tuple((x + y) % f for x, y, f in zip(a, b, factors))

    names = ["e" if all(x == 0 for x in a) else "(" + ",".join(map(str, a)) + ")"
             for a in items]
    name = "x".join(f"C{f}" for f in factors)
    return _built(FiniteGroup(_table_from_op(items, op), names, name=name),
                  kind="abelian", factors=list(factors))


def _perm_compose(a: tuple, b: tuple) -> tuple:
    # apply b first, then a
    return tuple(a[b[i]] for i in range(len(a)))


def _cycle_name(p: tuple) -> str:
    seen, parts = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + "".join(str(c) for c in cyc) + ")")
    return "".join(parts) if parts else "e"


@functools.lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    """Sym_n on points 1..n, elements named in cycle notation."""
    items = sorted(itertools.permutations(range(n)))
    names = [_cycle_name(p) for p in items]
    G = FiniteGroup(_table_from_op(items, _perm_compose), names, name=f"Sym{n}")
    return _built(G, kind="builtin", name=f"Sym{n}") if n in (3, 4) else G


@functools.lru_cache(maxsize=None)
def quaternion_group() -> FiniteGroup:
    """Q8 = {+-1, +-i, +-j, +-k} under quaternion multiplication."""
    units = ["1", "i", "j", "k"]
    mul = {  # unit products: (u, v) -> (sign, unit)
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    items = [(s, u) for u in units for s in (1, -1)]

    def op(a, b):
        s, u = mul[(a[1], b[1])]
        return (s * a[0] * b[0], u)

    names = [("" if s == 1 else "-") + u for (s, u) in items]
    return _built(FiniteGroup(_table_from_op(items, op), names, name="Q8"),
                  kind="builtin", name="Q8")


@functools.lru_cache(maxsize=None)
def dihedral_group(two_p: int) -> FiniteGroup:
    """D_2p for an odd prime p: rotations r^a and reflections r^a s."""
    if two_p % 2 != 0:
        raise GroupValidationError(f"dihedral order must be even, got {two_p}")
    p = two_p // 2
    if p < 3 or not is_prime(p):
        raise GroupValidationError(f"D{two_p} requires an odd prime p, got p={p}")
    items = [(a, b) for b in (0, 1) for a in range(p)]

    def op(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 + (a2 if b1 == 0 else -a2)) % p, (b1 + b2) % 2)

    def nm(x):
        a, b = x
        r = "" if a == 0 else ("r" if a == 1 else f"r{a}")
        s = "s" if b else ""
        return (r + s) or "e"

    return _built(FiniteGroup(_table_from_op(items, op), [nm(x) for x in items],
                              name=f"D{two_p}"), kind="builtin", name=f"D{two_p}")


@functools.lru_cache(maxsize=None)
def klein_group() -> FiniteGroup:
    """K4 = {1, a, b, c} with ab = c; the Cayley table of the abelian group [2, 2]."""
    base = abelian_group((2, 2))
    table = [[base.compose(x, y) for y in range(4)] for x in range(4)]
    return _built(FiniteGroup(table, ["1", "a", "b", "c"], name="K4"),
                  kind="builtin", name="K4")


_BUILTINS: dict[str, Callable[[], FiniteGroup]] = {
    "K4": klein_group,
    "Q8": quaternion_group,
    "Sym3": lambda: symmetric_group(3),
    "Sym4": lambda: symmetric_group(4),
}


def builtin_group(name: str) -> FiniteGroup:
    if name in _BUILTINS:
        return _BUILTINS[name]()
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        return dihedral_group(int(m.group(1)))
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        return cyclic_group(int(m.group(1)))
    if re.fullmatch(r"C\d+(xC\d+)+", name):
        return abelian_group(tuple(int(f[1:]) for f in name.split("x")))
    raise GroupValidationError(f"unknown builtin group {name!r}")


def make_group(spec) -> FiniteGroup:
    """Build a group from a spec dict ({'kind': ...}) or a shorthand string.

    Kinds: cyclic (n), abelian (factors), builtin (name), table (table,
    optional names/name).  A bare string is treated as a builtin name,
    which also accepts C<n>, D<2p> and products C<a>xC<b>...
    """
    if isinstance(spec, str):
        return builtin_group(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GroupValidationError(f"group spec must be a name or a dict with 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic_group(int(spec["n"]))
    if kind == "abelian":
        return abelian_group(tuple(int(f) for f in spec["factors"]))
    if kind == "builtin":
        return builtin_group(spec["name"])
    if kind == "table":
        return FiniteGroup(spec["table"], spec.get("names"), name=spec.get("name", "G"))
    raise GroupValidationError(f"unknown group kind {kind!r}")


def group_spec(G: FiniteGroup) -> dict:
    """A JSON-ready spec that make_group rebuilds the group from: the one its
    constructor recorded, else the table itself."""
    if G.spec:
        return dict(G.spec)
    return {"kind": "table", "name": G.name,
            "table": [list(row) for row in G._table], "names": list(G.element_names)}
