"""Finite groups as validated Cayley tables with 0-based element indices."""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Callable, Iterable, Sequence


class GroupValidationError(ValueError):
    """Raised when a group spec or Cayley table describes no group trlat builds."""


# The largest group order a constructor builds: C_{2^11}, the largest order
# timed end to end.  A table of order N holds N^2 entries.
MAX_ORDER = 2048


def check_order(order: int, what: str) -> None:
    """Refuse a group above MAX_ORDER before any of its table is built."""
    if order > MAX_ORDER:
        raise GroupValidationError(f"{what} is above the order limit {MAX_ORDER}")


class FiniteGroup:
    """A finite group given by a composition table on {0, ..., order-1}.

    Instances are immutable after construction and safe to share between
    threads.  The arguments are checked, never coerced: `table` is a list
    or tuple of rows, each a list or tuple of ints (a bool or a float is not
    one), `names` a list or tuple of strings and `name` a string.
    Construction then validates the table: totality, a two-sided identity,
    two-sided inverses, and associativity (by Light's test over a
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
        if not isinstance(table, (list, tuple)):
            raise GroupValidationError(f"table must be a list of rows, got {table!r}")
        n = len(table)
        if n == 0:
            raise GroupValidationError("empty Cayley table")
        rows = []
        for row in table:
            if not isinstance(row, (list, tuple)):
                raise GroupValidationError(f"table row must be a list, got {row!r}")
            if len(row) != n:
                raise GroupValidationError(
                    f"Cayley table is not square: row of length {len(row)}, expected {n}")
            for x in row:
                if type(x) is not int:
                    raise GroupValidationError(f"table entry {x!r} is not an integer")
                if not 0 <= x < n:
                    raise GroupValidationError(f"table entry {x} outside 0..{n - 1}")
            rows.append(tuple(row))
        self.order = n
        self._table = tuple(rows)
        if names is None:
            names = tuple(f"x{i}" for i in range(n))
        elif isinstance(names, (list, tuple)) and all(isinstance(s, str) for s in names):
            names = tuple(names)
            if len(names) != n:
                raise GroupValidationError(
                    f"names has length {len(names)}, but the table has order {n}")
        else:
            raise GroupValidationError(f"names must be a list of strings, got {names!r}")
        if not isinstance(name, str):
            raise GroupValidationError(f"name must be a string, got {name!r}")
        self.element_names = names
        self.name = name

        self.identity = self._find_identity()
        self._invert = self._find_inverses()
        self.generators = tuple(self._right_closure(range(n))[1])
        self._check_associative()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self._table[e][x] == x == self._table[x][e] for x in range(self.order)):
                return e
        raise GroupValidationError("no two-sided identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        t, e = self._table, self.identity
        inv = []
        for x, row in enumerate(t):
            try:
                y = row.index(e)
                while t[y][x] != e:
                    y = row.index(e, y + 1)
            except ValueError:
                raise GroupValidationError(
                    f"element {self.element_names[x]} has no two-sided inverse") from None
            inv.append(y)
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

    @functools.cached_property
    def is_abelian(self) -> bool:
        """True iff the generators commute pairwise, as they generate G."""
        t = self._table
        return all(t[a][b] == t[b][a] for a, b in itertools.combinations(self.generators, 2))

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


@functools.lru_cache(maxsize=None, typed=True)
def cyclic_group(n: int) -> FiniteGroup:
    """C_n, additive on residues, generator named g."""
    if type(n) is not int:  # nor a bool
        raise GroupValidationError(f"cyclic order n must be an integer, got {n!r}")
    if n < 1:
        raise GroupValidationError(f"cyclic order must be >= 1, got {n}")
    check_order(n, f"C{n}")
    row = tuple(range(n))
    table = [row[a:] + row[:a] for a in range(n)]  # n^2 entries, n int objects
    names = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return _built(FiniteGroup(table, names, name=f"C{n}"), kind="cyclic", n=n)


def abelian_group(factors: tuple[int, ...]) -> FiniteGroup:
    """Direct product of cyclic groups given by invariant factors."""
    if not all(type(f) is int for f in factors):  # before the cache, where (2, 2.0) == (2, 2)
        raise GroupValidationError(f"invariant factors must be integers, got {list(factors)}")
    if not factors or any(f < 2 for f in factors):
        raise GroupValidationError(f"invariant factors must all be >= 2, got {list(factors)}")
    return cyclic_group(factors[0]) if len(factors) == 1 else _abelian_product(tuple(factors))


@functools.lru_cache(maxsize=None)
def _abelian_product(factors: tuple[int, ...]) -> FiniteGroup:
    name = "x".join(f"C{f}" for f in factors)
    check_order(math.prod(factors), name)
    items = list(itertools.product(*(range(f) for f in factors)))

    def op(a, b):
        return tuple((x + y) % f for x, y, f in zip(a, b, factors))

    names = ["e" if all(x == 0 for x in a) else "(" + ",".join(map(str, a)) + ")"
             for a in items]
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


@functools.lru_cache(maxsize=None, typed=True)
def symmetric_group(n: int) -> FiniteGroup:
    """Sym_n on points 1..n, elements named in cycle notation."""
    if type(n) is not int or n < 0:  # nor a bool
        raise GroupValidationError(f"symmetric degree n must be an integer >= 0, got {n!r}")
    check_order(math.factorial(n), f"Sym{n}")
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


@functools.lru_cache(maxsize=None, typed=True)
def dihedral_group(two_p: int) -> FiniteGroup:
    """D_2p for an odd prime p: rotations r^a and reflections r^a s."""
    if type(two_p) is not int:  # nor a bool
        raise GroupValidationError(f"dihedral order two_p must be an integer, got {two_p!r}")
    if two_p % 2 != 0:
        raise GroupValidationError(f"dihedral order must be even, got {two_p}")
    check_order(two_p, f"D{two_p}")
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
    return _built(FiniteGroup(abelian_group((2, 2))._table, ["1", "a", "b", "c"], name="K4"),
                  kind="builtin", name="K4")


_BUILTINS: dict[str, Callable[[], FiniteGroup]] = {
    "K4": klein_group,
    "Q8": quaternion_group,
    "Sym3": lambda: symmetric_group(3),
    "Sym4": lambda: symmetric_group(4),
}


def _order(name: str, digits: str) -> int:
    """An order or factor of the builtin name.  A numeral with more digits
    than MAX_ORDER, leading zeros aside, is above it, and is refused before
    int() meets Python's limit on the digits it converts."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_ORDER)):
        shown = name if len(name) <= 40 else f"{name[:12]}... ({len(digits)} digits)"
        raise GroupValidationError(f"{shown} is above the order limit {MAX_ORDER}")
    return int(digits)


def builtin_group(name: str) -> FiniteGroup:
    if name in _BUILTINS:
        return _BUILTINS[name]()
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        return dihedral_group(_order(name, m.group(1)))
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        return cyclic_group(_order(name, m.group(1)))
    if re.fullmatch(r"C\d+(xC\d+)+", name):
        return abelian_group(tuple(_order(name, f[1:]) for f in name.split("x")))
    raise GroupValidationError(f"unknown builtin group {name!r}")


# Each kind's fields: the required one, then any optional ones
_SPEC_FIELDS = {"cyclic": ("n",), "abelian": ("factors",), "builtin": ("name",),
                "table": ("table", "names", "name")}


def make_group(spec) -> FiniteGroup:
    """Build a group from a spec dict ({'kind': ...}) or a shorthand string.

    Kinds: cyclic (n), abelian (factors), builtin (name), table (table,
    optional names/name).  A bare string is treated as a builtin name,
    which also accepts C<n>, D<2p> and products C<a>xC<b>...

    This is the one check of a spec, and nothing is coerced: a key that is
    not one of its kind's fields, a missing field, an `n` or factor that is
    not an int (a bool or an integral float is not one) and a builtin
    `name` that is not a string are refused with a GroupValidationError
    that names the field.  FiniteGroup checks a table's fields.
    """
    if isinstance(spec, str):
        return builtin_group(spec)
    if not isinstance(spec, dict):
        raise GroupValidationError(f"group spec must be a name or an object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise GroupValidationError(
            f"field 'kind' must be one of {', '.join(_SPEC_FIELDS)}, got {kind!r}")
    fields = _SPEC_FIELDS[kind]
    foreign = [key for key in spec if key != "kind" and key not in fields]
    if foreign:
        raise GroupValidationError(f"a spec of kind {kind!r} has no field {foreign[0]!r}")
    if fields[0] not in spec:
        raise GroupValidationError(f"a spec of kind {kind!r} needs field {fields[0]!r}")
    value = spec[fields[0]]
    if kind == "cyclic":
        if type(value) is not int:  # nor a bool
            raise GroupValidationError(f"field 'n' must be an integer, got {value!r}")
        return cyclic_group(value)
    if kind == "abelian":
        if not (isinstance(value, (list, tuple)) and all(type(f) is int for f in value)):
            raise GroupValidationError(f"field 'factors' must be a list of integers, got {value!r}")
        return abelian_group(tuple(value))
    if kind == "builtin":
        if not isinstance(value, str):
            raise GroupValidationError(f"field 'name' must be a string, got {value!r}")
        return builtin_group(value)
    if spec.get("names", ()) is None:  # FiniteGroup's default, but not a list of strings
        raise GroupValidationError("names must be a list of strings, got None")
    return FiniteGroup(value, spec.get("names"), name=spec.get("name", "G"))


def group_spec(G: FiniteGroup) -> dict:
    """A JSON-ready spec that make_group rebuilds the group from: the one its
    constructor recorded, else the table itself."""
    if G.spec:
        return dict(G.spec)
    return {"kind": "table", "name": G.name,
            "table": [list(row) for row in G._table], "names": list(G.element_names)}
