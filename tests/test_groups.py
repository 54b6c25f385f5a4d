"""Group construction and validation."""

import collections
import itertools
import random
import re
import tracemalloc

import pytest

from trlat.groups import (FiniteGroup, GroupValidationError, abelian_group,
                          builtin_group, cyclic_group, dihedral_group, is_prime,
                          klein_group, make_group, symmetric_group)

from tables import ORDER_24_BUILTINS, dihedral, relabeled


def brute_isomorphism_exists(G, H):
    """Exhaustive Cayley-table bijection search (identity-fixing)."""
    if G.order != H.order:
        return False
    others = [x for x in range(G.order) if x != G.identity]
    targets = [x for x in range(H.order) if x != H.identity]
    for images in itertools.permutations(targets):
        phi = {G.identity: H.identity}
        phi.update(dict(zip(others, images)))
        if all(phi[G.compose(a, b)] == H.compose(phi[a], phi[b])
               for a in range(G.order) for b in range(G.order)):
            return True
    return False


def test_cyclic_basic():
    G = make_group({"kind": "cyclic", "n": 6})
    assert G.order == 6
    assert G.identity == 0
    assert len(G.closure([1])) == 6


def test_cyclic_table_adds_residues_and_shares_its_entries():
    """C_n's rows are rotations of one row, so a table of n^2 entries holds
    n int objects, and C1024's stays far below the ~40 MB that n^2 separate
    ints would take."""
    for n in (1, 2, 7, 12, 300):
        G = cyclic_group.__wrapped__(n)
        assert G._table == tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    tracemalloc.start()
    try:
        cyclic_group.__wrapped__(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_trivial_group_supported():
    G = cyclic_group(1)
    assert G.order == 1
    assert G.compose(0, 0) == 0


def test_q8_names_and_orders():
    G = builtin_group("Q8")
    assert G.order == 8
    assert set(G.element_names) == {"1", "-1", "i", "-i", "j", "-j", "k", "-k"}
    i = G.element_names.index("i")
    j = G.element_names.index("j")
    k = G.element_names.index("k")
    assert G.compose(i, j) == k
    assert len(G.closure([i])) == 4
    assert len(G.closure([G.element_names.index("-1")])) == 2


def test_sym3_cycle_names():
    G = symmetric_group(3)
    assert set(G.element_names) == {"e", "(12)", "(13)", "(23)", "(123)", "(132)"}
    a = G.element_names.index("(12)")
    b = G.element_names.index("(13)")
    assert not G.is_abelian
    assert len(G.closure([G.element_names.index("(123)")])) == 3
    assert G.compose(a, b) != G.compose(b, a)


@pytest.mark.parametrize("name", ORDER_24_BUILTINS + ("D8", "D12", "D24"))
def test_is_abelian_from_the_generators_matches_all_pairs(name):
    """A group is abelian iff its generators commute pairwise; the builtin
    and its seeded relabelings, which get other generators, agree with a
    comparison of every pair of entries."""
    G = dihedral(int(name[1:]) // 2) if name in ("D8", "D12", "D24") else make_group(name)
    for H in (G, relabeled(G, 1), relabeled(G, 2)):
        t = H._table
        assert H.is_abelian == all(t[a][b] == t[b][a] for a in range(H.order)
                                   for b in range(H.order))


def test_abelian_22_isomorphic_to_k4():
    assert brute_isomorphism_exists(abelian_group((2, 2)), klein_group())


def test_k4_is_the_22_table():
    base = abelian_group((2, 2))
    K = klein_group()
    assert all(base.compose(x, y) == K.compose(x, y) for x in range(4) for y in range(4))


def test_dihedral():
    G = dihedral_group(10)
    assert G.order == 10
    r = G.element_names.index("r")
    s = G.element_names.index("s")
    assert len(G.closure([r])) == 5
    assert len(G.closure([s])) == 2
    # s r s^-1 = r^-1
    assert G.conjugate(s, r) == G.invert(r)
    for order, message in ((8, "D8 requires an odd prime p, got p=4"),
                           (4, "D4 requires an odd prime p, got p=2"),
                           (2, "D2 requires an odd prime p, got p=1"),
                           (9, "dihedral order must be even, got 9")):
        with pytest.raises(GroupValidationError) as refused:
            dihedral_group(order)
        assert str(refused.value) == message


@pytest.mark.parametrize("build,arg,twin,message", [
    (cyclic_group, True, 1, "cyclic order n must be an integer, got True"),
    (cyclic_group, 4.0, 4, "cyclic order n must be an integer, got 4.0"),
    (abelian_group, (2, 2.0), (2, 2), "invariant factors must be integers, got [2, 2.0]"),
    (dihedral_group, 6.0, 6, "dihedral order two_p must be an integer, got 6.0"),
    (symmetric_group, True, 1, "symmetric degree n must be an integer >= 0, got True"),
    (symmetric_group, 7, None, "Sym7 is above the order limit 2048")],
    ids=["cyclic-bool", "cyclic-float", "abelian-float", "dihedral-float", "symmetric-bool",
         "Sym7"])
def test_constructors_refuse_before_any_table(build, arg, twin, message, monkeypatch):
    """A bool or a float is not an int, even where the int it equals is
    already cached; Sym7 (order 5040) is above the order limit."""
    if twin is not None:
        build(twin)

    def built(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr("trlat.groups.FiniteGroup", built)
    monkeypatch.setattr("trlat.groups._table_from_op", built)
    with pytest.raises(GroupValidationError) as refused:
        build(arg)
    assert str(refused.value) == message


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 60) if is_prime(n)] == \
        [n for n in range(2, 60) if all(n % d for d in range(2, n))]


def test_bad_tables_rejected():
    # a non-associative loop: identity and inverses exist, one triple fails
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupValidationError, match="triple"):
        FiniteGroup(loop)
    with pytest.raises(GroupValidationError, match="identity"):
        FiniteGroup([[1, 1], [1, 1]])
    with pytest.raises(GroupValidationError, match="inverse"):
        FiniteGroup([[0, 1, 2], [1, 1, 1], [2, 1, 0]])
    with pytest.raises(GroupValidationError, match="square"):
        FiniteGroup([[0, 1], [1]])


def test_inverse_found_past_an_earlier_identity_in_the_row():
    # row x1 holds the identity at x2 and x3, but only x3 x1 is the identity;
    # the table has two-sided inverses and fails associativity instead
    table = [[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 1, 0], [3, 0, 0, 1]]
    with pytest.raises(GroupValidationError,
                       match=re.escape("non-associative table at triple (x1, x1, x1)")):
        FiniteGroup(table)


def test_group_repr():
    assert repr(make_group("Q8")) == "FiniteGroup(Q8, order=8)"


def loops(n, rng=None):
    """Every Cayley table of a loop on 0..n-1 with identity 0 (the reduced
    Latin squares of order n); with rng, random ones."""
    t = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [row[:] for row in t]
            return
        r, c = divmod(cell, n)
        if r == 0 or c == 0:
            yield from fill(cell + 1)
            return
        used = set(t[r][:c]) | {t[i][c] for i in range(r)}
        for v in (rng.sample(range(n), n) if rng else range(n)):
            if v not in used:
                t[r][c] = v
                yield from fill(cell + 1)
        t[r][c] = None

    return fill(0)


def brute_associative(t):
    n = len(t)
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def test_loops_rejected_exactly_when_non_associative():
    def two_sided_inverses(t):
        return all(t[t[x].index(0)][x] == 0 for x in range(len(t)))

    rng = random.Random(5)
    tables = [t for t in loops(5) if two_sided_inverses(t)]
    for n in (6, 7):
        random_loops = (next(loops(n, rng)) for _ in itertools.count())
        tables += itertools.islice(filter(two_sided_inverses, random_loops), 10)
    tables += [[[G.compose(a, b) for b in range(G.order)] for a in range(G.order)]
               for G in (symmetric_group(3), cyclic_group(7))]
    # x1 generates only {x0, x1, x5} and passes; the failure needs x2
    tables.append([[0, 1, 2, 3, 4, 5], [1, 5, 4, 2, 3, 0], [2, 4, 0, 1, 5, 3],
                   [3, 2, 1, 5, 0, 4], [4, 3, 5, 0, 1, 2], [5, 0, 3, 4, 2, 1]])
    verdicts = collections.Counter()
    for t in tables:
        try:
            FiniteGroup(t)
        except GroupValidationError as err:
            assert not brute_associative(t)
            a, b, c = map(int, re.fullmatch(r"non-associative table at triple "
                                            r"\(x(\d+), x(\d+), x(\d+)\)", str(err)).groups())
            assert t[t[a][b]][c] != t[a][t[b][c]]
            verdicts[len(t), "rejected"] += 1
        else:
            assert brute_associative(t)
            verdicts[len(t), "group"] += 1
    assert verdicts == {(5, "group"): 6, (5, "rejected"): 2, (6, "group"): 1,
                        (6, "rejected"): 11, (7, "group"): 1, (7, "rejected"): 10}


def test_make_group_dispatch():
    assert make_group("K4").name == "K4"
    assert make_group({"kind": "builtin", "name": "Sym4"}).order == 24
    assert make_group({"kind": "abelian", "factors": [2, 4]}).name == "C2xC4"
    assert make_group("C2xC4").spec == {"kind": "abelian", "factors": [2, 4]}
    table = [[0, 1], [1, 0]]
    G = make_group({"kind": "table", "table": table, "name": "Z2"})
    assert G.order == 2
    with pytest.raises(GroupValidationError):
        make_group({"kind": "nope"})
    with pytest.raises(GroupValidationError):
        make_group({"kind": "abelian", "factors": [1, 2]})
