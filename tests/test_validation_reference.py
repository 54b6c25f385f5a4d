"""Validation and generation against the triple-loop reference they replaced.

`reference_violations` is the axiom check as it was written before the
packed demand masks: every pair, every conjugate, every restriction and
every transitive step, listed in loop order and deduplicated.  The packed
check must return the same (axiom, pair, forced_by) list in the same order.
`reference_generate` seeds the closure by conjugation, then restriction,
pair by pair, and closes it by Warshall's algorithm on the rows.
"""

import random
import re

import pytest

from trlat.chains import maximal_chain
from trlat.groups import abelian_group, make_group
from trlat.lattice import subgroup_lattice
from trlat.serialize import SCHEMA_VERSION, group_spec, system_from_json
from trlat.transfer import (TransferSystem, TransferSystemError, Violation, _violations,
                            generate, join, meet, validate)

from tables import dihedral, relabeled


def reference_violations(L, rows):
    out = []
    n = L.n
    for k in range(n):
        if not rows[k] >> k & 1:
            out.append(Violation("reflexivity", (k, k)))
        bits = rows[k]
        for h in range(n):
            if bits >> h & 1 and not L.includes[k][h]:
                out.append(Violation("refines-inclusion", (k, h)))
    for k in range(n):
        for h in range(n):
            if k == h or not rows[k] >> h & 1 or not L.includes[k][h]:
                continue
            for g in range(L.group.order):
                ck, ch = L.conjugate[g][k], L.conjugate[g][h]
                if not rows[ck] >> ch & 1:
                    out.append(Violation("conjugation", (ck, ch), (k, h)))
            for l in range(n):
                if L.includes[l][h]:
                    m = L.intersect[l][k]
                    if not rows[m] >> l & 1:
                        out.append(Violation("restriction", (m, l), (k, h)))
            for h2 in range(n):
                if rows[h] >> h2 & 1 and not rows[k] >> h2 & 1:
                    out.append(Violation("transitivity", (k, h2), (k, h)))
    # deduplicate, preserving first-seen order
    seen, unique = set(), []
    for v in out:
        if (v.axiom, v.pair) not in seen:
            seen.add((v.axiom, v.pair))
            unique.append(v)
    return unique


def reference_generate(L, relation):
    rows = [1 << k for k in range(L.n)]
    conj_closed = set()
    for k, h in relation:
        if not L.includes[k][h]:
            raise TransferSystemError(
                f"pair ({L.names[k]}, {L.names[h]}) does not refine inclusion")
        for g in range(L.group.order):
            conj_closed.add((L.conjugate[g][k], L.conjugate[g][h]))
    for k, h in conj_closed:
        rows[k] |= 1 << h
        for l in range(L.n):
            if L.includes[l][h]:
                rows[L.intersect[l][k]] |= 1 << l
    for j in range(L.n):
        for i in range(L.n):
            if rows[i] >> j & 1:
                rows[i] |= rows[j]
    return tuple(rows)


# D24 (34 subgroups) is the largest lattice the closure benchmark queries; its
# centre has order 2, so each subgroup permutation appears twice in L.conjugate
SOURCES = {"Sym4": lambda: make_group("Sym4"), "D8": lambda: dihedral(4),
           "D24": lambda: dihedral(12), "Q8": lambda: make_group("Q8"),
           "C24": lambda: make_group("C24"), "C2xC2xC2": lambda: abelian_group((2, 2, 2))}


GROUPS = tuple(SOURCES)


def random_rows(L, rng):
    """One of: non-reflexive rows inside inclusion, rows with bits anywhere,
    or a generated system with one bit flipped."""
    n = L.n
    kind = rng.randrange(3)
    if kind == 0:
        rows = list(TransferSystem.maximum(L).rows)
        for k in range(n):
            rows[k] &= rng.getrandbits(n) | rng.getrandbits(n)
    elif kind == 1:
        rows = [rng.getrandbits(n) & rng.getrandbits(n) | 1 << k for k in range(n)]
    else:
        rows = list(generate(L, rng.sample(L.proper_pairs,
                                           rng.randint(0, min(4, len(L.proper_pairs))))).rows)
        k = rng.randrange(n)
        rows[k] ^= 1 << rng.randrange(n)
    return tuple(rows)


def listing(violations):
    return [(v.axiom, v.pair, v.forced_by) for v in violations]


@pytest.mark.parametrize("name", GROUPS)
def test_violations_match_reference(name):
    L = subgroup_lattice(relabeled(SOURCES[name](), len(name)))
    rng = random.Random(f"violations {name}")
    for _ in range(120):
        rows = random_rows(L, rng)
        packed = sum(r << k * L.n for k, r in enumerate(rows))
        assert listing(_violations(L, packed)) == listing(reference_violations(L, rows)), rows
    for _ in range(40):
        pairs = rng.sample(L.proper_pairs, rng.randint(1, 6))
        rows = [1 << k for k in range(L.n)]
        for k, h in pairs:
            rows[k] |= 1 << h
        assert listing(validate(L, pairs)) == listing(reference_violations(L, tuple(rows)))


@pytest.mark.parametrize("name", GROUPS)
def test_generate_matches_reference(name):
    L = subgroup_lattice(relabeled(SOURCES[name](), len(name)))
    rng = random.Random(f"generate {name}")
    nonpairs = [(k, h) for k in range(L.n) for h in range(L.n) if not L.includes[k][h]]
    for _ in range(60):
        relation = rng.sample(L.proper_pairs, rng.randint(0, min(5, len(L.proper_pairs))))
        relation += [(k, k) for k in rng.sample(range(L.n), rng.randint(0, 2))]
        rng.shuffle(relation)
        assert generate(L, relation).rows == reference_generate(L, relation), relation
    for _ in range(20):
        relation = rng.sample(L.proper_pairs, rng.randint(0, 3)) + rng.sample(nonpairs, 2)
        rng.shuffle(relation)
        with pytest.raises(TransferSystemError) as got:
            generate(L, relation)
        with pytest.raises(TransferSystemError) as want:
            reference_generate(L, relation)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", GROUPS)
def test_lattice_operations_match_reference(name):
    """join, meet and each step of maximal_chain build systems unchecked;
    the references confirm that they are the systems the axioms ask for."""
    L = subgroup_lattice(relabeled(SOURCES[name](), len(name)))
    rng = random.Random(f"lattice operations {name}")
    for _ in range(25):
        r1, r2 = (rng.sample(L.proper_pairs, rng.randint(0, min(4, len(L.proper_pairs))))
                  for _ in range(2))
        T1, T2 = generate(L, r1), generate(L, r2)
        assert join(T1, T2).rows == reference_generate(L, r1 + r2), (r1, r2)
        assert reference_violations(L, meet(T1, T2).rows) == [], (r1, r2)
    for T in maximal_chain(L).systems:
        assert reference_violations(L, T.rows) == [], T


def test_pair_indices_outside_the_lattice_rejected():
    G = make_group("C4")
    L = subgroup_lattice(G)
    doc = {"schema_version": SCHEMA_VERSION, "group": group_spec(G),
           "subgroup_count": L.n}
    for pair in ([0, 5], [7, 1]):
        with pytest.raises(TransferSystemError,
                           match=rf"pair \({pair[0]}, {pair[1]}\) .* 3 subgroups"):
            system_from_json({**doc, "pairs": [[0, 1], pair]})
    for pair in ((0, 3), (-1, 2)):
        with pytest.raises(TransferSystemError, match="out of range"):
            validate(L, [pair])
        with pytest.raises(TransferSystemError, match="out of range"):
            generate(L, [pair])
    # an index that is not an int is refused, not read as one (True as 1)
    for pair in ((0.0, 1), (True, 1), ("0", 1)):
        message = rf"^pair \({re.escape(repr(pair[0]))}, 1\) must hold integer subgroup indices$"
        for check in (validate, generate, TransferSystem.from_pairs):
            with pytest.raises(TransferSystemError, match=message):
                check(L, [(0, 1), pair])
    assert system_from_json({**doc, "pairs": [[0, 1], [0, 2], [1, 2]]}).rows \
        == TransferSystem.maximum(L).rows
