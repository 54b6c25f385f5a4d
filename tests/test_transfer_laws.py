"""Lattice laws of join and meet on Tr(G), over random triples of systems,
and the laws of `generate` over random relations."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from trlat.groups import make_group
from trlat.lattice import subgroup_lattice
from trlat.transfer import enumerate_all, generate, join, meet


@functools.cache
def tr(name):
    systems = list(enumerate_all(subgroup_lattice(make_group(name)), bound=26))
    return systems, set(systems)


@pytest.mark.parametrize("name", ["Q8", "C2xC6"])
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_join_and_meet_are_lattice_operations(name, data):
    systems, listed = tr(name)
    a, b, c = (data.draw(st.sampled_from(systems)) for _ in range(3))
    for op in (join, meet):
        assert op(a, b) == op(b, a)
        assert op(op(a, b), c) == op(a, op(b, c))
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a
    # the least upper bound in Tr(G): what the Steiner image's running joins
    # rely on; a bare union of pairs would pass every law above
    j = join(a, b)
    assert j in listed and meet(a, b) in listed
    assert a.refines(j) and b.refines(j)
    assert all(j.refines(S) for S in systems if a.refines(S) and b.refines(S))


@functools.cache
def lattice(name):
    return subgroup_lattice(make_group(name))


@pytest.mark.parametrize("name", ["Q8", "C2xC6", "Sym4"])
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_generate_is_a_closure_that_sends_unions_to_joins(name, data):
    """What `generate` rests on when it starts from one seed orbit's cached
    system and closes it with the others: the system of a union is the join
    of the systems, and adding pairs a system already holds changes nothing."""
    L = lattice(name)
    r1, r2 = (data.draw(st.lists(st.sampled_from(L.proper_pairs), max_size=4))
              for _ in range(2))
    T1 = generate(L, r1)
    assert generate(L, r1 + r2) == join(T1, generate(L, r2))
    assert generate(L, r1 + T1.pairs()) == T1
