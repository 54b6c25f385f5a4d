"""Group specs: make_group is their one check, and group_from_json refuses
every document that GROUP_SCHEMA refuses, and beyond it only what holds a
foreign key or an integral float or describes no group trlat builds."""

import itertools
import json
import math

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from trlat import serialize
from trlat.groups import (MAX_ORDER, FiniteGroup, GroupValidationError, abelian_group,
                          cyclic_group, dihedral_group, klein_group, make_group,
                          symmetric_group)
from trlat.realize import cpn_modulus, cpq_modulus


@pytest.mark.parametrize("spec,field", [
    ({"kind": "cyclic", "n": "12"}, "field 'n'"),
    ({"kind": "cyclic", "n": 12.7}, "field 'n'"),
    ({"kind": "cyclic", "n": True}, "field 'n'"),
    ({"kind": "abelian", "factors": [2.5, 3]}, "field 'factors'"),
    ({"kind": "abelian", "factors": "23"}, "field 'factors'"),
    ({"kind": "table", "table": [[True, False], [False, True]]}, "table entry True"),
    ({"kind": "table", "table": [[0]], "names": [5]}, "names must be a list of strings"),
    ({"kind": "builtin", "name": ["Q8"]}, "field 'name'"),
], ids=["n-string", "n-float", "n-bool", "factors-float", "factors-string", "table-of-bools",
        "names-int", "name-list"])
def test_a_mistyped_field_is_refused_not_coerced(spec, field):
    with pytest.raises(GroupValidationError, match=field) as refused:
        make_group(spec)
    assert "\n" not in str(refused.value)


@pytest.mark.parametrize("spec,message", [
    ([6], "group spec must be a name or an object, got [6]"),
    ({"n": 6}, "field 'kind' must be one of cyclic, abelian, builtin, table, got None"),
    ({"kind": "cyclic"}, "a spec of kind 'cyclic' needs field 'n'"),
    ({"kind": "cyclic", "n": 6, "name": "C6"}, "a spec of kind 'cyclic' has no field 'name'"),
    ({"kind": "abelian", "factors": [2, 3], "n": 6}, "a spec of kind 'abelian' has no field 'n'"),
    ({"kind": "table", "table": [[0]], "names": None}, "names must be a list of strings, got None"),
    ({"kind": "table", "table": [[0]], "name": 5}, "name must be a string, got 5"),
    ({"kind": "table", "table": [[0]], "n": 1}, "a spec of kind 'table' has no field 'n'"),
    ({"kind": "table", "table": 5}, "table must be a list of rows, got 5"),
    ({"kind": "table", "table": ["a"]}, "table row must be a list, got 'a'"),
    ({"kind": "table", "table": [[0.0]]}, "table entry 0.0 is not an integer"),
], ids=["not-a-dict", "no-kind", "missing-field", "foreign-name", "foreign-n", "null-names",
        "name-int", "table-foreign-n", "table-int", "row-string", "entry-float"])
def test_spec_refusals_name_the_field(spec, message):
    with pytest.raises(GroupValidationError) as refused:
        make_group(spec)
    assert str(refused.value) == message


def test_oversized_groups_are_refused_before_their_tables():
    """The limit itself is allowed: realize builds C_{2^11}."""
    assert cpn_modulus(2, 11) == MAX_ORDER
    for build, what in ((lambda: cyclic_group(MAX_ORDER + 1), f"C{MAX_ORDER + 1}"),
                        (lambda: abelian_group((64, 64)), "C64xC64"),
                        (lambda: dihedral_group(200006), "D200006"),
                        (lambda: cpn_modulus(2, 12), "C2^12"),
                        (lambda: cpq_modulus(43, 53), "C2279")):
        with pytest.raises(GroupValidationError) as refused:
            build()
        assert str(refused.value) == f"{what} is above the order limit {MAX_ORDER}"


# -- drift against GROUP_SCHEMA ---------------------------------------------------

FIELDS = {"cyclic": ("n",), "abelian": ("factors",), "builtin": ("name",),
          "table": ("table", "names", "name")}
BUILTINS = ("K4", "Q8", "Sym3", "C4", "C2xC3", "D6", "D10")
TABLE_GROUPS = (cyclic_group(1), cyclic_group(2), cyclic_group(3), klein_group(),
                symmetric_group(3))
SCHEMA = jsonschema.validators.validator_for(serialize.GROUP_SCHEMA)(serialize.GROUP_SCHEMA)

scalars = (st.none() | st.booleans() | st.integers(-3, 8) | st.integers(-3, 8).map(float)
           | st.floats(-3, 8, allow_nan=False) | st.sampled_from([MAX_ORDER + 1, 10 ** 6, 2 ** 70])
           | st.text(max_size=3))
json_values = scalars | st.lists(scalars, max_size=3) | st.dictionaries(st.text(max_size=2),
                                                                         scalars, max_size=2)


@st.composite
def valid_specs(draw):
    kind = draw(st.sampled_from(sorted(FIELDS)))
    if kind == "cyclic":
        return {"kind": kind, "n": draw(st.integers(1, 12))}
    if kind == "abelian":
        return {"kind": kind, "factors": draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))}
    if kind == "builtin":
        return {"kind": kind, "name": draw(st.sampled_from(BUILTINS))}
    G = draw(st.sampled_from(TABLE_GROUPS))
    spec = {"kind": kind, "table": [[G.compose(a, b) for b in range(G.order)]
                                    for a in range(G.order)]}
    if draw(st.booleans()):
        spec["names"] = list(G.element_names)
    if draw(st.booleans()):
        spec["name"] = G.name
    return spec


@st.composite
def mutated_specs(draw):
    """A valid spec with one field deleted, one value (a field's, or an item
    of a list field, or of a table row) of another JSON type, a key added,
    or its kind changed."""
    spec = draw(valid_specs())
    how = draw(st.sampled_from(["delete", "retype", "retype item", "add", "kind"]))
    if how == "delete":
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif how == "retype":
        spec[draw(st.sampled_from(sorted(spec)))] = draw(json_values)
    elif how == "retype item":
        holder = spec[draw(st.sampled_from(sorted(k for k in spec if isinstance(spec[k], list))
                                           or ["kind"]))]
        while isinstance(holder, list) and holder:
            i = draw(st.integers(0, len(holder) - 1))
            if not isinstance(holder[i], list) or draw(st.booleans()):
                holder[i] = draw(json_values)
                break
            holder = holder[i]
    elif how == "add":
        key = draw(st.sampled_from(sorted({f for fs in FIELDS.values() for f in fs}))
                   | st.text(max_size=3))
        spec[key] = draw(json_values)
    else:
        spec["kind"] = draw(st.sampled_from(sorted(FIELDS)) | json_values)
    return spec


def leaves(value):
    if isinstance(value, list):
        return [x for item in value for x in leaves(item)]
    if isinstance(value, dict):
        return [x for item in value.values() for x in leaves(item)]
    return [value]


def is_group_table(table, names):
    """By brute force: a square table on 0..n-1 with a two-sided identity,
    two-sided inverses and every triple associative, and names to match."""
    n = len(table)
    if n == 0 or any(len(row) != n or any(not 0 <= x < n for x in row) for row in table):
        return False
    if names is not None and len(names) != n:
        return False
    ids = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    return (bool(ids) and all(any(table[x][y] == ids[0] == table[y][x] for y in range(n))
                              for x in range(n))
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a, b, c in itertools.product(range(n), repeat=3)))


def why_refused(spec):
    """Why a spec that GROUP_SCHEMA accepts may still be refused, or None."""
    kind = spec["kind"]
    if set(spec) - {"kind", *FIELDS[kind]}:
        return "foreign key"
    if any(isinstance(x, float) for x in leaves(spec)):  # the schema took it as an integer
        return "integral float"
    if kind == "builtin" and spec["name"] not in BUILTINS:
        return "unknown builtin"
    if kind == "abelian" and not spec["factors"]:
        return "empty factors"
    if spec.get("n", 0) > MAX_ORDER or math.prod(spec.get("factors", [])) > MAX_ORDER:
        return "order over the limit"
    if kind == "table" and not is_group_table(spec["table"], spec.get("names")):
        return "not a group"
    return None


@settings(max_examples=500, derandomize=True, deadline=None)
@given(mutated_specs())
@example({"kind": "cyclic", "n": 12.0})  # one of each refusal the schema lets through
@example({"kind": "abelian", "factors": [2, 3.0]})
@example({"kind": "table", "table": [[0.0]]})
@example({"kind": "builtin", "name": "E8"})
@example({"kind": "abelian", "factors": []})
@example({"kind": "cyclic", "n": 100000})
@example({"kind": "abelian", "factors": [64, 64]})
@example({"kind": "table", "table": [[0, 1], [1, 1]]})
@example({"kind": "table", "table": [[0]], "names": ["e", "a"]})
@example({"kind": "builtin", "name": "Q8", "n": 8})
def test_group_from_json_refuses_what_the_schema_refuses(spec):
    doc = json.loads(json.dumps({"schema_version": 1, **spec}))
    schema_accepts = SCHEMA.is_valid(doc)
    try:
        G = serialize.group_from_json(doc)
    except GroupValidationError as exc:  # any other exception fails the test
        assert "\n" not in str(exc)
        if schema_accepts:
            spec = {k: v for k, v in doc.items() if k != "schema_version"}
            assert why_refused(spec) is not None, (spec, str(exc))
    else:
        assert schema_accepts, doc
        assert not set(doc) - {"schema_version", "kind", *FIELDS[doc["kind"]]}, doc
        assert not any(isinstance(x, float) for x in leaves(doc)), doc
        if doc["kind"] == "table":
            assert G.order == len(doc["table"])
        elif doc["kind"] != "builtin":
            assert G.order == doc.get("n", math.prod(doc.get("factors", [])))


def test_group_documents_need_schema_version_1():
    message = "a group document must be an object with schema_version 1"
    for doc in ({"kind": "cyclic", "n": 4}, {"schema_version": 2, "kind": "cyclic", "n": 4},
                {"schema_version": True, "kind": "cyclic", "n": 4}, "C4", [1]):
        with pytest.raises(GroupValidationError) as refused:
            serialize.group_from_json(doc)
        assert str(refused.value) == message


def test_finite_group_checks_its_arguments():
    with pytest.raises(GroupValidationError, match="name must be a string"):
        FiniteGroup([[0]], name=None)
    with pytest.raises(GroupValidationError, match="names must be a list of strings"):
        FiniteGroup([[0]], names="e")
    assert FiniteGroup(((0, 1), (1, 0)), ("e", "a"), name="Z2").element_names == ("e", "a")
