"""JSON round trips, schema validation, and DOT cover-relation export."""

import json

import jsonschema
import networkx as nx
import pytest

from trlat.chains import maximal_chain
from trlat.groups import abelian_group, cyclic_group, group_spec, make_group
from trlat.lattice import subgroup_lattice
from trlat.transfer import TransferSystem, enumerate_all, hasse_diagram
from trlat import serialize

from tables import dihedral


def L_(name):
    return subgroup_lattice(make_group(name))


def test_group_json_round_trip():
    for name in ("C8", "K4", "Q8", "Sym3", "D10"):
        G = make_group(name)
        doc = {"schema_version": serialize.SCHEMA_VERSION, **group_spec(G)}
        G2 = serialize.group_from_json(json.loads(json.dumps(doc)))
        assert G2 is G  # the recorded spec rebuilds the constructor's own group
        assert all(G2.compose(a, b) == G.compose(a, b)
                   for a in range(G.order) for b in range(G.order))


def test_table_group_round_trip():
    k4, d8 = make_group("K4"), dihedral(4)
    cases = [([[0, 1], [1, 0]], "Z2"),
             ([[k4.compose(a, b) for b in range(4)] for a in range(4)], "Q8"),
             ([[d8.compose(a, b) for b in range(8)] for a in range(8)], "D8")]
    for table, name in cases:
        G = make_group({"kind": "table", "table": table, "name": name})
        doc = {"schema_version": serialize.SCHEMA_VERSION, **group_spec(G)}
        assert doc["kind"] == "table"  # a table stays a table, whatever its name
        G2 = serialize.group_from_json(json.loads(json.dumps(doc)))
        assert (G2.order, G2.name) == (len(table), name)
        assert all(G2.compose(a, b) == table[a][b]
                   for a in range(G2.order) for b in range(G2.order))


def test_system_json_round_trip_bit_for_bit():
    for name in ("C8", "Q8", "Sym3"):
        L = L_(name)
        for T in enumerate_all(L):
            doc = serialize.system_to_json(T)
            serialize.validate_document(doc, serialize.SYSTEM_SCHEMA)
            T2 = serialize.system_from_json(json.loads(json.dumps(doc)))
            assert T2.key == T.key
            assert serialize.system_to_json(T2) == doc


def test_system_json_rejects_wrong_count():
    L = L_("C4")
    doc = serialize.system_to_json(TransferSystem.diagonal(L))
    doc["subgroup_count"] = 7
    with pytest.raises(ValueError, match="subgroups"):
        serialize.system_from_json(doc)


def test_system_json_rejects_invalid_pairs():
    L = L_("C4")
    doc = serialize.system_to_json(TransferSystem.diagonal(L))
    doc["pairs"] = [[0, 2]]
    with pytest.raises(Exception, match="restriction"):
        serialize.system_from_json(doc)


def test_system_json_refuses_float_pair_entries():
    L = L_("C4")
    doc = serialize.system_to_json(TransferSystem.diagonal(L))
    doc["pairs"] = [[0.0, 2]]
    serialize.validate_document(doc, serialize.SYSTEM_SCHEMA)  # JSON Schema takes 0.0 as an integer
    with pytest.raises(ValueError) as refused:
        serialize.system_from_json(doc)
    assert str(refused.value) == "pairs must hold integer subgroup indices, got 0.0"


@pytest.mark.parametrize("field,value,message", [
    ("subgroup_count", 3.0, "field 'subgroup_count' must be an integer, got 3.0"),
    ("schema_version", 1.0, "field 'schema_version' must be an integer, got 1.0"),
    ("comment", "hi", "a system document has no field 'comment'"),
])
def test_system_json_refuses_what_the_group_spec_refuses(field, value, message):
    """JSON Schema takes an integral float as an integer and allows unknown
    keys; a system document, like a group spec, takes neither."""
    doc = serialize.system_to_json(TransferSystem.diagonal(L_("C4")))
    doc[field] = value
    serialize.validate_document(doc, serialize.SYSTEM_SCHEMA)
    with pytest.raises(ValueError) as refused:
        serialize.system_from_json(doc)
    assert str(refused.value) == message


def test_every_schema_is_valid_against_its_metaschema():
    """validate_document trusts the module's schemas; this checks them."""
    schemas = [value for name, value in vars(serialize).items() if name.endswith("_SCHEMA")]
    assert len(schemas) == 6
    for schema in schemas:
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_rejects_malformed_documents():
    with pytest.raises(jsonschema.ValidationError):
        serialize.validate_document({"kind": "cyclic"}, serialize.GROUP_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        serialize.validate_document({"schema_version": 1, "group": {},
                                     "subgroup_count": 2, "pairs": [[0]]},
                                    serialize.SYSTEM_SCHEMA)


def test_lattice_dump_validates():
    doc = serialize.lattice_to_json(L_("Q8"))
    serialize.validate_document(doc, serialize.LATTICE_SCHEMA)
    assert doc["names"][-1] == "Q8"
    assert len(doc["subgroups"]) == 6


def test_chain_json():
    chain = maximal_chain(L_("K4"))
    doc = serialize.chain_to_json(chain)
    serialize.validate_document(doc, serialize.CHAIN_SCHEMA)
    assert len(doc["systems"]) == 8
    assert json.loads(serialize.dumps(doc)) == doc


def parse_dot_edges(text):
    import re
    return set(re.findall(r'"([01]+)"\s*->\s*"([01]+)"', text))


def transitive_reduction(systems):
    """Edges of the refinement order's transitive reduction, by networkx."""
    full = nx.DiGraph()
    full.add_nodes_from(T.key for T in systems)
    for a in systems:
        for b in systems:
            if a != b and a.refines(b):
                full.add_edge(a.key, b.key)
    return set(nx.transitive_reduction(full).edges())


def test_dot_is_exactly_the_transitive_reduction():
    groups = [make_group(name) for name in ("C4", "C6", "K4", "Sym3", "Q8", "D10")]
    for G in groups + [abelian_group((2, 4))]:
        systems, covers = hasse_diagram(subgroup_lattice(G))
        text = serialize.dot_poset(systems, covers)
        assert parse_dot_edges(text) == transitive_reduction(systems)


def test_dot_pentagon_shape():
    text = serialize.dot_poset(*hasse_diagram(subgroup_lattice(cyclic_group(4))))
    assert len(parse_dot_edges(text)) == 5
    assert text.count("label=") == 5


def test_dot_chain_overlay_marks_path():
    L = L_("C4")
    chain = maximal_chain(L)
    for text in (serialize.dot_chain(chain, hasse_diagram(L)), serialize.dot_chain(chain)):
        bold_edges = [line for line in text.splitlines()
                      if "->" in line and "style=bold" in line]
        assert len(bold_edges) == len(chain) - 1
    # alone, the chain is drawn as its own Hasse diagram
    for G in (make_group("C4"), make_group("Q8"), make_group("Sym3"), abelian_group((2, 4))):
        chain = maximal_chain(subgroup_lattice(G))
        assert parse_dot_edges(serialize.dot_chain(chain)) == transitive_reduction(chain.systems)


def test_report_schema_round_trip():
    report = {"schema_version": 1, "command": ["ts", "enumerate"],
              "results": {"count": 5}, "checks": [{"claim": "x", "passed": True}],
              "timing_seconds": 0.25}
    serialize.validate_document(report, serialize.REPORT_SCHEMA)
    assert json.loads(serialize.dumps(report)) == report
