"""JSON formats (with schemas) and DOT export for lattices of transfer systems."""

from __future__ import annotations

import json
import jsonschema
from .groups import FiniteGroup, GroupValidationError, group_spec, make_group
from .lattice import SubgroupLattice, subgroup_lattice
from .transfer import TransferSystem

SCHEMA_VERSION = 1

GROUP_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "kind"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"enum": ["cyclic", "abelian", "builtin", "table"]},
        "n": {"type": "integer", "minimum": 1},
        "factors": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "name": {"type": "string"},
        "table": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
        "names": {"type": "array", "items": {"type": "string"}},
    },
    "allOf": [{"if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
               "then": {"required": [field]}}
              for kind, field in (("cyclic", "n"), ("abelian", "factors"),
                                  ("builtin", "name"), ("table", "table"))],
}

SYSTEM_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "group", "subgroup_count", "pairs"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "group": {"type": "object"},
        "subgroup_count": {"type": "integer", "minimum": 1},
        "pairs": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0},
                      "minItems": 2, "maxItems": 2},
        },
    },
}

LATTICE_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "group", "subgroups", "names", "normal", "cocyclic"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "group": {"type": "object"},
        "subgroups": {"type": "array",
                      "items": {"type": "array", "items": {"type": "integer"}}},
        "names": {"type": "array", "items": {"type": "string"}},
        "normal": {"type": "array", "items": {"type": "boolean"}},
        "cocyclic": {"type": "array", "items": {"type": "boolean"}},
        "class_of": {"type": "array", "items": {"type": "integer"}},
        "pair_orbits": {"type": "array"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "results", "checks"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "array", "items": {"type": "string"}},
        "group": {"type": "object"},
        "results": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["claim", "passed"],
                "properties": {"claim": {"type": "string"}, "passed": {"type": "boolean"},
                               "detail": {"type": "string"}},
            },
        },
        "timing_seconds": {"type": "number"},
    },
}

_NAME_PAIRS = {"type": "array",
               "items": {"type": "array", "items": {"type": "string"},
                         "minItems": 2, "maxItems": 2}}

FIXTURES_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "groups"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "groups": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["linisom", "unrealized_orbit_reps"],
                "properties": {
                    "catalog": {"type": "array",
                                "items": {"type": "object",
                                          "required": ["rep", "dim", "orb"],
                                          "properties": {"rep": {"type": "string"},
                                                         "dim": {"type": "integer"},
                                                         "orb": _NAME_PAIRS}}},
                    "linisom": {"type": "array",
                                "items": {"type": "object",
                                          "required": ["universe", "pairs"],
                                          "properties": {
                                              "universe": {"type": "array",
                                                           "items": {"type": "string"}},
                                              "pairs": _NAME_PAIRS}}},
                    "unrealized_orbit_reps": {"type": "array", "items": _NAME_PAIRS},
                },
            },
        },
    },
}

CHAIN_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "group", "layer_choices", "systems"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "group": {"type": "object"},
        "layer_choices": {"type": "array", "items": {"type": "integer"}},
        "orbit_order": {"type": "array"},
        "systems": {"type": "array"},
    },
}


def validate_document(doc: dict, schema: dict) -> None:
    """Raise the error `jsonschema.validate` would.  The schemas are this
    module's constants, which a test checks against their metaschema, so
    they are not checked here."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        raise error


def group_from_json(doc: dict) -> FiniteGroup:
    """The group a GROUP_SCHEMA document names.  make_group checks the spec,
    more strictly than the schema: it also refuses keys that are not the
    kind's fields and integral floats."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise GroupValidationError(f"a group document must be an object with "
                                   f"schema_version {SCHEMA_VERSION}")
    return make_group({k: v for k, v in doc.items() if k != "schema_version"})


def lattice_to_json(L: SubgroupLattice) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_spec(L.group),
        "subgroups": [sorted(s) for s in L.subgroups],
        "names": list(L.names),
        "normal": list(L.normal),
        "cocyclic": list(L.cocyclic),
        "class_of": list(L.class_of),
        "pair_orbits": [[list(p) for p in orbit] for orbit in L.pair_orbits],
    }


def system_to_json(T: TransferSystem) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_spec(T.lattice.group),
        "subgroup_count": T.lattice.n,
        "pairs": [[k, h] for k, h in T.pairs()],
    }


def system_from_json(doc: dict) -> TransferSystem:
    validate_document(doc, SYSTEM_SCHEMA)
    foreign = [key for key in doc if key not in SYSTEM_SCHEMA["properties"]]
    if foreign:
        raise ValueError(f"a system document has no field {foreign[0]!r}")
    # the schema counts an integral float such as 0.0 as an integer
    for field in ("schema_version", "subgroup_count"):
        if type(doc[field]) is not int:
            raise ValueError(f"field {field!r} must be an integer, got {doc[field]!r}")
    floats = [x for pair in doc["pairs"] for x in pair if type(x) is not int]
    if floats:
        raise ValueError(f"pairs must hold integer subgroup indices, got {floats[0]!r}")
    L = subgroup_lattice(group_from_json({"schema_version": SCHEMA_VERSION, **doc["group"]}))
    if doc["subgroup_count"] != L.n:
        raise ValueError(f"document says {doc['subgroup_count']} subgroups, "
                         f"lattice has {L.n}")
    return TransferSystem.from_pairs(L, [tuple(p) for p in doc["pairs"]])


def chain_to_json(chain) -> dict:
    L = chain.systems[0].lattice
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_spec(L.group),
        "layer_choices": list(chain.layer_choices),
        "orbit_order": [[list(p) for p in orbit] for orbit in chain.orbit_order],
        "systems": [[[k, h] for k, h in T.pairs()] for T in chain.systems],
    }


# -- DOT export ----------------------------------------------------------------

def dot_poset(systems: list[TransferSystem], covers: list[tuple[int, int]],
              highlight: list[TransferSystem] | None = None, graph_name: str = "Tr") -> str:
    """A Hasse diagram in DOT: `systems` in key order and `covers` as sorted
    index pairs (i, j), systems[i] covered by systems[j], as
    `transfer.hasse_diagram` returns them.

    Nodes are keyed by dedup string and ranked with those of equal relation
    size; a highlight list (e.g. a chain) is drawn bold; no other layout hints.
    """
    keys = [T.key for T in systems]
    marked = {T.key for T in (highlight or [])}
    graph_id = graph_name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{graph_id}" {{', "  rankdir=BT;",
             '  node [shape=box, fontsize=10];']
    by_size: dict[int, list[str]] = {}
    for T, key in zip(systems, keys):
        size = T.pair_count()
        by_size.setdefault(size, []).append(key)
        style = ', style=bold' if key in marked else ''
        lines.append(f'  "{key}" [label="{size}"{style}];')
    for size in sorted(by_size):
        members = " ".join(f'"{k}";' for k in by_size[size])
        lines.append(f"  {{ rank=same; {members} }}")
    for i, j in covers:
        a, b = keys[i], keys[j]
        bold = " [style=bold]" if a in marked and b in marked else ""
        lines.append(f'  "{a}" -> "{b}"{bold};')
    lines.append("}")
    return "\n".join(lines)


def dot_chain(chain, hasse=None) -> str:
    """A maximal chain as a path, overlaid on Tr(G) when `hasse_diagram`'s
    result is given.  Alone, each step of the chain adds one pair orbit, so is
    a cover, and the chain is in key order, since each step only sets bits."""
    systems = list(chain.systems)
    if hasse is not None:
        return dot_poset(*hasse, highlight=systems, graph_name="TrChain")
    return dot_poset(systems, [(i, i + 1) for i in range(len(systems) - 1)],
                     highlight=systems, graph_name="Chain")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
