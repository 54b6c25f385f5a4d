"""Command-line interface: report-generating, deterministic, JSON in and out."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import jsonschema

from . import acceptance, serialize
from .groups import GroupValidationError, builtin_group, group_spec, make_group
from .lattice import automorphisms, subgroup_lattice
from .transfer import (SearchBoundExceeded, TransferSystem, TransferSystemError, _bits_of,
                       _violations, aut_orbits, enumerate_all, generate, hasse_diagram,
                       is_saturated)
from .chains import maximal_chain
from .realize import (NoRealizabilityData, NotRealizable, cpn_modulus, cpq_modulus,
                      linisom_image, minimal_steiner_universe, realize_saturated_cpn,
                      realize_saturated_cpq, steiner_image)

USAGE_ERROR = 2
VALIDATION_ERROR = 1


class UsageError(Exception):
    pass


def parse_group(token: str):
    """Group from a CLI token: builtin/C<n>/D<2p>, C*xC* products, or @spec.json."""
    if token.startswith("@"):
        try:
            with open(token[1:]) as fh:
                return serialize.group_from_json(json.load(fh))
        except jsonschema.ValidationError as exc:
            raise UsageError(f"group spec {token[1:]}: {exc.message}") from None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                GroupValidationError) as exc:
            raise UsageError(f"group spec {token[1:]}: {exc}") from None
    try:
        return builtin_group(token)
    except GroupValidationError as exc:
        raise UsageError(str(exc)) from None


def non_negative_int(raw: str, what: str) -> int:
    """A search bound from text; else a ValueError naming `what`, since a
    negative bound would refuse every search."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {raw!r}")
    return value


def env_search_bound() -> dict:
    """The enumeration bound as keyword arguments: TL_SEARCH_BOUND if set and
    non-empty, else none, leaving the library default.  Read only by the
    commands that enumerate Tr(G)."""
    raw = os.environ.get("TL_SEARCH_BOUND")
    return {"bound": non_negative_int(raw, "TL_SEARCH_BOUND")} if raw else {}


def _bound(text: str) -> int:
    try:
        return non_negative_int(text, "bound")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_pairs(L, text: str) -> list[tuple[int, int]]:
    """Parse a relation given as "(1,C4),(C2,C8)" or as "1->C4; C2->C8".

    The arrow form accepts any subgroup display name (names such as <(12)>
    or <(1,0)> contain commas and parentheses, so the tuple form is only for
    plain names).
    """
    text = text.strip()
    if not text:
        return []
    if "->" in text:
        tokens = []
        for chunk in re.split(r"[;\s]+", text):
            if not chunk:
                continue
            parts = chunk.split("->")
            if len(parts) != 2 or not all(parts):
                raise UsageError(f"unparsable pair {chunk!r}; expected SRC->DST")
            tokens.append((parts[0], parts[1]))
    else:
        tokens = re.findall(r"\(([^,()]+),([^,()]+)\)", text)
        cleaned = re.sub(r"\(([^,()]+),([^,()]+)\)|,|\s", "", text)
        if cleaned:
            raise UsageError(f"unparsable pair syntax near {cleaned[:20]!r}")
    out = []
    for a, b in tokens:
        try:
            out.append((L.resolve_name(a), L.resolve_name(b)))
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    return out


def _report(ns, group=None, results=None, checks=None) -> dict:
    """The run report, timed from when `run` started the command."""
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "command": list(ns.argv),
        "results": results or {},
        "checks": checks or [],
        "timing_seconds": round(time.perf_counter() - ns.started, 6),
    }
    if group is not None:
        doc["group"] = group_spec(group)
    return doc


def _emit(doc: dict, out) -> None:
    print(serialize.dumps(doc), file=out)


def _named_pairs(T: TransferSystem) -> list[list[str]]:
    L = T.lattice
    return [[L.names[k], L.names[h]] for k, h in T.pairs()]


def cmd_group_info(ns, out) -> int:
    G = parse_group(ns.group)
    L = subgroup_lattice(G)
    results = {
        "order": G.order,
        "abelian": G.is_abelian,
        "subgroup_count": L.n,
        "subgroups": [{"name": L.names[s], "order": L.order_of(s),
                       "normal": L.normal[s], "cocyclic": L.cocyclic[s],
                       "class": L.class_of[s]} for s in range(L.n)],
        "pair_orbit_count": len(L.pair_orbits),
        "automorphism_count": len(automorphisms(G)),
        "lattice": serialize.lattice_to_json(L),
    }
    _emit(_report(ns, G, results), out)
    return 0


def cmd_ts_generate(ns, out) -> int:
    G = parse_group(ns.group)
    L = subgroup_lattice(G)
    pairs = parse_pairs(L, ns.pairs)
    try:
        T = generate(L, pairs)
    except TransferSystemError as exc:
        _emit(_report(ns, G, {"error": str(exc)},
                      [{"claim": "relation refines inclusion", "passed": False}]), out)
        return VALIDATION_ERROR
    results = {"pairs": _named_pairs(T), "pair_count": T.pair_count(),
               "saturated": is_saturated(T), "system": serialize.system_to_json(T)}
    _emit(_report(ns, G, results), out)
    return 0


def cmd_ts_check(ns, out) -> int:
    G = parse_group(ns.group)
    L = subgroup_lattice(G)
    bits = _bits_of(L, parse_pairs(L, ns.pairs))
    violations = _violations(L, bits)
    results = {"valid": not violations,
               "violations": [v.describe(L) for v in violations]}
    if not violations:
        results["saturated"] = is_saturated(TransferSystem(L, bits))
    checks = [{"claim": "relation is a transfer system", "passed": not violations}]
    _emit(_report(ns, G, results, checks), out)
    return 0 if not violations else VALIDATION_ERROR


def cmd_ts_enumerate(ns, out) -> int:
    G = parse_group(ns.group)
    L = subgroup_lattice(G)
    bound = {"bound": ns.bound} if ns.bound is not None else env_search_bound()
    systems = enumerate_all(L, **bound)
    results = {"count": len(systems),
               "systems": [_named_pairs(T) for T in systems]}
    if ns.orbits:
        orbits, profile = aut_orbits(systems, automorphisms(G))
        results["orbit_count"] = len(orbits)
        results["orbit_profile"] = [list(sc) for sc in profile]
    _emit(_report(ns, G, results), out)
    return 0


def cmd_image(ns, out) -> int:
    G = parse_group(ns.group)
    L = subgroup_lattice(G)
    try:
        if ns.which == "steiner":
            systems, universes = steiner_image(L), None
        else:
            systems, universes = linisom_image(L)
    except NoRealizabilityData as exc:
        raise UsageError(str(exc)) from None
    results = {"map": ns.which, "count": len(systems),
               "systems": [_named_pairs(T) for T in systems]}
    if universes is not None:
        results["universe_count"] = universes
    _emit(_report(ns, G, results), out)
    return 0


def cmd_realize(ns, out) -> int:
    n = cpn_modulus(ns.p, ns.n) if ns.case == "cpn" else cpq_modulus(ns.p, ns.q)
    G = make_group({"kind": "cyclic", "n": n})
    L = subgroup_lattice(G)
    pairs = parse_pairs(L, ns.pairs)
    T = generate(L, pairs)
    if not is_saturated(T):
        _emit(_report(ns, G, {"error": "system is not saturated"},
                      [{"claim": "input system is saturated", "passed": False}]), out)
        return VALIDATION_ERROR
    if ns.case == "cpn":
        I = realize_saturated_cpn(ns.p, ns.n, T)
        results = {"index_set": I.sorted(), "modulus": I.modulus}
    else:
        verdict = realize_saturated_cpq(ns.p, ns.q, T)
        if isinstance(verdict, NotRealizable):
            results = {"realizable": False, "tag": verdict.tag, "reason": verdict.reason}
        else:
            results = {"realizable": True, "index_set": verdict.sorted(),
                       "modulus": verdict.modulus}
    _emit(_report(ns, G, results), out)
    return 0


def cmd_minimal_universe(ns, out) -> int:
    G = parse_group(ns.group)
    L = subgroup_lattice(G)
    try:
        k = L.resolve_name(ns.sub)
        h = L.resolve_name(ns.sup)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    sets = minimal_steiner_universe(L, k, h)
    results = {"transfer": [L.names[k], L.names[h]],
               "minimal_kernel_sets": [[L.names[s] for s in combo] for combo in sets]}
    _emit(_report(ns, G, results), out)
    return 0


def cmd_chain(ns, out) -> int:
    G = parse_group(ns.group)
    L = subgroup_lattice(G)
    chain = maximal_chain(L)
    results = {"length": len(chain),
               "pair_orbit_count": len(L.pair_orbits),
               "layer_choices": [L.names[s] for s in chain.layer_choices],
               "systems": [_named_pairs(T) for T in chain.systems],
               "chain": serialize.chain_to_json(chain)}
    _emit(_report(ns, G, results), out)
    return 0


def cmd_verify_paper(ns, out) -> int:
    lines = []
    ok = acceptance.run_all(report=lambda line: (lines.append(line), print(line, file=out)))
    checks = [{"claim": f"criterion {num} ({name})", "passed": line.startswith("PASS")}
              for (num, name, _), line in zip(acceptance.CRITERIA, lines)]
    if ns.json:
        _emit(_report(ns, results={"passed": ok}, checks=checks), out)
    return 0 if ok else VALIDATION_ERROR


def cmd_export(ns, out) -> int:
    G = parse_group(ns.group)
    L = subgroup_lattice(G)
    chain = maximal_chain(L) if ns.what == "chain" else None
    if ns.format == "json" and chain is not None:
        text = serialize.dumps(serialize.chain_to_json(chain))
    elif ns.format == "json":
        systems = enumerate_all(L, **env_search_bound())
        text = serialize.dumps({
            "schema_version": serialize.SCHEMA_VERSION,
            "group": group_spec(G),
            "count": len(systems),
            "systems": [[[k, h] for k, h in T.pairs()] for T in systems],
        })
    else:
        try:
            hasse = hasse_diagram(L, **env_search_bound())
        except SearchBoundExceeded:
            if chain is None:
                raise
            hasse = None  # the chain alone, without Tr(G) behind it
        text = (serialize.dot_poset(*hasse, graph_name=f"Tr_{G.name}") if chain is None
                else serialize.dot_chain(chain, hasse))
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trlat",
        description="Transfer systems on finite groups: generate, enumerate, "
                    "check realizability, export diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="group-level queries")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    info = gsub.add_parser("info", help="subgroup lattice summary")
    info.add_argument("--group", required=True)
    info.set_defaults(fn=cmd_group_info)

    ts = sub.add_parser("ts", help="transfer-system operations")
    tsub = ts.add_subparsers(dest="subcommand", required=True)
    gen = tsub.add_parser("generate", help="close a relation into a transfer system")
    gen.add_argument("--group", required=True)
    gen.add_argument("--pairs", default="")
    gen.set_defaults(fn=cmd_ts_generate)
    chk = tsub.add_parser("check", help="validate a pair set against the axioms")
    chk.add_argument("--group", required=True)
    chk.add_argument("--pairs", default="")
    chk.set_defaults(fn=cmd_ts_check)
    enum = tsub.add_parser("enumerate", help="list every transfer system")
    enum.add_argument("--group", required=True)
    enum.add_argument("--orbits", action="store_true")
    enum.add_argument("--bound", type=_bound, default=None)
    enum.set_defaults(fn=cmd_ts_enumerate)

    image = sub.add_parser("image", help="realizable transfer systems")
    image.add_argument("which", choices=["steiner", "linisom"])
    image.add_argument("--group", required=True)
    image.set_defaults(fn=cmd_image)

    realize = sub.add_parser("realize", help="find a realizing universe index set")
    rsub = realize.add_subparsers(dest="case", required=True)
    cpn = rsub.add_parser("cpn", help="prime-power cyclic groups")
    cpn.add_argument("--p", type=int, required=True)
    cpn.add_argument("--n", type=int, required=True)
    cpn.add_argument("--pairs", default="")
    cpn.set_defaults(fn=cmd_realize, case="cpn")
    cpq = rsub.add_parser("cpq", help="order-pq cyclic groups")
    cpq.add_argument("--p", type=int, required=True)
    cpq.add_argument("--q", type=int, required=True)
    cpq.add_argument("--pairs", default="")
    cpq.set_defaults(fn=cmd_realize, case="cpq")

    mu = sub.add_parser("minimal-universe", help="minimal kernel sets admitting a transfer")
    mu.add_argument("--group", required=True)
    mu.add_argument("--sub", required=True, help="source subgroup name")
    mu.add_argument("--sup", required=True, help="target subgroup name")
    mu.set_defaults(fn=cmd_minimal_universe)

    chain = sub.add_parser("chain", help="maximal chain in Tr(G)")
    chain.add_argument("--group", required=True)
    chain.set_defaults(fn=cmd_chain)

    verify = sub.add_parser("verify-paper", help="run the acceptance suite")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(fn=cmd_verify_paper)

    export = sub.add_parser("export", help="write DOT or JSON artifacts")
    export.add_argument("--what", choices=["tr", "chain"], default="tr")
    export.add_argument("--format", choices=["dot", "json"], required=True)
    export.add_argument("--group", required=True)
    export.add_argument("--out", default=None)
    export.set_defaults(fn=cmd_export)

    return parser


def run(argv: list[str], out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    ns.argv, ns.started = argv, time.perf_counter()
    try:
        return ns.fn(ns, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SearchBoundExceeded, TransferSystemError, GroupValidationError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)


if __name__ == "__main__":
    main()
