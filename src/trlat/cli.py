"""Command-line interface: report-generating, deterministic, JSON in and out."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import acceptance, serialize
from .groups import GroupValidationError, builtin_group, cyclic_group, group_spec
from .lattice import automorphisms, subgroup_lattice
from .transfer import (SEARCH_BOUND, SearchBoundExceeded, TransferSystem, TransferSystemError,
                       aut_orbits, enumerate_all, generate, hasse_diagram, is_saturated,
                       validate)
from .chains import maximal_chain
from .realize import (NoRealizabilityData, NotRealizable, cpn_modulus, cpq_modulus, index_set,
                      linisom_image, minimal_steiner_universe, realize_saturated, steiner_image)

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
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                GroupValidationError) as exc:
            raise UsageError(f"group spec {token[1:]}: {exc}") from None
    try:
        return builtin_group(token)
    except GroupValidationError as exc:
        raise UsageError(str(exc)) from None


_NUMERAL = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")  # what int() reads in base 10


def _integer(text: str, what: str = "numeral") -> int:
    """An integer flag's value.  int() refuses a numeral only above Python's
    limit on its digits; that one is refused by its length, not echoed."""
    if not _NUMERAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{what} is too long: {len(text.strip())} characters") from None


def _bound(text: str) -> int:
    """A search bound from text; a negative one would refuse every search."""
    value = _integer(text, "bound") if _NUMERAL.fullmatch(text) else -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"bound must be a non-negative integer, got {text!r}")
    return value


def parse_pairs(L, text: str) -> list[tuple[int, int]]:
    """Parse a relation given as "(1,C4),(C2,C8)" or as "1->C4; C2 -> C8".

    The arrow form accepts any subgroup display name (names such as <(12)>
    or <(1,0)> contain commas and parentheses, so the tuple form is only for
    plain names) and spaces around each arrow.
    """
    text = text.strip()
    if not text:
        return []
    if "->" in text:
        tokens = []
        for chunk in re.split(r"[;\s]+", re.sub(r"\s*->\s*", "->", text)):
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
            raise UsageError(exc.args[0]) from None
    return out


def _named_pairs(T: TransferSystem) -> list[list[str]]:
    L = T.lattice
    return [[L.names[k], L.names[h]] for k, h in T.pairs()]


def cmd_group_info(ns, L):
    G = L.group
    return {
        "order": G.order,
        "abelian": G.is_abelian,
        "subgroup_count": L.n,
        "subgroups": [{"name": L.names[s], "order": L.order_of(s),
                       "normal": L.normal[s], "cocyclic": L.cocyclic[s],
                       "class": L.class_of[s]} for s in range(L.n)],
        "pair_orbit_count": len(L.pair_orbits),
        "automorphism_count": len(automorphisms(G)),
        "lattice": serialize.lattice_to_json(L),
    }, []


def cmd_ts_generate(ns, L):
    pairs = parse_pairs(L, ns.pairs)
    try:
        T = generate(L, pairs)
    except TransferSystemError as exc:
        return {"error": str(exc)}, [{"claim": "relation refines inclusion", "passed": False}]
    return {"pairs": _named_pairs(T), "pair_count": T.pair_count(),
            "saturated": is_saturated(T), "system": serialize.system_to_json(T)}, []


def cmd_ts_check(ns, L):
    pairs = parse_pairs(L, ns.pairs)
    violations = validate(L, pairs)
    results = {"valid": not violations,
               "violations": [v.describe(L) for v in violations]}
    if not violations:
        results["saturated"] = is_saturated(generate(L, pairs))
    return results, [{"claim": "relation is a transfer system", "passed": not violations}]


def cmd_ts_enumerate(ns, L):
    auts = automorphisms(L.group) if ns.orbits else None  # a refusal comes before the walk
    systems = enumerate_all(L, ns.bound)
    results = {"count": len(systems),
               "systems": [_named_pairs(T) for T in systems]}
    if ns.orbits:
        orbits, profile = aut_orbits(systems, auts)
        results["orbit_count"] = len(orbits)
        results["orbit_profile"] = [list(sc) for sc in profile]
    return results, []


def cmd_image(ns, L):
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
    return results, []


def cmd_realize(ns, L):
    T = generate(L, parse_pairs(L, ns.pairs))
    if not is_saturated(T):
        return ({"error": "system is not saturated"},
                [{"claim": "input system is saturated", "passed": False}])
    verdict = realize_saturated(T)
    if isinstance(verdict, NotRealizable):
        return {"realizable": False, "tag": verdict.tag, "reason": verdict.reason}, []
    n = L.group.order
    return {"realizable": True, "index_set": index_set(n, verdict), "modulus": n}, []


def cmd_minimal_universe(ns, L):
    try:
        k = L.resolve_name(ns.sub)
        h = L.resolve_name(ns.sup)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    sets = minimal_steiner_universe(L, k, h)
    return {"transfer": [L.names[k], L.names[h]],
            "minimal_kernel_sets": [[L.names[s] for s in combo] for combo in sets]}, []


def cmd_chain(ns, L):
    chain = maximal_chain(L)
    return {"length": len(chain),
            "pair_orbit_count": len(L.pair_orbits),
            "layer_choices": [L.names[s] for s in chain.layer_choices],
            "systems": [_named_pairs(T) for T in chain.systems],
            "chain": serialize.chain_to_json(chain)}, []


def cmd_verify_paper(ns, L):
    """Print one line per criterion; the report only with --json."""
    outcomes = acceptance.run_all()
    for number, name, passed, detail in outcomes:
        print(f"{'PASS' if passed else 'FAIL'}  criterion {number} ({name}): {detail}",
              file=ns.stdout)
    checks = [{"claim": f"criterion {number} ({name})", "passed": passed}
              for number, name, passed, _ in outcomes]
    return ({"passed": all(c["passed"] for c in checks)} if ns.json else None), checks


def cmd_export(ns, L) -> str:
    """The artifact's text."""
    chain = maximal_chain(L) if ns.what == "chain" else None
    if ns.format == "json" and chain is not None:
        return serialize.dumps(serialize.chain_to_json(chain))
    if ns.format == "json":
        systems = enumerate_all(L, ns.bound)
        return serialize.dumps({
            "schema_version": serialize.SCHEMA_VERSION,
            "group": group_spec(L.group),
            "count": len(systems),
            "systems": [[[k, h] for k, h in T.pairs()] for T in systems],
        })
    try:
        hasse = hasse_diagram(L, ns.bound)
    except SearchBoundExceeded:
        if chain is None:
            raise
        hasse = None  # the chain alone, without Tr(G) behind it
    return (serialize.dot_poset(*hasse, graph_name=f"Tr_{L.group.name}") if chain is None
            else serialize.dot_chain(chain, hasse))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trlat",
        description="Transfer systems on finite groups: generate, enumerate, "
                    "check realizability, export diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)
    with_group = argparse.ArgumentParser(add_help=False)  # parent of every command on a group
    with_group.add_argument("--group", required=True)

    group = sub.add_parser("group", help="group-level queries")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    info = gsub.add_parser("info", parents=[with_group], help="subgroup lattice summary")
    info.set_defaults(fn=cmd_group_info)

    ts = sub.add_parser("ts", help="transfer-system operations")
    tsub = ts.add_subparsers(dest="subcommand", required=True)
    for name, fn, text in (("generate", cmd_ts_generate, "close a relation into a transfer system"),
                           ("check", cmd_ts_check, "validate a pair set against the axioms")):
        pairs = tsub.add_parser(name, parents=[with_group], help=text)
        pairs.add_argument("--pairs", default="")
        pairs.set_defaults(fn=fn)
    enum = tsub.add_parser("enumerate", parents=[with_group], help="list every transfer system")
    enum.add_argument("--orbits", action="store_true")
    enum.add_argument("--bound", type=_bound, default=SEARCH_BOUND)
    enum.set_defaults(fn=cmd_ts_enumerate)

    image = sub.add_parser("image", parents=[with_group], help="realizable transfer systems")
    image.add_argument("which", choices=["steiner", "linisom"])
    image.set_defaults(fn=cmd_image)

    realize = sub.add_parser("realize", help="find a realizing universe index set")
    rsub = realize.add_subparsers(dest="case", required=True)
    for case, second, text in (("cpn", "--n", "prime-power cyclic groups"),
                               ("cpq", "--q", "order-pq cyclic groups")):
        cyclic = rsub.add_parser(case, help=text)
        cyclic.add_argument("--p", type=_integer, required=True)
        cyclic.add_argument(second, type=_integer, required=True)
        cyclic.add_argument("--pairs", default="")
        cyclic.set_defaults(fn=cmd_realize)

    mu = sub.add_parser("minimal-universe", parents=[with_group],
                        help="minimal kernel sets admitting a transfer")
    mu.add_argument("--sub", required=True, help="source subgroup name")
    mu.add_argument("--sup", required=True, help="target subgroup name")
    mu.set_defaults(fn=cmd_minimal_universe)

    chain = sub.add_parser("chain", parents=[with_group], help="maximal chain in Tr(G)")
    chain.set_defaults(fn=cmd_chain)

    verify = sub.add_parser("verify-paper", help="run the acceptance suite")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(fn=cmd_verify_paper)

    export = sub.add_parser("export", parents=[with_group], help="write DOT or JSON artifacts")
    export.add_argument("--what", choices=["tr", "chain"], default="tr")
    export.add_argument("--format", choices=["dot", "json"], required=True)
    export.add_argument("--out", default=None)
    export.add_argument("--bound", type=_bound, default=SEARCH_BOUND)
    export.set_defaults(fn=cmd_export)

    return parser


def _check_out(path: str) -> None:
    """Refuse, before any work, an `export --out` path that is empty, is a
    directory or whose directory is missing or not writable; `run` also
    refuses a failed open."""
    if not path:
        raise UsageError("--out needs a file name, got an empty string")
    parent = os.path.dirname(path) or "."
    for failed, problem in ((os.path.isdir(path), "is a directory"),
                            (not os.path.isdir(parent), f"no directory {parent}"),
                            (not os.access(parent, os.W_OK | os.X_OK), f"{parent} is not writable")):
        if failed:
            raise UsageError(f"--out {path}: {problem}")


def _group(ns):
    """The command's group: `realize` checks its primes before it builds C_n;
    `verify-paper` has none."""
    if ns.command == "realize":
        return cyclic_group(cpn_modulus(ns.p, ns.n) if ns.case == "cpn"
                            else cpq_modulus(ns.p, ns.q))
    return parse_group(ns.group) if "group" in ns else None


def run(argv: list[str], out=None) -> int:
    """Run one command: resolve its group and lattice, then print its report
    (or, for `export`, write its artifact).  The exit code is 1 exactly when
    a check the command returned failed."""
    out = out or sys.stdout
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    started, ns.stdout = time.perf_counter(), out
    try:
        if ns.command == "export" and ns.out is not None:
            _check_out(ns.out)
        G = _group(ns)
        L = subgroup_lattice(G) if G is not None else None
        if ns.command == "export":
            text = ns.fn(ns, L)
            if not ns.out:
                print(text, file=out)
                return 0
            try:
                with open(ns.out, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise UsageError(f"--out {ns.out}: {exc}") from None
            return 0
        results, checks = ns.fn(ns, L)
        if results is not None:
            doc = {"schema_version": serialize.SCHEMA_VERSION, "command": list(argv),
                   "results": results, "checks": checks,
                   "timing_seconds": round(time.perf_counter() - started, 6)}
            if G is not None:
                doc["group"] = group_spec(G)
            print(serialize.dumps(doc), file=out)
        return 0 if all(c["passed"] for c in checks) else VALIDATION_ERROR
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
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
