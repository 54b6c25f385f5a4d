"""The `cli` workload: trlat commands as a user runs them, one process at a time.

Each command runs in a fresh interpreter as
`python -c "from trlat.cli import main; main()" ...` (`python -m trlat.cli`
would print nothing: the module has no __main__ guard).  One operation is
one command, timed from spawn to exit; a pass runs every command once, in
an order shuffled by the seed.  Only this workload pays the import, the
report schema validation, the per-document JSON validation, the Hasse-cover
scan, the isometries scan and the acceptance suite.
"""

from __future__ import annotations

import json
import random
import re
import statistics

from common import BENCH_DIR, OUT_DIR, Context, Result, cayley_table, peak_rss_mb, \
    probe_setup, run_child, summary
from reference import Reference, Translation
from tracer import CLI_COMMANDS

COMMANDS = {  # label: (argv, expected exit code)
    "group_info": (["group", "info", "--group", "Q8"], 0),
    "image_linisom": (["image", "linisom", "--group", "C30"], 0),
    "export_dot": (["export", "--format", "dot", "--group", "C2xC4"], 0),
    "export_json": (["export", "--format", "json", "--group", "C2xC4"], 0),
    "verify_paper": (["verify-paper", "--json"], 0),
    "ts_generate": (["ts", "generate", "--group", "Sym4", "--pairs", "(1,Sym4)"], 0),
    "ts_check": (["ts", "check", "--group", "C4", "--pairs", "(1,C4)"], 1),
    "ts_enumerate": (["ts", "enumerate", "--group", "Q8", "--orbits"], 0),
    "image_steiner": (["image", "steiner", "--group", "Q8"], 0),
    "realize_cpq": (["realize", "cpq", "--p", "2", "--q", "3", "--pairs", "(1,C3)"], 0),
    "chain": (["chain", "--group", "Q8"], 0),
}
assert tuple(COMMANDS) == CLI_COMMANDS
MAIN = "from trlat.cli import main; main()"
IMPORT_SAMPLES = 3


def _parse(label: str, stdout: str):
    """The command's output with the run-dependent timing_seconds dropped."""
    if label == "export_dot":
        return stdout
    lines = stdout.splitlines()
    start = lines.index("{") if label == "verify_paper" else 0
    doc = json.loads("\n".join(lines[start:]))
    doc.pop("timing_seconds", None)
    return (lines[:start], doc) if label == "verify_paper" else doc


class Checks:
    """Full checks of each command's output, from facts not computed by the
    code under test: the paper's counts, the reference closure, networkx."""

    def __init__(self):
        from trlat import groups, lattice

        def ref_of(spec):
            G = groups.make_group(spec)
            return G, Reference(cayley_table(G))

        _, sym4 = ref_of("Sym4")
        self.sym4_pairs = len(sym4.closure([(0, sym4.n - 1)])) - sym4.n
        _, c4 = ref_of("C4")
        self.c4_closed = c4.is_closed([(0, c4.n - 1)])
        _, q8 = ref_of("Q8")
        self.q8_pair_orbits = q8.pair_orbit_count()
        G, self.c2c4 = ref_of({"kind": "abelian", "factors": [2, 4]})
        self.c2c4_tr = Translation(self.c2c4, lattice.subgroup_lattice(G).subgroups)

    def __call__(self, label: str, out) -> list[str]:
        return getattr(self, label)(out)

    @staticmethod
    def _expect(problems, what, got, want):
        if got != want:
            problems.append(f"{what} = {got!r}, expected {want!r}")

    def group_info(self, doc):
        p, r = [], doc["results"]
        self._expect(p, "subgroups", r["subgroup_count"], 6)
        self._expect(p, "pair orbits", r["pair_orbit_count"], self.q8_pair_orbits)
        self._expect(p, "automorphisms", r["automorphism_count"], 24)
        return p

    def image_linisom(self, doc):
        # 33 distinct values over 2^15 universes: the first benchmarked commit
        p, r = [], doc["results"]
        self._expect(p, "count", (r["count"], len(r["systems"])), (33, 33))
        self._expect(p, "universes", r["universe_count"], 2 ** 15)
        return p

    def export_dot(self, text):
        import networkx as nx
        p = []
        nodes = re.findall(r'^  "([01]+)" \[label=', text, re.M)
        edges = set(re.findall(r'^  "([01]+)" -> "([01]+)"', text, re.M))
        self._expect(p, "nodes", (len(nodes), len(set(nodes))), (328, 328))
        bits = {key: int(key, 2) for key in nodes}
        order = nx.DiGraph()
        order.add_nodes_from(nodes)
        order.add_edges_from((a, b) for a in nodes for b in nodes
                             if a != b and bits[a] & ~bits[b] == 0)
        covers = set(nx.transitive_reduction(order).edges())
        self._expect(p, "edges", len(edges), len(covers))
        if edges != covers:
            p.append("edges are not the cover relations of the refinement order")
        return p

    def export_json(self, doc):
        from trlat.serialize import system_from_json
        p = []
        systems = doc["systems"]
        self._expect(p, "count", (doc["count"], len(systems)), (328, 328))
        if len({json.dumps(s) for s in systems}) != len(systems):
            p.append("duplicate systems")
        for pairs in systems:
            if not self.c2c4.is_closed(self.c2c4_tr.pairs_to_ref(pairs)):
                p.append(f"{pairs} is not a transfer system")
                break
            back = system_from_json({"schema_version": 1, "group": doc["group"],
                                     "subgroup_count": self.c2c4.n, "pairs": pairs})
            if [list(pair) for pair in back.pairs()] != pairs:
                p.append(f"{pairs} does not round-trip")
                break
        return p

    def verify_paper(self, out):
        lines, doc = out
        p = []
        self._expect(p, "PASS lines", sum(line.startswith("PASS") for line in lines), 11)
        self._expect(p, "passed", doc["results"].get("passed"), True)
        self._expect(p, "passed checks", sum(c["passed"] for c in doc["checks"]), 11)
        return p

    def ts_generate(self, doc):
        p = []
        self._expect(p, "pairs", doc["results"]["pair_count"], self.sym4_pairs)
        return p

    def ts_check(self, doc):
        p, r = [], doc["results"]
        self._expect(p, "valid", r["valid"], self.c4_closed)
        if not r["violations"]:
            p.append("no violation listed")
        return p

    def ts_enumerate(self, doc):
        # the paper: 68 systems in 29 orbits, 1 of size 6, 17 of size 3, 11 of size 1
        p, r = [], doc["results"]
        self._expect(p, "count", (r["count"], len(r["systems"])), (68, 68))
        self._expect(p, "orbits", r["orbit_count"], 29)
        self._expect(p, "orbit profile", r["orbit_profile"], [[6, 1], [3, 17], [1, 11]])
        return p

    def image_steiner(self, doc):
        # 16 embedding-map values on Q8: the first benchmarked commit
        p, r = [], doc["results"]
        self._expect(p, "count", (r["count"], len(r["systems"])), (16, 16))
        return p

    def realize_cpq(self, doc):
        p, r = [], doc["results"]
        self._expect(p, "verdict", (r["realizable"], r.get("tag")), (False, "indq"))
        return p

    def chain(self, doc):
        p, r = [], doc["results"]
        want = 1 + self.q8_pair_orbits
        self._expect(p, "length", (r["length"], len(r["systems"])), (want, want))
        return p


def _import_times(gauge) -> dict[str, float]:
    """cli.import_s and cli.import_jsonschema_s: medians of `-X importtime`,
    in reference seconds."""
    cli, schema = [], []
    for _ in range(IMPORT_SAMPLES):
        proc, wall = run_child(["-X", "importtime", "-c", "import trlat.cli"])
        gauge.read()
        factor = gauge.pass_factor([wall])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        cli.append(cumulative["trlat.cli"] / 1e6 * factor)
        schema.append(cumulative["jsonschema"] / 1e6 * factor)
    return {"cli.import_s": statistics.median(cli),
            "cli.import_jsonschema_s": statistics.median(schema)}


def run(ctx: Context) -> Result:
    result = Result()
    setup_wall, setup_s = probe_setup(ctx.gauge, ["-c", "import trlat.cli"], False)
    checks = Checks()
    rng = random.Random(ctx.seed)
    op_s, wall_op_s, wall_pass_s, runs = [], [], [], []
    span_file = OUT_DIR / f"cli-child-spans-{ctx.seed}.json"

    def one_pass(i: int, traced: bool = False) -> float:
        durations = []
        order = list(COMMANDS)
        rng.shuffle(order)
        for label in order:
            argv, _ = COMMANDS[label]
            if traced:
                span_file.unlink(missing_ok=True)
                proc, wall = run_child([str(BENCH_DIR / "cli_child.py"), str(span_file), *argv])
                if span_file.exists():  # a crashed child left none; its exit code counts
                    with open(span_file) as fh:
                        ctx.tracer.extend(json.load(fh), f"pass{i}/{label}")
            else:
                proc, wall = run_child(["-c", MAIN, *argv])
            ctx.gauge.read()
            durations.append(wall)
            runs.append((i, label, proc.returncode, proc.stdout, proc.stderr))
        factor = ctx.gauge.pass_factor(durations)
        if not traced:
            wall_op_s.extend(durations)
            op_s.extend(d * factor for d in durations)
            wall_pass_s.append(sum(durations))
        return sum(durations) * factor

    times, traced = ctx.measure(one_pass, lambda i: one_pass(i, traced=True))
    rss = peak_rss_mb(children=True)
    if traced:
        span_file.unlink(missing_ok=True)
        result.per_layer = ctx.layer_metrics(times, traced, _import_times(ctx.gauge))

    first = {}  # label: (normalized output, whether it passed the full check)
    for i, label, code, stdout, stderr in runs:
        problems = []
        want_code = COMMANDS[label][1]
        if code != want_code:
            problems.append(f"exit code {code}, expected {want_code}: {stderr.strip()[-300:]}")
        if not stdout.strip():
            problems.append("empty stdout")
        else:
            try:
                out = _parse(label, stdout)
            except (ValueError, KeyError) as exc:
                problems.append(f"unparsable output: {exc!r}")
            else:
                if label not in first:
                    try:
                        found = checks(label, out)
                    except (KeyError, TypeError, ValueError) as exc:
                        found = [f"malformed report: {exc!r}"]
                    first[label] = (out, not found)
                    problems += found
                elif out != first[label][0]:
                    problems.append("output differs from the first run of the command")
                elif not first[label][1]:
                    problems.append("same output as a run that failed its checks")
        result.record(f"pass {i} {label}", problems)

    result.pass_s = times
    result.metrics = summary(setup_s, times, op_s, rss)
    result.wall = summary(setup_wall, wall_pass_s, wall_op_s, rss)
    by_label = {}
    for (_, label, *_), scaled, wall in zip(runs, op_s, wall_op_s):  # untraced runs come first
        by_label.setdefault(label, []).append((scaled, wall))
    for name, label in (("cold_start_s", "group_info"), ("image_linisom_s", "image_linisom"),
                        ("export_dot_s", "export_dot"), ("export_json_s", "export_json"),
                        ("verify_paper_s", "verify_paper")):
        scaled, wall = zip(*by_label[label])
        result.named.append((name, statistics.median(scaled), statistics.median(wall), "s"))
    return result
