"""The `closure` workload: a seeded stream of small queries, one at a time.

The groups: Sym4, D24, C2xA4 and C2xC2xC2, whose Tr(G) enumeration is out of
reach, D22, and Q8 and C24, where Tr(G) is known.  A query is `generate` on 1-4 random
inclusion pairs (half of them), `validate` on 1-6 random pairs (a quarter;
most are invalid, so the violations get listed), `join` or `meet` of two
earlier results on the same lattice (a tenth each), or a malformed
`generate` whose relation holds a pair that does not refine inclusion (one
in twenty), which must raise TransferSystemError.  A pass is BATCH queries;
its time is the sum of their latencies.
"""

from __future__ import annotations

import array
import random
import time

from common import Context, Result, peak_rss_mb, set_up, summary

GROUPS = ("Sym4", "D24", "C2xA4", "C2xC2xC2", "D22", "Q8", "C24")
KINDS = ("generate", "validate", "join", "meet", "malformed")
WEIGHTS = (50, 25, 10, 10, 5)
BATCH = 1024  # so that ten queries of a pass lie beyond its 99th percentile
POOL = 16  # recent generate results per group that join and meet draw from
# Every query is checked between queries, outside its timing: its type, whether
# it raised, and a meet against the row-wise intersection.  One in CHECK_EVERY
# is also checked against the reference closure, which costs about as much as
# the query.
CHECK_EVERY = 6


def run(ctx: Context) -> Result:
    import trlat.transfer as transfer
    from trlat.transfer import TransferSystem, TransferSystemError

    result = Result()
    (setup_wall, setup_s), groups = set_up(ctx, "closure", GROUPS)
    inputs = {}  # the pairs queries draw from, in the program's indices
    for name, (_, _, ref, tr) in groups.items():
        to_prog = tr.from_ref
        pairs = [(to_prog[k], to_prog[h]) for k, h in ref.proper_pairs]
        nonpairs = [(to_prog[k], to_prog[h]) for k in range(ref.n) for h in range(ref.n)
                    if not ref.subgroups[k] <= ref.subgroups[h]]
        inputs[name] = (pairs, nonpairs)

    rng = random.Random(ctx.seed)
    pools = {name: [] for name in GROUPS}
    # 8 bytes a query, so peak memory barely follows the query rate
    latencies, wall_latencies = array.array("d"), array.array("d")
    wall_pass_s = []

    def check(q, name, kind, arg, operands, out) -> list[str]:
        _, _, ref, tr = groups[name]
        full = (q + ctx.seed) % CHECK_EVERY == 0
        if kind == "malformed":
            if not isinstance(out, TransferSystemError):
                return [f"expected TransferSystemError, got {out!r}"]
        elif isinstance(out, Exception):
            return [f"raised {out!r}"]
        elif kind == "validate":
            if not isinstance(out, list):
                return [f"returned {out!r}"]
            if full and (not out) != ref.is_closed(tr.pairs_to_ref(arg)):
                return [f"verdict {[v.axiom for v in out] or 'valid'} disagrees "
                        "with the reference"]
        elif not isinstance(out, TransferSystem):
            return [f"returned {out!r}"]
        elif kind == "meet":
            a, b = operands
            if out.rows != tuple(x & y for x, y in zip(a.rows, b.rows)):
                return ["meet is not the row-wise intersection"]
        elif full:
            want = (ref.closure(tr.pairs_to_ref(arg)) if kind == "generate"
                    else ref.closure(tr.rows_to_pairs(operands[0].rows)
                                     | tr.rows_to_pairs(operands[1].rows)))
            if tr.rows_to_pairs(out.rows) != want:
                return ["differs from the reference closure"]
        return []

    def one_query(q: int) -> float:
        name = rng.choice(GROUPS)
        kind = rng.choices(KINDS, WEIGHTS)[0]
        L = groups[name][1]
        pairs, nonpairs = inputs[name]
        if kind in ("join", "meet") and len(pools[name]) < 2:
            kind = "generate"
        arg = operands = None
        if kind == "generate":
            arg = rng.sample(pairs, rng.randint(1, 4))
        elif kind == "validate":
            arg = rng.sample(pairs, rng.randint(1, 6))
        elif kind == "malformed":
            arg = rng.sample(pairs, rng.randint(0, 3)) + [rng.choice(nonpairs)]
            rng.shuffle(arg)
        else:
            operands = rng.sample(pools[name], 2)
        ctx.set_request(f"q{q}/{name}")
        start = time.perf_counter()
        try:
            if kind in ("generate", "malformed"):
                out = transfer.generate(L, arg)
            elif kind == "validate":
                out = transfer.validate(L, arg)
            elif kind == "join":
                out = transfer.join(*operands)
            else:
                out = transfer.meet(*operands)
        except Exception as exc:  # only malformed queries may raise; checked below
            out = exc
        latency = time.perf_counter() - start
        if kind == "generate" and isinstance(out, TransferSystem):
            pools[name].append(out)
            del pools[name][:-POOL]
        result.record(f"query {q} ({kind} on {name})", check(q, name, kind, arg, operands, out))
        return latency

    def one_pass(i: int) -> float:
        batch = [one_query(q) for q in range(i * BATCH, (i + 1) * BATCH)]
        ctx.gauge.read()
        factor = ctx.gauge.pass_factor([sum(batch)])
        wall_latencies.extend(batch)
        latencies.extend(x * factor for x in batch)
        wall_pass_s.append(sum(batch))
        return wall_pass_s[-1] * factor

    times, traced = ctx.measure(one_pass)
    rss = peak_rss_mb()
    if traced:
        result.per_layer = ctx.layer_metrics(times, traced)

    queries = BATCH * len(times)  # the untraced ones
    result.pass_s = times
    result.metrics = summary(setup_s, times, latencies[:queries], rss)
    result.wall = summary(setup_wall, wall_pass_s[:len(times)], wall_latencies[:queries], rss)
    result.named = [
        ("query_p50_us", result.metrics["op_p50_ms"] * 1e3, result.wall["op_p50_ms"] * 1e3, "us"),
        ("query_p99_us", result.metrics["op_p99_ms"] * 1e3, result.wall["op_p99_ms"] * 1e3, "us"),
        ("queries_per_s", queries / sum(times), queries / sum(wall_pass_s[:len(times)]), "1/s"),
    ]
    return result
