"""The `enumerate` workload: all of Tr(G), its automorphism orbits and a
maximal chain, for each group of a fixed ladder, pass after pass.

One operation is one ladder group: enumerate_all(L, bound=len(L.pair_orbits)),
automorphisms(G), aut_orbits and maximal_chain(L), the library form of
`trlat ts enumerate --orbits` plus `trlat chain`.  A pass is the ladder.
"""

from __future__ import annotations

import random
import time

from common import Context, Result, peak_rss_mb, set_up, summary
from reference import catalan
from tracer import LADDER

# |Tr(G)| and the number of its orbits under Aut(G).  Q8 is the paper's
# 68 in 29 orbits; C16 is Cat(5) (Balchin-Barnes-Roitzheim), and Aut(C16)
# fixes every subgroup; the rest are the values of the first benchmarked
# commit, unchanged by relabeling.
EXPECTED = {
    "Q8": (68, 29),
    "C16": (catalan(5), catalan(5)),
    "D8": (294, 175),
    "C24": (544, 544),
    "C2xC6": (3396, 788),
    "D12": (3133, 1757),
}
SAMPLE = 4  # systems per operation checked to be closed by the reference


def run(ctx: Context) -> Result:
    import trlat.chains as chains
    import trlat.lattice as lattice
    import trlat.transfer as transfer

    result = Result()
    (setup_wall, setup_s), groups = set_up(ctx, "enumerate", LADDER)
    pair_orbits = {name: ref.pair_orbit_count() for name, (_, _, ref, _) in groups.items()}

    rng = random.Random(ctx.seed)
    op_s, wall_op_s, wall_pass_s = [], [], []

    def check(name, systems, orbits, chain) -> list[str]:
        _, _, ref, tr = groups[name]
        want_tr, want_orbits = EXPECTED[name]
        count = len(systems)
        problems = []
        if count != want_tr:
            problems.append(f"|Tr| = {count}, expected {want_tr}")
        if len({T.rows for T in systems}) != count:
            problems.append("duplicate systems")
        in_orbits = sum(len(orbit) for orbit in orbits)
        if len(orbits) != want_orbits or in_orbits != count:
            problems.append(f"{len(orbits)} orbits holding {in_orbits} systems, "
                            f"expected {want_orbits} holding {count}")
        if len(chain) != 1 + pair_orbits[name]:
            problems.append(f"chain length {len(chain)}, expected 1 + {pair_orbits[name]}")
        sample = rng.sample(systems, min(SAMPLE, count))
        if not all(ref.is_closed(tr.rows_to_pairs(T.rows)) for T in sample):
            problems.append("an enumerated relation is not a transfer system")
        return problems

    def one_pass(i: int) -> float:
        durations = []
        for name in LADDER:
            G, L, _, _ = groups[name]
            ctx.set_request(f"pass{i}/{name}")
            start = time.perf_counter()
            try:
                systems = transfer.enumerate_all(L, bound=len(L.pair_orbits))
                orbits, _ = transfer.aut_orbits(systems, lattice.automorphisms(G))
                chain = chains.maximal_chain(L)
            except Exception as exc:  # counted as a failed operation
                problems = [f"raised {exc!r}"]
            else:
                problems = None
            durations.append(time.perf_counter() - start)
            ctx.gauge.read()
            # checked between operations, outside their timing
            result.record(f"pass {i} {name}", problems or check(name, systems, orbits, chain))
        factor = ctx.gauge.pass_factor(durations)
        wall_op_s.extend(durations)
        op_s.extend(d * factor for d in durations)
        wall_pass_s.append(sum(durations))
        return wall_pass_s[-1] * factor

    times, traced = ctx.measure(one_pass)
    rss = peak_rss_mb()
    if traced:
        result.per_layer = ctx.layer_metrics(times, traced)

    ops = len(LADDER) * len(times)  # the untraced ones
    result.pass_s = times
    result.metrics = summary(setup_s, times, op_s[:ops], rss)
    result.wall = summary(setup_wall, wall_pass_s[:len(times)], wall_op_s[:ops], rss)
    systems_per_pass = sum(tr for tr, _ in EXPECTED.values())
    result.named = [
        ("enumerate_s", result.metrics["pass_s"], result.wall["pass_s"], "s"),
        ("systems_per_s", systems_per_pass / result.metrics["pass_s"],
         systems_per_pass / result.wall["pass_s"], "1/s"),
    ]
    return result
