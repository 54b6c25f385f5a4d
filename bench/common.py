"""What the three workloads share: their groups, set-up, timed passes and checks."""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import TABLE_GENERATORS, Reference, Translation, seeded_table
from tracer import Tracer, per_layer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
# Seconds `kernel` takes on the machine the benchmark was written on (a
# 2-vCPU 2.0 GHz Xeon virtual machine) when it runs at full speed.
REFERENCE_KERNEL_S = 0.002


def kernel() -> int:
    """Fixed pure-Python work of the kind trlat does: bit operations on rows of
    ints, tuples and a dict.  Every reported time is scaled by how long this
    takes, so it must never change."""
    rows = [1 << k for k in range(32)]
    seen = {}
    for r in range(40):
        rows[r % 32] |= 1 << (r * 7 % 32)
        for m in range(32):
            bit, rm = 1 << m, rows[m]
            for i in range(32):
                if rows[i] & bit:
                    rows[i] |= rm
        seen[tuple(rows)] = r
    return len(seen)


class Gauge:
    """The machine's current speed, read by timing `kernel`.

    The shared machines this runs on change speed by up to a half, in
    stretches of a tenth of a second to minutes, for all processes alike,
    which makes raw wall times of two runs incomparable.  Each reported time
    is therefore given in reference seconds: wall seconds x
    REFERENCE_KERNEL_S / the kernel's time around the pass it belongs to
    (see `pass_factor`).  Raw wall times are printed and recorded beside them.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.read()

    def read(self) -> None:
        """Take a reading: the median of three kernel timings."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.readings.append(statistics.median(times))

    def pass_factor(self, durations: list[float]) -> float:
        """Reference over the kernel time around a pass whose operations took
        `durations`, with a reading taken after each: every operation weighs
        the mean of the readings before and after it by its duration."""
        r = self.readings[-len(durations) - 1:]
        kernel_s = sum(d * (a + b) / 2 for d, a, b in zip(durations, r, r[1:])) / sum(durations)
        return REFERENCE_KERNEL_S / kernel_s

    def run_factor(self) -> float:
        """Reference over the median kernel time of the whole run."""
        return REFERENCE_KERNEL_S / statistics.median(self.readings)


def group_spec(name: str, seed: int) -> dict:
    """A trlat group spec; table-built groups get a seeded element order."""
    if name in TABLE_GENERATORS:
        return {"kind": "table", "name": name, "table": seeded_table(name, seed)}
    if "x" in name:
        return {"kind": "abelian", "factors": [int(f[1:]) for f in name.split("x")]}
    return {"kind": "builtin", "name": name}


def build(specs: dict[str, dict]) -> dict[str, tuple]:
    """Set-up: import trlat, then make each group and its subgroup lattice."""
    from trlat import groups, lattice
    built = {}
    for name, spec in specs.items():
        G = groups.make_group(spec)
        built[name] = (G, lattice.subgroup_lattice(G))
    return built


def cayley_table(G) -> list[list[int]]:
    return [[G.compose(a, b) for b in range(G.order)] for a in range(G.order)]


def child_env() -> dict[str, str]:
    """Environment for every child: this checkout's trlat, no search-bound
    override, and compiled bytecode kept inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("TL_SEARCH_BOUND", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def run_child(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child process to its end; returns it and its spawn-to-exit seconds."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - start


def probe_setup(gauge: Gauge, args: list[str], in_child: bool) -> tuple[float, float]:
    """Set-up seconds of fresh interpreters running `args`, as (wall, reference)
    medians: the child's own report when in_child, else spawn to exit."""
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        proc, spent = run_child(args)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if in_child:
            spent = float(proc.stdout.split()[-1])
        gauge.read()
        wall.append(spent)
        scaled.append(spent * gauge.pass_factor([spent]))
    return statistics.median(wall), statistics.median(scaled)


def set_up(ctx: Context, workload: str, names) -> tuple[tuple[float, float], dict]:
    """Set-up of an in-process workload: its set-up time in fresh interpreters
    (wall, reference), then the set-up here, traced as the request "setup",
    with each group paired with its reference: {name: (G, L, ref, tr)}."""
    setup = probe_setup(ctx.gauge, [str(BENCH_DIR / "setup_probe.py"), workload,
                                    str(ctx.seed)], True)
    specs = {name: group_spec(name, ctx.seed) for name in names}
    with ctx.tracing("setup"):
        built = build(specs)
    groups = {}
    for name, (G, L) in built.items():
        ref = Reference(cayley_table(G))
        groups[name] = (G, L, ref, Translation(ref, L.subgroups))
    return setup, groups


def run_passes(seconds: float, one_pass, start: int = 0) -> list[float]:
    """Call one_pass(i) until `seconds` have passed (at least once); returns
    what each pass reports as its time."""
    times = []
    began = time.perf_counter()
    while not times or time.perf_counter() - began < seconds:
        times.append(one_pass(start + len(times)))
    return times


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values, q in (0, 1]."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


@dataclass
class Context:
    seed: int
    seconds: float
    tracer: Tracer | None = None
    gauge: Gauge = field(default_factory=Gauge)
    traced_wall_s: float = 0.0

    @contextlib.contextmanager
    def tracing(self, request: str = ""):
        """Install the span wrappers in this process for the block, and add
        its wall time to traced_wall_s (traced runs only)."""
        if self.tracer is None:
            yield
            return
        self.tracer.request = request
        self.tracer.install()
        began = time.perf_counter()
        try:
            yield
        finally:
            self.traced_wall_s += time.perf_counter() - began
            self.tracer.uninstall()

    def set_request(self, request: str) -> None:
        if self.tracer is not None:
            self.tracer.request = request

    def measure(self, one_pass, traced_pass=None) -> tuple[list[float], list[float]]:
        """Pass times for `seconds`.  A traced run spends the first half
        untraced and the second half traced: by `traced_pass`, which traces
        in child processes, or by `one_pass` with the wrappers installed here."""
        if self.tracer is None:
            return run_passes(self.seconds, one_pass), []
        times = run_passes(self.seconds / 2, one_pass)
        if traced_pass is None:
            with self.tracing():
                traced = run_passes(self.seconds / 2, one_pass, start=len(times))
        else:
            began = time.perf_counter()
            traced = run_passes(self.seconds / 2, traced_pass, start=len(times))
            self.traced_wall_s += time.perf_counter() - began
        return times, traced

    def layer_metrics(self, times: list[float], traced: list[float],
                      extra: dict[str, float] | None = None) -> dict[str, float]:
        extra = dict(extra or {})
        extra["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(times)
        extra["trace.kernel_ms"] = statistics.median(self.gauge.readings) * 1e3
        return per_layer(self.tracer.spans, len(traced), self.traced_wall_s,
                         self.gauge.run_factor(), extra)


def summary(setup_s: float, passes: list[float], ops, rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics from set-up, pass and operation seconds.  Every
    pass holds the same number of operations; their median and 99th
    percentile are taken per pass, then the median over passes."""
    k = len(ops) // len(passes)
    per_pass = [sorted(ops[i * k:(i + 1) * k]) for i in range(len(passes))]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(passes),
        "op_p50_ms": statistics.median(statistics.median(p) for p in per_pass) * 1e3,
        "op_p99_ms": statistics.median(percentile(p, 0.99) for p in per_pass) * 1e3,
        "peak_rss_mb": rss_mb,
    }


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)  # end-to-end, reference seconds
    wall: dict[str, float] = field(default_factory=dict)     # the same from wall seconds
    named: list[tuple[str, float, float, str]] = field(default_factory=list)  # value, wall
    per_layer: dict[str, float] | None = None
    pass_s: list[float] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        """One attempted operation; it failed if any check raised a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
