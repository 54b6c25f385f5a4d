"""trlat benchmark: Tr(G) enumeration, closure queries and CLI commands.

Usage, from the root of a checkout:

    python3 bench/run.py --workload enumerate|closure|cli|all --seed N \
        --seconds S --trace 0|1

Each workload is a closed loop with one caller in one process, pinned to one
CPU; the `cli` workload starts one child at a time.  The seed drives the
element order of the table-built groups and the closure query stream.  Work
runs in passes for --seconds; every output is checked outside the timing, and
an operation that fails a check, raises, exits with an unexpected code or
prints nothing counts as failed.

Times are in reference seconds: wall seconds scaled by how long a fixed
kernel takes around the pass (common.Gauge), because the shared machines
this runs on change speed by up to a half within minutes.  The wall-clock
figures are printed beside them.

End-to-end metrics (--trace 0), the same for every workload:
  setup_s      median set-up of fresh interpreters: importing trlat and
               building the groups and lattices (cli: `import trlat.cli`,
               spawn to exit)
  pass_s       median time of a pass: the ladder (enumerate), 1024 queries
               (closure), every command once (cli)
  op_p50_ms,   median and 99th percentile of one operation (a ladder group,
  op_p99_ms    a query, a command from spawn to exit), taken per pass, then
               the median over passes
  peak_rss_mb  peak resident set (cli: of the largest child)
Above them each workload prints its own figures (enumerate_s, systems_per_s,
query_p50_us, query_p99_us, queries_per_s, cold_start_s, image_linisom_s,
export_dot_s, export_json_s, verify_paper_s) and error_rate.

With --trace 1 the first half of the time runs untraced and the second half
with spans around every public function of the trlat modules; the metrics
are then the per-layer ones, and the spans go to bench/out/.  `--workload
all` runs the three in one process, so its peak_rss_mb includes the
workloads before.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"), ("op_p99_ms", "ms"),
              ("peak_rss_mb", "MB"))
WORKLOADS = ("enumerate", "closure", "cli")


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "jsonschema": metadata.version("jsonschema"),
            "nproc": os.cpu_count(), "commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    # imported once the checkout's src is on the path
    import wl_cli
    import wl_closure
    import wl_enumerate
    from common import OUT_DIR, Context
    from tracer import Tracer

    module = {"enumerate": wl_enumerate, "closure": wl_closure, "cli": wl_cli}[name]
    ctx = Context(seed=seed, seconds=seconds, tracer=Tracer() if trace else None)
    result = module.run(ctx)
    if trace:
        span_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        ctx.tracer.dump(span_path)
        result.named.append(("span_file", str(span_path.relative_to(ROOT)), None, ""))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "trlat" / "__init__.py").is_file():
        print(f"error: no trlat sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # One CPU for this process and the children it starts, so that the speed
    # gauge (common.Gauge) reads the CPU the measured work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.pycache_prefix = str(ROOT / "bench" / "out" / "pycache")
    sys.path.insert(0, str(SRC))
    os.environ.pop("TL_SEARCH_BOUND", None)
    (ROOT / "bench" / "out").mkdir(exist_ok=True)
    import trlat
    if Path(trlat.__file__).resolve().parent != SRC / "trlat":
        print(f"error: imported trlat from {trlat.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import PER_LAYER

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            chosen = [(m, unit, result.per_layer[m], None) for m, unit in PER_LAYER]
        else:
            chosen = [(m, unit, result.metrics[m], result.wall[m]) for m, unit in END_TO_END]
        print(f"== workload {name}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        print(f"  {'metric':32s} {'reference speed':>22s} {'wall clock':>22s}")
        error_rate = ("error_rate", result.failed / result.attempted, None, "ratio")
        for m, value, wall, unit in result.named + [error_rate]:
            print(f"  {m:32s} {value!s:>22} {'' if wall is None else wall!s:>22} {unit}")
        for m, unit, value, wall in chosen:
            print(f"  {m:32s} {value!s:>22} {'' if wall is None else wall!s:>22} {unit}")
        print(f"  attempted {result.attempted}  failed {result.failed}")
        for problem in result.problems[:20]:
            print(f"  FAILED {problem}")
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "attempted": result.attempted,
                  "failed": result.failed, "named": result.named,
                  "metrics": {m: value for m, _, value, _ in chosen}, "wall": result.wall,
                  "pass_s": result.pass_s}
        with open(ROOT / "bench" / "out" / f"result-{name}-seed{args.seed}-trace{args.trace}"
                  ".json", "w") as fh:
            json.dump(record, fh, indent=1)
        correct = correct and result.failed == 0
        attempted += result.attempted
        failed += result.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": value, "unit": unit}
                        for m, unit, value, _ in chosen})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
