"""Time one fresh set-up of a workload and print its seconds.

Usage: python bench/setup_probe.py <enumerate|closure> <seed>, with
PYTHONPATH pointing at the checkout's src.  The seeded tables are made
before the clock starts; the clock covers importing trlat and building the
workload's groups and subgroup lattices.
"""

import sys
import time

from common import build, group_spec
from wl_closure import GROUPS as CLOSURE_GROUPS
from wl_enumerate import LADDER


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    names = {"enumerate": LADDER, "closure": CLOSURE_GROUPS}[workload]
    specs = {name: group_spec(name, seed) for name in names}
    start = time.perf_counter()
    build(specs)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
