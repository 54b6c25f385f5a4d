"""Spans around trlat's public functions, recorded from outside the program.

`Tracer.install` wraps every public function of each layer module and the
constructors of `FiniteGroup` and `SubgroupLattice`, then rebinds every name
under which a trlat module holds one of them, so that `trlat.cli`'s own
`enumerate_all` reaches the wrapper as well as `trlat.transfer.enumerate_all`.
`uninstall` puts the originals back.  Spans stay in memory until `dump`.

A span is [name, parent index, start ns, end ns, request id, count, raised].
The program is single-threaded, so spans nest and a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("groups", "lattice", "transfer", "chains", "realize", "serialize", "cli",
          "acceptance")
LADDER = ("Q8", "C16", "D8", "C24", "C2xC6", "D12")
CLI_COMMANDS = ("group_info", "image_linisom", "export_dot", "export_json", "verify_paper",
                "ts_generate", "ts_check", "ts_enumerate", "image_steiner", "realize_cpq",
                "chain")

# Work done by a call, recorded as the span's count.
_COUNTS = {
    "lattice.SubgroupLattice": lambda args, result: args[0].n,
    "lattice.automorphisms": lambda args, result: len(result),
    "transfer.enumerate_all": lambda args, result: len(result),
    "serialize.cover_relations": lambda args, result: len(result),
}


def _per_layer_names() -> list[tuple[str, str]]:
    names = [("groups.table_check_s", "s"), ("groups.tables", "count"),
             ("lattice.subgroup_lattice_s", "s"), ("lattice.subgroups", "count"),
             ("lattice.automorphisms_s", "s"), ("lattice.automorphisms", "count"),
             ("transfer.enumerate_all_s", "s")]
    names += [(f"transfer.enumerate_all_s.{g}", "s") for g in LADDER]
    names += [(f"transfer.systems.{g}", "count") for g in LADDER]
    names += [(f"transfer.aut_orbits_s.{g}", "s") for g in LADDER]
    names += [("transfer.generate_s", "s"), ("transfer.generate_calls", "count"),
              ("transfer.validate_s", "s"), ("transfer.validate_calls", "count"),
              ("transfer.join_s", "s"), ("transfer.meet_s", "s"),
              ("transfer.rejected", "count"),
              ("chains.maximal_chain_s", "s"),
              ("realize.linisom_image_cyclic_s", "s"), ("realize.steiner_image_s", "s"),
              ("serialize.cover_relations_s", "s"), ("serialize.cover_edges", "count"),
              ("serialize.dot_poset_self_s", "s"), ("serialize.system_to_json_s", "s"),
              ("serialize.validations", "count"),
              ("cli.import_s", "s"), ("cli.import_jsonschema_s", "s")]
    names += [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    names += [(f"acceptance.criterion_{i:02d}_s", "s") for i in range(1, 12)]
    names += [("trace.overhead_ratio", "ratio"), ("trace.kernel_ms", "ms")]
    names += [(f"self_share.{layer}", "ratio") for layer in LAYERS + ("other",)]
    return names


PER_LAYER = _per_layer_names()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter_ns(), 0,
                    self.request, 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import trlat.cli  # noqa: F401  (imports every layer module)
        from trlat.groups import FiniteGroup
        from trlat.lattice import SubgroupLattice

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"trlat.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_")
                        and (isinstance(value, types.FunctionType) or hasattr(value, "cache_info"))
                        and getattr(value, "__module__", None) == module.__name__):
                    wrappers[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name == "trlat" or name.startswith("trlat."):
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(module, attr, hit[1])
        for cls, name in ((FiniteGroup, "groups.FiniteGroup"),
                          (SubgroupLattice, "lattice.SubgroupLattice")):
            self._patch(cls, "__init__", self.wrap(name, cls.__init__))
        # verify-paper runs the criteria from this registry, not by name
        acceptance = sys.modules["trlat.acceptance"]
        criteria = list(acceptance.CRITERIA)
        self._patched.append((acceptance, "CRITERIA", criteria))
        acceptance.CRITERIA = [(num, name, self.wrap(f"acceptance.criterion_{int(num):02d}", fn))
                               for num, name, fn in criteria]

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def extend(self, spans: list[list], request: str) -> None:
        """Append spans recorded in another process, tagged with a request id."""
        base = len(self.spans)
        for s in spans:
            self.spans.append([s[0], s[1] + base if s[1] >= 0 else -1, s[2], s[3],
                               request, s[5], s[6]])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns", "request",
                                  "count", "raised"], "spans": self.spans}, fh)


def per_layer(spans: list[list], passes: int, traced_wall_s: float, time_scale: float,
              extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric.  Times are wall seconds x time_scale; times and
    counts are per pass, except that spans of the request "setup" count once;
    shares are of the traced wall time.  `extra` supplies the values measured
    outside the spans."""
    covered = [0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            covered[s[1]] += s[3] - s[2]
    # sums of ns and counts, kept apart for set-up spans and pass spans
    sums = {True: Counter(), False: Counter()}
    layer_self = Counter()
    for i, s in enumerate(spans):
        name, request, duration = s[0], s[4], s[3] - s[2]
        acc = sums[request == "setup"]
        parent = s[1]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        # keyed by name, and by name plus the last part of the request id
        # (the ladder group in `enumerate`, the command in `cli`)
        for key in (name, (name, request.rsplit("/", 1)[-1])):
            if parent < 0:  # count nested calls of one function once
                acc["time", key] += duration
            acc["calls", key] += 1
            acc["count", key] += s[5]
            acc["raised", key] += s[6]
        acc["self", name] += duration - covered[i]
        layer_self[name.split(".", 1)[0]] += duration - covered[i]

    def per(stat):
        scale = 1e-9 * time_scale if stat in ("time", "self") else 1
        return lambda key: (sums[True][stat, key] + sums[False][stat, key] / passes) * scale

    time_s, self_s, calls, counts, raised = map(per, ("time", "self", "calls", "count", "raised"))

    m = {
        "groups.table_check_s": time_s("groups.FiniteGroup"),
        "groups.tables": calls("groups.FiniteGroup"),
        "lattice.subgroup_lattice_s": time_s("lattice.subgroup_lattice"),
        "lattice.subgroups": counts("lattice.SubgroupLattice"),
        "lattice.automorphisms_s": time_s("lattice.automorphisms"),
        "lattice.automorphisms": counts("lattice.automorphisms"),
        "transfer.enumerate_all_s": time_s("transfer.enumerate_all"),
        "transfer.generate_s": time_s("transfer.generate"),
        "transfer.generate_calls": calls("transfer.generate"),
        "transfer.validate_s": time_s("transfer.validate"),
        "transfer.validate_calls": calls("transfer.validate"),
        "transfer.join_s": time_s("transfer.join"),
        "transfer.meet_s": time_s("transfer.meet"),
        "transfer.rejected": raised("transfer.generate"),
        "chains.maximal_chain_s": time_s("chains.maximal_chain"),
        "realize.linisom_image_cyclic_s": time_s("realize.linisom_image_cyclic"),
        "realize.steiner_image_s": time_s("realize.steiner_image"),
        "serialize.cover_relations_s": time_s("serialize.cover_relations"),
        "serialize.cover_edges": counts("serialize.cover_relations"),
        "serialize.dot_poset_self_s": self_s("serialize.dot_poset"),
        "serialize.system_to_json_s": time_s("serialize.system_to_json"),
        "serialize.validations": calls("serialize.validate_document"),
        "cli.import_s": 0.0,
        "cli.import_jsonschema_s": 0.0,
    }
    for g in LADDER:
        m[f"transfer.enumerate_all_s.{g}"] = time_s(("transfer.enumerate_all", g))
        m[f"transfer.systems.{g}"] = counts(("transfer.enumerate_all", g))
        m[f"transfer.aut_orbits_s.{g}"] = time_s(("transfer.aut_orbits", g))
    for c in CLI_COMMANDS:
        m[f"cli.{c}_s"] = time_s(("cli.run", c))
    for i in range(1, 12):
        m[f"acceptance.criterion_{i:02d}_s"] = time_s(f"acceptance.criterion_{i:02d}")
    wall_ns = traced_wall_s * 1e9
    for layer in LAYERS:
        m[f"self_share.{layer}"] = layer_self[layer] / wall_ns
    m["self_share.other"] = 1.0 - sum(layer_self[layer] for layer in LAYERS) / wall_ns
    m.update(extra)
    return {name: m[name] for name, _ in PER_LAYER}
