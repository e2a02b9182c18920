"""Spans around calls into the ekcodes modules, and the per-layer metrics derived from them.

`Tracer.install()` replaces each traced public function with a wrapper in
every ekcodes module namespace that holds it, so calls the benchmark makes
and calls one module makes into another are both recorded; nothing under
src/ changes.  A span is (name, start, end, parent, work); spans live in
flat arrays until `save` writes them out.  A layer's self time is its
spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

from oracle import universe_size

LAYERS = ("core", "metric", "bounds", "cyclic", "designs", "search", "_greedy_fast", "cli")


# (layer, function) -> work units of one call, from its arguments and result;
# a function not listed here counts one unit per call.
WORK = {
    ("cyclic", "search_antagonistic"): lambda a, kw, r: r.nodes,
    ("designs", "compose_code"): lambda a, kw, r: len(r),
    ("search", "verify_code"): lambda a, kw, r: math.comb(len(a[0].words), 2),
    ("search", "greedy_code"): lambda a, kw, r: universe_size(a[0], a[1], kw.get("s") or 2, kw.get("q", 0)),
    ("search", "exact_max_code"): lambda a, kw, r: r.nodes_explored,
    ("_greedy_fast", "greedy_pairs"): lambda a, kw, r: math.comb(a[0], a[1]) * math.comb(a[0] - a[1], a[1]),
}

TRACED = {
    "core": ("canonicalize", "enumerate_words"),
    "metric": ("pair_distance", "tuple_distance", "qary_distance", "qary_pair_distance", "witness_set", "words_conflict"),
    "bounds": ("upper_bound", "known_value", "asymptotic_constant"),
    "cyclic": ("search_antagonistic", "is_antagonistic", "orbit_code", "multi_orbit_code"),
    "designs": ("affine_plane", "zero_sum_quadruples", "planar_difference_set", "develop_difference_set", "compose_code"),
    "search": ("verify_code", "greedy_code", "exact_max_code"),
    "_greedy_fast": ("greedy_pairs",),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.work: array = array("d")
        self.current = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self.current)
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(1.0)
        self.current = idx
        return idx

    def _wrap(self, name_id: int, fn, work):
        tracer = self

        def call(*args, **kwargs):
            parent = tracer.current
            idx = tracer._open(name_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.start[idx] = start
                tracer.current = parent
            if work is not None:
                tracer.work[idx] = work(args, kwargs, result)
            return result

        def generate(*args, **kwargs):
            # a span from the first resume to exhaustion; work counts the items
            parent = tracer.current
            inner = fn(*args, **kwargs)
            idx = -1
            items = 0
            try:
                while True:
                    if idx < 0:
                        tracer.current = parent
                        idx = tracer._open(name_id)
                        tracer.start[idx] = perf_counter()
                    else:
                        tracer.current = idx
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.current = parent
                    items += 1
                    yield item
            finally:
                if idx >= 0:
                    tracer.end[idx] = perf_counter()
                    tracer.work[idx] = items

        return generate if inspect.isgeneratorfunction(fn) else call

    def install(self) -> None:
        """Wrap every traced function wherever an ekcodes module refers to it."""
        modules = [m for name, m in sys.modules.items() if name == "ekcodes" or name.startswith("ekcodes.")]
        for layer, functions in TRACED.items():
            module = sys.modules[f"ekcodes.{layer}"]
            for fname in functions:
                original = getattr(module, fname)
                self.names.append(f"{layer}.{fname}")
                wrapper = self._wrap(len(self.names) - 1, original, WORK.get((layer, fname)))
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.float64),
        )

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, summed duration, summed self time, summed work."""
        count = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(count):
            agg = out.setdefault(self.names[self.name_of[i]], {"calls": 0, "time": 0.0, "self": 0.0, "work": 0.0})
            agg["calls"] += 1
            agg["time"] += dur[i]
            agg["self"] += dur[i] - child[i]
            agg["work"] += self.work[i]
        return out


def layer_metrics(totals: dict) -> dict[str, float]:
    """The per-layer metrics; 0 where these spans hold no call to that layer."""

    def get(name, field):
        return totals.get(name, {}).get(field, 0.0)

    def rate(names, field="work"):
        time = sum(get(n, "time") for n in names)
        return sum(get(n, field) for n in names) / time if time > 0 else 0.0

    bound_calls = [f"bounds.{f}" for f in TRACED["bounds"]]
    stream_work = get("_greedy_fast.greedy_pairs", "work")
    out = {
        "core.canonicalize_per_s": rate(["core.canonicalize"]),
        "core.enumerate_words_per_s": rate(["core.enumerate_words"]),
        "metric.pair_distance_per_s": rate(["metric.pair_distance"]),
        "metric.tuple_distance_per_s": rate(["metric.tuple_distance"]),
        "metric.qary_distance_per_s": rate(["metric.qary_distance"]),
        "metric.witness_set_per_s": rate(["metric.witness_set"]),
        "bounds.calls_per_s": rate(bound_calls, "calls"),
        "cyclic.search_nodes_per_s": rate(["cyclic.search_antagonistic"]),
        "cyclic.search_nodes": get("cyclic.search_antagonistic", "work"),
        "designs.compose_words_per_s": rate(["designs.compose_code"]),
        "designs.planar_difference_set_s": get("designs.planar_difference_set", "time"),
        "search.verify_pairs_per_s": rate(["search.verify_code"]),
        "search.greedy_words_per_s": rate(["search.greedy_code"]),
        "search.exact_nodes_per_s": rate(["search.exact_max_code"]),
        "search.exact_nodes": get("search.exact_max_code", "work"),
        "greedy_fast.ns_per_stream_index": (
            get("_greedy_fast.greedy_pairs", "time") / stream_work * 1e9 if stream_work else 0.0
        ),
        "cli.main_calls_per_s": rate(["cli.main"], "calls"),
    }
    for layer in LAYERS:
        spent = [agg["self"] for name, agg in totals.items() if name.startswith(layer + ".")]
        # metric names must start with a letter, so _greedy_fast reports as greedy_fast
        out[f"{layer.lstrip('_')}.self_s"] = sum(spent)
    return out
