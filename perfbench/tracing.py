"""Spans around the public functions each estimator calls, installed from outside.

The wrappers sit at the names the callers look up at call time:
`string_sausage.rng.substream` (every caller goes through the module),
`evolve` and `Trace.cloud` in the simulate module, and the names `survival`
and `cli` bind with `from ... import`.  The package `__init__` shadows the
simulate module with the function of the same name, so modules are taken
from `sys.modules`.  A name that a later refactor removes is listed in
`absent` and its metrics are left out; nothing else fails.

A span is a row of flat integer arrays: layer, start and end (ns), parent
row (-1 at the top) and replica (-1 outside one).  Integer arrays hold no
objects the garbage collector must walk, so a long trace does not slow
the program it traces.  A replica starts at its `simulate` call; every
span until the next one carries its id.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

# span name -> metric prefix of its self time
LAYERS = {
    "cli.main": "cli.self",
    "survival.estimator": "survival.self",
    "simulate.simulate": "simulate.simulate",
    "rng.substream": "rng.substream",
    "spectral.evolve": "spectral.evolve",
    "simulate.cloud": "simulate.cloud",
    "geometry.hit_or_miss": "geometry.hit_or_miss",
    "survival.environment_for_cloud": "survival.environment_for_cloud",
    "traps.sample_environment": "traps.sample_environment",
    "traps.any_contact": "traps.any_contact",
    "traps.path_functional": "traps.path_functional",
    "asymptotics.exponent_fit": "asymptotics.exponent_fit",
}
NAMES = list(LAYERS)


class Tracer:
    def __init__(self):
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rep = array("q")
        self.stack: list = []
        self.replica = -1
        self.counts: dict = defaultdict(int)
        self.calls: list = []  # one dict per estimator call: T, nu, weights
        self.absent: list = []
        self.installed: set = {"cli.main"}
        self._undo: list = []

    def wrap(self, name, fn, before=None, after=None):
        layer_id = NAMES.index(name)
        layer, start, end, parent, rep, stack = (
            self.layer, self.start, self.end, self.parent, self.rep, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            rep.append(self.replica)
            end.append(0)
            stack.append(idx)
            start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, original, before, after))
        self._undo.append((owner, attr, original))
        self.installed.add(name)

    def install(self, package) -> None:
        """Wrap the layers of an imported `string_sausage` package."""
        mods = sys.modules
        rng = mods[f"{package}.rng"]
        sim = mods[f"{package}.simulate"]
        surv = mods[f"{package}.survival"]
        cli = mods[f"{package}.cli"]
        geometry = mods[f"{package}.geometry"]
        count = self.counts

        def start_replica(args, kwargs):
            self.replica = kwargs.get("replica", args[2] if len(args) > 2 else 0)
            count["replicas"] += 1

        def start_estimator(args, kwargs):
            self.calls.append({"T": args[0].T, "nu": args[0].nu, "weights": []})

        def weights():
            return self.calls[-1]["weights"]

        def hit_or_miss_done(args, kwargs, est):
            box = geometry.bounding_box(args[0], args[1])
            count["hit_or_miss.hits"] += round(est.volume / box.volume * est.n_samples)
            count["hit_or_miss.samples"] += est.n_samples
            weights().append(math.exp(-self.calls[-1]["nu"] * est.volume))

        def path_functional_done(args, kwargs, functional):
            trajectory, env = args[0], args[1]
            count["path_functional.pairs"] += len(trajectory) * len(trajectory[0].values) * env.n_points
            count["traps"] += env.n_points
            weights().append(math.exp(-functional))

        def any_contact_done(args, kwargs, hit):
            count["traps"] += args[1].n_points
            weights().append(0.0 if hit else 1.0)

        self.patch(rng, "substream", "rng.substream")
        self.patch(sim, "evolve", "spectral.evolve")
        self.patch(getattr(sim, "Trace", None), "cloud", "simulate.cloud",
                   after=lambda a, k, cloud: count.__setitem__(
                       "cloud.points", count["cloud.points"] + len(cloud.points)))
        self.patch(surv, "simulate", "simulate.simulate", before=start_replica)
        self.patch(surv, "sausage_volume_hit_or_miss", "geometry.hit_or_miss",
                   after=hit_or_miss_done)
        self.patch(surv, "environment_for_cloud", "survival.environment_for_cloud")
        self.patch(surv, "sample_environment", "traps.sample_environment")
        self.patch(surv, "any_contact", "traps.any_contact", after=any_contact_done)
        self.patch(surv, "path_functional", "traps.path_functional", after=path_functional_done)
        for estimator in ("annealed_hard", "quenched"):
            self.patch(cli, estimator, "survival.estimator", before=start_estimator)
        self.patch(cli, "exponent_fit", "asymptotics.exponent_fit")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # reduction

    def self_times_ns(self) -> dict:
        own = [e - b for b, e in zip(self.start, self.end)]
        for idx, up in enumerate(self.parent):
            if up >= 0:
                own[up] -= self.end[idx] - self.start[idx]
        totals: dict = defaultdict(int)
        for layer, t in zip(self.layer, own):
            totals[NAMES[layer]] += t
        return totals

    def wall_ns(self, name: str = "cli.main") -> int:
        layer_id = NAMES.index(name)
        return sum(e - b for k, b, e in zip(self.layer, self.start, self.end) if k == layer_id)

    def replica_ms(self) -> list:
        """Wall time per replica: from its simulate call to the next one,
        the last ending with its estimator call."""
        estimator, sim = NAMES.index("survival.estimator"), NAMES.index("simulate.simulate")
        starts: dict = defaultdict(list)
        for k, up, b in zip(self.layer, self.parent, self.start):
            if k == sim:
                starts[up].append(b)
        out = []
        for idx, k in enumerate(self.layer):
            if k == estimator:
                begin = starts[idx]
                out.extend((e - b) / 1e6 for b, e in zip(begin, begin[1:] + [self.end[idx]]))
        return out

    def dump(self) -> dict:
        return {"layers": NAMES, "layer": self.layer.tolist(), "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(), "parent": self.parent.tolist(),
                "replica": self.rep.tolist()}

    def estimator_quality(self) -> list:
        """ESS/n, largest-weight share and nonzero weights per estimator call."""
        out = []
        for call in self.calls:
            w = call["weights"]
            total, square = sum(w), sum(x * x for x in w)
            out.append({
                "T": call["T"],
                "n": len(w),
                "ess_frac": total * total / square / len(w) if square > 0 else 0.0,
                "max_weight_share": max(w) / total if total > 0 else 0.0,
                "survivors": sum(1 for x in w if x > 0),
            })
        return out

    def layer_metrics(self, wall_ns: int) -> dict:
        """Per-layer metrics: shares of the traced wall and counts per replica.

        A layer whose wrapped name is absent gets no metrics.
        """
        own = self.self_times_ns()
        n = max(self.counts["replicas"], 1)
        calls: dict = defaultdict(int)
        for k in self.layer:
            calls[NAMES[k]] += 1
        m = {f"{LAYERS[name]}.share": (own.get(name, 0) / wall_ns, "frac")
             for name in LAYERS if name in self.installed}
        per_replica_counts = {
            "rng.substream": ("rng.substream.calls", calls["rng.substream"]),
            "spectral.evolve": ("spectral.evolve.calls", calls["spectral.evolve"]),
            "simulate.cloud": ("simulate.cloud.points", self.counts["cloud.points"]),
            "traps.any_contact": ("traps.traps", self.counts["traps"]),
            "traps.path_functional": ("traps.path_functional.pairs",
                                      self.counts["path_functional.pairs"]),
        }
        for layer, (metric, total) in per_replica_counts.items():
            if layer in self.installed:
                m[metric] = (total / n, "count")
        if "geometry.hit_or_miss" in self.installed:
            samples = self.counts["hit_or_miss.samples"]
            m["geometry.hit_or_miss.hit_frac"] = (
                self.counts["hit_or_miss.hits"] / samples if samples else 0.0, "frac")
        quality = self.estimator_quality()
        if quality:
            m["survival.ess_frac"] = (min(q["ess_frac"] for q in quality), "frac")
            m["survival.max_weight_share"] = (max(q["max_weight_share"] for q in quality), "frac")
            m["survival.survivors"] = (min(q["survivors"] for q in quality), "count")
        per_replica = self.replica_ms()
        if per_replica:
            m["replica.ms_p50"] = (statistics.median(per_replica), "ms")
            m["replica.ms_top"] = (top_percentile(per_replica), "ms")
        m["trace.ms_per_replica"] = (wall_ns / 1e6 / n, "ms")
        return m


def top_percentile(values) -> float:
    """The highest whole percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        if n - math.ceil(pct / 100 * n) >= 10:
            return ordered[math.ceil(pct / 100 * n) - 1]
    return ordered[-1]
