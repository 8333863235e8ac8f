"""Spans around the program's layer boundaries, recorded from outside.

`Tracer.install` replaces each public function named in `PATCHES` by a
wrapper in the module where its caller looks the name up (`protocol`
imports `estimate_point` by name, so the wrapper goes into `protocol`,
not only into `estimation`). A name the program no longer has is skipped:
its layer then reads 0 calls. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# (module, attribute, layer name); the layer name is the module that
# defines the function, whichever module the wrapper sits in
PATCHES = (
    ("cli", "run_p_los", "experiments.campaign"),
    ("cli", "run_reduction_vs_power", "experiments.campaign"),
    ("cli", "run_reduction_vs_pmiss", "experiments.campaign"),
    ("cli", "run_time_vs_cluster", "experiments.campaign"),
    ("experiments", "build_cluster", "geometry.build_cluster"),
    ("experiments", "place_ue", "geometry.place_ue"),
    ("experiments", "sample_blocking", "channel.sample_blocking"),
    ("experiments", "link_bearings", "channel.link_bearings"),
    ("experiments", "best_beam_index", "antenna.best_beam_index"),
    ("experiments", "pdp_matrix", "preamble.pdp_matrix"),
    ("experiments", "select_top3", "estimation.select_top3"),
    ("experiments", "run_exhaustive", "protocol.run_exhaustive"),
    ("experiments", "run_coordinated", "protocol.run_coordinated"),
    ("preamble", "miss_threshold", "preamble.miss_threshold"),
    ("preamble", "pdp_matrix", "preamble.pdp_matrix"),
    ("protocol", "link_bearings", "channel.link_bearings"),
    ("protocol", "pdp_matrix", "preamble.pdp_matrix"),
    ("protocol", "estimate_point", "estimation.estimate_point"),
    ("protocol", "refine_location", "estimation.refine_location"),
    ("estimation", "estimate_point", "estimation.estimate_point"),
    ("estimation", "select_top3", "estimation.select_top3"),
    ("estimation", "solve_distances", "estimation.solve_distances"),
    ("estimation", "locate_ue", "estimation.locate_ue"),
)
# SimConfig.threshold is a method: the wrapper goes onto the class
METHOD_PATCHES = (("config", "SimConfig", "threshold", "config.threshold"),)

PROTOCOL_RUNS = ("protocol.run_exhaustive", "protocol.run_coordinated")
ESTIMATORS = ("estimation.estimate_point", "estimation.refine_location")

# span fields
NAME, PARENT, START, END, RAISED = range(5)


class Tracer:
    """Spans and work counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        """Work counted at the boundary, from the arguments or the result."""
        counts = self.counts
        if name == "preamble.pdp_matrix":
            def on_result(args, kwargs, out):
                counts["preamble.pdp_matrix.rows"] += out.size // out.shape[-1]
            return on_result
        if name == "preamble.miss_threshold":
            sig = inspect.signature(fn)

            def on_result(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["preamble.miss_threshold.draws"] += bound.arguments["trials"]
            return on_result
        if name in PROTOCOL_RUNS:
            def on_result(args, kwargs, out):
                counts["protocol.attempts"] += 1
                counts["protocol.successes"] += bool(out.success)
                counts["protocol.slots"] += out.slots_used
                counts["protocol.rounds"] += out.rounds
            return on_result
        return None

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in PATCHES:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            setattr(mod, attr, self.wrap(name, fn, self._counter(name, fn)))
        for mod_name, cls_name, attr, name in METHOD_PATCHES:
            cls = getattr(modules[mod_name], cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                continue
            setattr(cls, attr, self.wrap(name, fn))

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls, busy time and self time per layer name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, s in enumerate(self.spans):
            busy = s[END] - s[START]
            agg = out[s[NAME]]
            agg["calls"] += 1
            agg["busy_s"] += busy
            agg["self_s"] += busy - child_time[i]
        return dict(out)

    def estimation_outcomes(self) -> tuple[int, int]:
        """(attempts, failures) of the estimates the protocol asked for."""
        attempts = failures = 0
        for s in self.spans:
            if (s[NAME] in ESTIMATORS and s[PARENT] >= 0
                    and self.spans[s[PARENT]][NAME] in PROTOCOL_RUNS):
                attempts += 1
                failures += s[RAISED]
        return attempts, failures

    def dump(self, path) -> None:
        """Write every span as [name, parent index, start, end, raised]."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics the benchmark reports, from one traced child."""
    layers = tracer.layers()
    c = tracer.counts

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    m = {"experiments.self_s": get("experiments.campaign", "self_s"),
         "protocol.self_s": sum(get(n, "self_s") for n in PROTOCOL_RUNS)}
    for name in ("config.threshold", "preamble.miss_threshold",
                 "preamble.pdp_matrix", "protocol.run_exhaustive",
                 "protocol.run_coordinated", "estimation.estimate_point",
                 "estimation.refine_location", "estimation.solve_distances",
                 "estimation.locate_ue", "channel.link_bearings",
                 "antenna.best_beam_index", "estimation.select_top3"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.busy_s"] = get(name, "busy_s")
    for name in ("geometry.build_cluster", "geometry.place_ue",
                 "channel.sample_blocking"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
    m["preamble.miss_threshold.draws"] = c["preamble.miss_threshold.draws"]
    m["preamble.pdp_matrix.rows"] = c["preamble.pdp_matrix.rows"]
    attempts = c["protocol.attempts"]
    m["protocol.slots"] = c["protocol.slots"]
    m["protocol.rounds"] = c["protocol.rounds"]
    m["protocol.censored"] = attempts - c["protocol.successes"]
    m["protocol.success_ratio"] = c["protocol.successes"] / attempts if attempts else 0.0
    est_attempts, est_failures = tracer.estimation_outcomes()
    m["estimation.failures"] = est_failures
    m["estimation.yield"] = ((est_attempts - est_failures) / est_attempts
                             if est_attempts else 0.0)
    return m
