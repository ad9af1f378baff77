"""Traced runs from outside the package.

Timing wrappers are swapped in for the names each kmobile module
imports (``kmobile.mobile.min_weight_matching``, ``kmobile.cli.read_trace``
and so on), only while a traced job runs, and swapped back after it.
Each wrapper records a span: name, start, end, parent span and job id.
Spans stay in compact in-memory arrays until the run ends.  A layer's
self time is its spans' time minus the time of the spans recorded
inside them.  kmobile runs on one thread, so no layer ever waits on
another and no wait time is reported.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

ROOT_SPAN = "bench.job"

# Per-layer metric -> span whose self time it reports (per round).
SELF_TIME_METRICS = {
    "core.read_trace.s": "core.read_trace",
    "core.validate_trace.s": "core.validate_trace",
    "core.min_weight_matching.s": "core.min_weight_matching",
    "kserver.step.s": "kserver.step",
    "projection.step.s": "projection.step",
    "mobile.run.s": "mobile.run",
    "mobile.to_dict.s": "mobile.to_dict",
    "mobile.from_dict.s": "mobile.from_dict",
    "cli.dump.s": "cli.dump",
    "cli.load.s": "cli.load",
    "cli.steps_csv.s": "cli.steps_csv",
    "checks.audit_speed_caps.s": "checks.audit_speed_caps",
    "checks.check_fast_potential.s": "checks.check_fast_potential",
    "checks.check_projection_bound.s": "checks.check_projection_bound",
    "checks.check_slow_potential.s": "checks.check_slow_potential",
    "adversary.generate.s": "adversary.generate",
    "experiment.run_point.s": "experiment.run_point",
    "experiment.aggregate.s": "experiment.run_experiment",
    "offline.dp_optimum.s": "offline.dp_optimum",
    "offline.compute_helper.s": "offline.compute_helper",
    "offline.audit_helper.s": "offline.audit_helper",
}

# Per-layer metric -> span whose number of calls it reports (per round).
CALL_METRICS = {
    "core.min_weight_matching.calls": "core.min_weight_matching",
    "kserver.step.calls": "kserver.step",
}

BRANCHES = ("matched", "greedy", "tentative", "fallback", "matching-only")

# Counters summed over a round.
COUNT_METRICS = ("projection.phase_ends", "offline.dp.cells", "cli.record_bytes") + tuple(
    f"mobile.branch.{b}" for b in BRANCHES)

# Largest value seen over the traced run.
MAX_METRICS = ("kserver.wfa.configs", "kserver.wfa.budget_share", "projection.headroom")


UNITS = {"trace.overhead_share": "share", "kserver.wfa.budget_share": "share",
         "projection.headroom": "ratio", "kserver.wfa.configs": "count",
         "cli.record_bytes": "B/round"}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s/round" if metric.endswith(".s") else "count/round"


class Tracer:
    """Span recorder plus the deterministic counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.job_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.simulators: list = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def end_job(self) -> None:
        """Fold the work-function table size of the job's simulators into the maxima."""
        for proxy in self.simulators:
            inner = proxy.inner
            if hasattr(inner, "values") and hasattr(inner, "max_configs"):
                configs = len(inner.values)
                self._max("kserver.wfa.configs", configs)
                self._max("kserver.wfa.budget_share", configs / inner.max_configs)
        self.simulators.clear()

    def _max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def count_run(self, args, result) -> None:
        """Branch mix and projection audit of one online run."""
        for rep in result.reports:
            self.counts[f"mobile.branch.{rep.branch}"] += 1
        audit = result.projection_audit
        if audit is not None:
            self.counts["projection.phase_ends"] += audit["phase_ends"]
            self._max("projection.headroom",
                      audit["max_hat_request_distance"] / audit["radius_bound"])

    def count_dp(self, args, result) -> None:
        trace, params, grid = args[:3]
        self.counts["offline.dp.cells"] += (grid.n ** params.k) ** 2 * (len(trace.requests) - 1)

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Self time in ns and call count per span name."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            self_ns[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return self_ns, calls

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,job\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.job[i]}\n")


def timed(tracer: Tracer, name: str, fn, after=None):
    """fn wrapped in a span; ``after(args, result)`` runs once the span is closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def install(km, tracer: Tracer):
    """Swap the timing wrappers in; returns a function that restores the originals."""
    saved = []

    def swap(owner, attr, make):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(name, after=None):
        return lambda fn: timed(tracer, name, fn, after)

    guidance_base = km.kserver.GuidanceSimulator

    class TimedSimulator(guidance_base):
        """Proxy that times each guidance step of the simulator it wraps."""

        def __init__(self, inner):
            self.inner = inner

        @property
        def positions(self):
            return self.inner.positions

        def step(self, r):
            idx = tracer.open("kserver.step")
            try:
                return self.inner.step(r)
            finally:
                tracer.close(idx)

    def timed_make_simulator(make):
        def wrapper(*args, **kwargs):
            proxy = TimedSimulator(make(*args, **kwargs))
            tracer.simulators.append(proxy)
            return proxy
        return wrapper

    def timed_projection(base):
        class TimedProjection(base):
            def step(self, r):
                idx = tracer.open("projection.step")
                try:
                    return base.step(self, r)
                finally:
                    tracer.close(idx)
        return TimedProjection

    mobile, cli, experiment, checks = km.mobile, km.cli, km.experiment, km.checks
    swap(mobile, "min_weight_matching", span("core.min_weight_matching"))
    swap(km.kserver, "min_weight_matching", span("core.min_weight_matching"))
    swap(mobile, "validate_trace", span("core.validate_trace"))
    swap(mobile, "make_simulator", timed_make_simulator)
    swap(mobile, "ProjectionWrapper", timed_projection)
    swap(mobile.RunResult, "to_dict", span("mobile.to_dict"))
    swap(mobile.RunResult, "from_dict",
         lambda cm: classmethod(timed(tracer, "mobile.from_dict", cm.__func__)))
    for owner in (cli, experiment):
        swap(owner, "run_mobile", span("mobile.run", tracer.count_run))
        swap(owner, "dp_optimum", span("offline.dp_optimum", tracer.count_dp))
    swap(experiment, "gen_thm3", span("adversary.generate"))
    swap(experiment, "run_point", span("experiment.run_point"))
    swap(cli, "run_experiment", span("experiment.run_experiment"))
    swap(cli, "read_trace", span("core.read_trace"))
    swap(cli, "_dump_json", span("cli.dump"))
    swap(cli, "_load_run", span("cli.load"))
    swap(cli, "_steps_csv", span("cli.steps_csv"))
    swap(cli, "compute_helper", span("offline.compute_helper"))
    swap(cli, "audit_helper", span("offline.audit_helper"))
    for name in ("audit_speed_caps", "check_fast_potential", "check_projection_bound",
                 "check_slow_potential"):
        swap(checks, name, span(f"checks.{name}"))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, rounds: int, traced_ns: int, untraced_ns: int) -> dict:
    """Per-layer metrics of the traced rounds, each normalised per round.

    ``traced_ns``/``untraced_ns`` are the summed job latencies of the
    traced rounds and of the same rounds run untraced.  The self times
    plus ``bench.unattributed.s`` add up to the traced job time.
    """
    self_ns, calls = tracer.self_times()
    out: dict[str, float] = {}
    attributed = 0
    for metric, span_name in SELF_TIME_METRICS.items():
        ns = self_ns.get(span_name, 0)
        attributed += ns
        out[metric] = ns / 1e9 / rounds
    for metric, span_name in CALL_METRICS.items():
        out[metric] = calls.get(span_name, 0) / rounds
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts.get(metric, 0.0) / rounds
    for metric in MAX_METRICS:
        out[metric] = tracer.maxima.get(metric, 0.0)
    out["bench.unattributed.s"] = (traced_ns - attributed) / 1e9 / rounds
    out["trace.overhead_share"] = traced_ns / untraced_ns - 1.0
    return out
