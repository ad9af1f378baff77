"""The three benchmark workloads: seeded inputs, CLI-equivalent jobs and output checks.

Every job is one unit of work a user runs through the ``kmobile``
command line, driven in-process through ``kmobile.cli.main``.  Inputs
are made here from the benchmark's own seed; kmobile only receives the
finished trace and spec files.  See README.md for why each workload
exists and which layers it stresses.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Job sizes are chosen so that a 35-second run holds about 100 jobs of
# the slowest kind: job_tail_ms, the 11th-slowest job, then sits near
# their 90th percentile, and each job repeats often enough for its 75th
# percentile.  More, shorter jobs push the tail toward the 95th
# percentile, which jumps whenever a run meets a slow stretch of a
# shared host.

# walk-record: 1-D fast-mode walks (mc < (1+delta)*ms), k=2.  The wms
# job's weight D is drawn from WMS_WEIGHTS with the seed.
WALK_STEPS = 1600
WMS_WEIGHTS = (2.0, 3.0, 4.0, 2.5)

# thm3-sweep: one sweep per job; k covers the three matching regimes
# (k<=2 enumeration, 3<=k<=6 LSAP plus enumeration, k>6 LSAP re-solves).
SWEEP_KS = (2, 4, 8)
SWEEP_X = 32
SWEEP_SEEDS_PER_JOB = 2

# oracles: a WFA-guided planar walk, the line DP on its largest grid, and
# the offline-helper checks on a slow-mode thm3 run.  Every DP step
# fills the same table; DP_STEPS sets the solve about as long as the WFA
# job, so the tail is taken over both kinds of oracle job.
WFA_STEPS = 56
DP_STEPS = 10
DP_POINTS = 41         # DP_MAX_POINTS
HELPER_X = 128
HELPER_SIGMA = "1e-3"


@dataclass
class Job:
    """One CLI-equivalent unit of work and how to judge its outputs."""

    name: str
    commands: list[list[str]]          # argv lists for kmobile.cli.main
    outputs: list[str]                 # files the commands write, hashed in order
    requests: int                      # requests read, counted once per job
    check: Callable[[list[tuple[int, str]]], list[str]]


@dataclass
class Workload:
    jobs: list[Job]        # one round; the benchmark repeats rounds
    warmups: list[Job]     # small jobs run once during set-up


def input_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"kmobile-bench/{workload}/{seed}")


def walk(rng: random.Random, n: int, dim: int, mc: float) -> list[tuple[float, ...]]:
    """Local random walk from the origin with every step at most mc long."""
    cur = [0.0] * dim
    out = [tuple(cur)]
    for _ in range(n - 1):
        if dim == 1:
            delta = [rng.uniform(-mc, mc)]
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            length = rng.uniform(0.0, mc)
            delta = [length * math.cos(angle), length * math.sin(angle)]
        cur = [c + d for c, d in zip(cur, delta)]
        out.append(tuple(cur))
    return out


def _exit_problems(results: list[tuple[int, str]]) -> list[str]:
    return [f"command {i} exited {rc}" for i, (rc, _) in enumerate(results) if rc != 0]


def _write_walk_trace(km, path: str, requests, params) -> None:
    start = tuple(requests[0] for _ in range(params.k))
    km.core.write_trace(path, km.core.Trace(requests=requests, start_config=start), params)


# ---------------------------------------------------------------------------
# walk-record
# ---------------------------------------------------------------------------

def _walk_job(km, workdir: str, name: str, requests, algo: str, sim: str, D: float) -> Job:
    params = km.core.ProblemParams(k=2, ms=1.0, mc=1.2, delta=0.5, D=D, dim=1)
    trace = os.path.join(workdir, f"{name}.jsonl")
    record = os.path.join(workdir, f"{name}.run.json")
    csv = os.path.join(workdir, f"{name}.steps.csv")
    _write_walk_trace(km, trace, requests, params)

    def check(results):
        problems = _exit_problems(results)
        if problems:
            return problems
        if not json.loads(results[0][1])["speed_ok"]:
            problems.append("speed audit failed")
        if json.loads(results[1][1])["violations"]:
            problems.append("fast-mode potential violated")
        return problems

    return Job(
        name=name,
        commands=[["simulate", "--algo", algo, "--sim", sim, "--trace", trace,
                   "--out", record, "--csv", csv],
                  ["verify", "--property", "fast-potential", "--run", record]],
        outputs=[record, csv],
        requests=len(requests),
        check=check)


def build_walk_record(km, rng: random.Random, workdir: str) -> Workload:
    jobs = [_walk_job(km, workdir, "ums", walk(rng, WALK_STEPS, 1, 1.2), "ums", "dc-line", 1.0),
            _walk_job(km, workdir, "wms", walk(rng, WALK_STEPS, 1, 1.2), "wms", "pm-counter",
                      rng.choice(WMS_WEIGHTS))]
    warmups = [_walk_job(km, workdir, "warm-ums", walk(rng, 50, 1, 1.2), "ums", "dc-line", 1.0),
               _walk_job(km, workdir, "warm-wms", walk(rng, 50, 1, 1.2), "wms", "pm-counter", 2.0)]
    return Workload(jobs, warmups)


# ---------------------------------------------------------------------------
# thm3-sweep
# ---------------------------------------------------------------------------

def _sweep_requests(km, x: int, seeds: list[int]) -> int:
    """Requests the sweep reads: k=2 points enumerate all four targets."""
    total = 0
    for k in SWEEP_KS:
        for seed in seeds:
            choices = range(km.adversary.TWO_SERVER_CHOICES) if k == 2 else [None]
            for zc in choices:
                total += len(km.adversary.gen_thm3(k, x, seed=seed, z_choice=zc).trace)
    return total


def _sweep_job(km, workdir: str, name: str, x: int, seeds: list[int]) -> Job:
    spec = os.path.join(workdir, f"{name}.spec")
    out = os.path.join(workdir, f"{name}.aggregate.json")
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write("construction=thm3\nalgo=ums\nsim=dc-line\nproject=auto\n"
                 f"x={x}\nms=1.0\ndelta=0.5\n"
                 f"seeds={','.join(str(s) for s in seeds)}\n"
                 f"sweep.k={','.join(str(k) for k in SWEEP_KS)}\n")
    runs = len(SWEEP_KS) * len(seeds)

    def check(results):
        problems = _exit_problems(results)
        if problems:
            return problems
        with open(out, "r", encoding="utf-8") as fh:
            aggregate = json.load(fh)
        if not (json.loads(results[0][1])["all_ok"] and aggregate["all_ok"]):
            problems.append("sweep reported a failed check")
        if len(aggregate["records"]) != runs:
            problems.append(f"sweep has {len(aggregate['records'])} records, expected {runs}")
        return problems

    return Job(name=name, commands=[["sweep", "--spec", spec, "--out", out]],
               outputs=[out], requests=_sweep_requests(km, x, seeds), check=check)


def build_thm3_sweep(km, rng: random.Random, workdir: str) -> Workload:
    jobs = [_sweep_job(km, workdir, "sweep", SWEEP_X,
                       [rng.randrange(1, 10**6) for _ in range(SWEEP_SEEDS_PER_JOB)])]
    # x=8 still reaches k=4 and k=8, so the warm-up pays the lazy scipy import.
    warmups = [_sweep_job(km, workdir, "warm-sweep", 8, [rng.randrange(1, 10**6)])]
    return Workload(jobs, warmups)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _wfa_job(km, workdir: str, name: str, requests) -> Job:
    params = km.core.ProblemParams(k=2, ms=1.0, mc=1.2, delta=0.5, D=1.0, dim=2)
    trace = os.path.join(workdir, f"{name}.jsonl")
    _write_walk_trace(km, trace, requests, params)

    def check(results):
        problems = _exit_problems(results)
        if not problems and not json.loads(results[0][1])["speed_ok"]:
            problems.append("speed audit failed")
        return problems

    # No --out: the job's byte-stable output is the summary, i.e. the ledger.
    return Job(name=name,
               commands=[["simulate", "--algo", "ums", "--sim", "wfa", "--trace", trace]],
               outputs=[], requests=len(requests), check=check)


def _dp_job(km, workdir: str, name: str, requests, points: int) -> Job:
    params = km.core.ProblemParams(k=2, ms=1.0, mc=1.0, delta=0.5, D=1.0, dim=1)
    trace = os.path.join(workdir, f"{name}.jsonl")
    out = os.path.join(workdir, f"{name}.optimum.json")
    _write_walk_trace(km, trace, requests, params)
    xs = [r[0] for r in requests]
    # A spacing a hair above span/(points-1) gives exactly `points` grid points.
    h = (max(xs) - min(xs)) / (points - 1) * (1.0 + 1e-9)
    start = tuple(requests[0] for _ in range(params.k))

    def check(results):
        problems = _exit_problems(results)
        if problems:
            return problems
        with open(out, "r", encoding="utf-8") as fh:
            opt = json.load(fh)
        if opt["grid"]["points"] != points:
            problems.append(f"grid has {opt['grid']['points']} points, expected {points}")
        certificate = [tuple(tuple(p) for p in conf) for conf in opt["trajectory"]]
        replay = km.core.Trace(requests=requests, start_config=start, certificate=certificate)
        violation = km.core.validate_trace(replay, params)
        if violation is not None:
            problems.append(f"optimal trajectory is infeasible: {violation}")
        else:
            cost = km.core.certificate_cost(replay, params)
            if abs(cost - opt["cost"]) > 1e-9 * max(1.0, cost):
                problems.append(f"trajectory costs {cost}, reported optimum {opt['cost']}")
        return problems

    return Job(name=name,
               commands=[["optimum", "--trace", trace, "--grid", repr(h),
                          "--with-trajectory", "--out", out]],
               outputs=[out], requests=len(requests), check=check)


def _helper_job(km, workdir: str, name: str, x: int, seed: int, z_choice: int) -> Job:
    inst = km.adversary.gen_thm3(2, x, seed=seed, z_choice=z_choice)
    trace = os.path.join(workdir, f"{name}.jsonl")
    record = os.path.join(workdir, f"{name}.run.json")
    km.core.write_trace(trace, inst.trace, inst.params)

    def check(results):
        problems = _exit_problems(results)
        if not problems and json.loads(results[0][1])["mode"] != "slow":
            problems.append("thm3 run is not in slow mode")
        return problems

    def verify(prop: str) -> list[str]:
        return ["verify", "--property", prop, "--run", record, "--trace", trace,
                "--sigma", HELPER_SIGMA]

    return Job(name=name,
               commands=[["simulate", "--trace", trace, "--out", record],
                         verify("helper-invariants"), verify("slow-potential")],
               outputs=[record], requests=len(inst.trace), check=check)


def build_oracles(km, rng: random.Random, workdir: str) -> Workload:
    jobs = [_wfa_job(km, workdir, "wfa", walk(rng, WFA_STEPS, 2, 1.2)),
            _dp_job(km, workdir, "dp", walk(rng, DP_STEPS, 1, 1.0), DP_POINTS),
            _helper_job(km, workdir, "helper", HELPER_X, rng.randrange(1, 10**6),
                        rng.randrange(km.adversary.TWO_SERVER_CHOICES))]
    warmups = [_wfa_job(km, workdir, "warm-wfa", walk(rng, 10, 2, 1.2)),
               _dp_job(km, workdir, "warm-dp", walk(rng, 5, 1, 1.0), 5),
               _helper_job(km, workdir, "warm-helper", 16, rng.randrange(1, 10**6), 0)]
    return Workload(jobs, warmups)


BUILDERS = {
    "walk-record": build_walk_record,
    "thm3-sweep": build_thm3_sweep,
    "oracles": build_oracles,
}
WORKLOADS = tuple(BUILDERS)


def build(km, workload: str, seed: int, workdir: str) -> Workload:
    """Write the workload's inputs under workdir and return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[workload](km, input_rng(workload, seed), workdir)
