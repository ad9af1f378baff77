"""kmobile benchmark: one workload per invocation, end-to-end or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload walk-record --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
round twice, untraced and traced, and prints the per-layer split.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the run's
provenance is written under bench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = "bench"
WORK_DIR = os.path.join(BENCH_DIR, "work")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
DIGESTS_FILE = os.path.join(BENCH_DIR, "digests.json")
PIN_SEED = 0
SETUP_CHILDREN = 4          # plus the measuring process: set-up is timed five times
TAIL_JOBS_BEYOND = 10


def import_kmobile() -> types.SimpleNamespace:
    """The kmobile modules the benchmark drives and traces."""
    from kmobile import adversary, checks, cli, core, experiment, kserver, mobile
    return types.SimpleNamespace(core=core, adversary=adversary, kserver=kserver,
                                 mobile=mobile, checks=checks, experiment=experiment,
                                 cli=cli)


@dataclass
class JobResult:
    name: str
    latency_ns: int        # wall time, which the traced run splits into spans
    requests: int
    cpu_ns: int = 0        # CPU time of this process, which the end-to-end metrics use
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def execute(km, job: workloads.Job, tracer=None, job_id: int = -1) -> JobResult:
    """Run one job; only the CLI calls are timed, hashing and checks are not."""
    results: list[tuple[int, str]] = []
    if tracer is not None:
        restore = tracing.install(km, tracer)
        tracer.job_id = job_id
        root = tracer.open(tracing.ROOT_SPAN)
    t0 = time.perf_counter_ns()
    c0 = time.process_time_ns()
    try:
        for argv in job.commands:
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = km.cli.main(argv)
            results.append((rc, buf.getvalue()))
        latency = time.perf_counter_ns() - t0
        cpu = time.process_time_ns() - c0
    except Exception:
        return JobResult(job.name, time.perf_counter_ns() - t0, job.requests,
                         problems=[f"raised: {traceback.format_exc(limit=3)}"])
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.end_job()
            restore()
    out = JobResult(job.name, latency, job.requests, cpu)
    h = hashlib.sha256()
    for rc, stdout in results:
        h.update(f"{rc}\n{stdout}".encode())
    for path in job.outputs:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(data)
        if tracer is not None and path.endswith(".json"):
            tracer.counts["cli.record_bytes"] += len(data)
    out.digest = h.hexdigest()[:20]
    out.problems = job.check(results)
    return out


def setup(workload: str, seed: int, workdir: str):
    """Import kmobile, write the inputs and run the warm-up jobs; setup_s is its CPU time."""
    t0 = time.process_time()
    km = import_kmobile()
    wl = workloads.build(km, workload, seed, workdir)
    warm = [execute(km, job) for job in wl.warmups]
    return km, wl, warm, time.process_time() - t0


def child_setups(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each importing kmobile from scratch.

    Set-up is mostly imports, so only a fresh process can repeat it.
    """
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_round(km, wl, expected: dict, tracer=None, first_job_id: int = 0) -> list[JobResult]:
    """One pass over the workload's jobs, each checked against its expected digest."""
    out = []
    for i, job in enumerate(wl.jobs):
        res = execute(km, job, tracer, first_job_id + i)
        want = expected.setdefault(job.name, res.digest)
        if res.digest != want:
            res.problems.append(f"digest {res.digest} != {want}")
        out.append(res)
    return out


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten jobs beyond it, and its value."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_JOBS_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_JOBS_BEYOND) / n, ordered[n - TAIL_JOBS_BEYOND - 1]


def pinned_digests(workload: str, seed: int) -> dict:
    """Digests pinned for the default seed; other seeds start empty."""
    if seed != PIN_SEED:
        return {}
    with open(DIGESTS_FILE, "r", encoding="utf-8") as fh:
        return dict(json.load(fh)[workload])


def git_revision() -> str | None:
    head = Path(".git", "HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = Path(".git", ref[5:])
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def provenance(args, wl, rounds: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": rounds,
        "jobs_per_round": len(wl.jobs),
        "requests_per_round": sum(job.requests for job in wl.jobs),
        "threads": "kmobile runs on one thread; no layer waits on another",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(km, wl, seconds: float, expected: dict) -> tuple[list[list[JobResult]], float]:
    """Untraced rounds, and the peak RSS once every job has run one time.

    A CLI user runs each job in a fresh process.  Later rounds re-run the
    same jobs in one process, and the allocator's reuse of freed memory
    then raised the peak by a whole DP table in some runs only.
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(km, wl, expected))
        if len(rounds) == 1:
            first_round_rss = peak_rss_mb()
        if time.perf_counter() - t0 >= seconds:
            return rounds, first_round_rss


def measure_traced(km, wl, seconds: float, expected: dict):
    """Alternate untraced and traced passes over the same jobs."""
    tr = tracing.Tracer()
    plain_rounds, traced_rounds = [], []
    t0 = time.perf_counter()
    while True:
        plain_rounds.append(run_round(km, wl, expected))
        traced_rounds.append(run_round(km, wl, expected, tr,
                                       len(traced_rounds) * len(wl.jobs)))
        if time.perf_counter() - t0 >= seconds:
            return tr, plain_rounds, traced_rounds


def upper_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[-1]


def end_to_end(rounds: list[list[JobResult]], setups: list[float],
               rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced rounds.

    Every round repeats the same byte-identical jobs.  A repetition's
    latency is the CPU time it takes: kmobile runs on one thread and
    never waits, so on an unshared machine that equals its wall time,
    and on a shared virtual machine it leaves out the time the host
    takes the CPU away, which reached a quarter of the wall time for
    minutes at a stretch.  A job's latency is the 75th percentile of its
    repetitions.  Contention from other tenants also slows the CPU itself
    by up to 2x, for seconds to minutes, so a job's median flips between
    the fast and the slow regime from run to run; its 75th percentile
    leans to the slow regime and rests on a quarter of the repetitions,
    so one long slow stretch does not move it as far as it moves the
    90th percentile.
    So ``job_p50_ms`` is the median job at its p75, and ``steps_per_s``
    is the request rate of a round in which every job takes its p75
    time.  The tail is taken over every repetition.
    """
    job_ms = [upper_quartile([rnd[j].cpu_ns / 1e6 for rnd in rounds])
              for j in range(len(rounds[0]))]
    all_ms = [r.cpu_ns / 1e6 for rnd in rounds for r in rnd]
    pct, tail_ms = tail(all_ms)
    requests = sum(r.requests for r in rounds[0])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "steps_per_s": (requests / (sum(job_ms) / 1e3), "1/s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "steps_per_s": f"{requests} requests per round over the jobs' p75 latencies",
        "job_p50_ms": f"median of {len(job_ms)} jobs, each at p75 of {len(rounds)} rounds",
        "job_tail_ms": f"p{pct:.1f} of {len(all_ms)} job runs",
        "peak_rss_mb": "through set-up and the first round",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only time one set-up and print it; used for the repeated set-ups")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kmobile" / "__init__.py").is_file():
        print(f"bench: no kmobile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("KMOB_BUDGET", None)   # the oracles run under their default budgets

    if args.setup_only:
        workdir = os.path.join(WORK_DIR, f"{args.workload}-setup-{os.getpid()}")
        try:
            *_, seconds = setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setups = child_setups(args.workload, args.seed) if args.trace == 0 else []
    workdir = os.path.join(WORK_DIR, args.workload)
    try:
        km, wl, warm, setup_s = setup(args.workload, args.seed, workdir)
        setups.append(setup_s)
        expected = pinned_digests(args.workload, args.seed)
        if args.trace:
            tr, plain, traced = measure_traced(km, wl, args.seconds, expected)
            rounds = plain + traced
        else:
            rounds, rss_mb = measure(km, wl, args.seconds, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = warm + [r for rnd in rounds for r in rnd]
    failed = [r for r in done if r.problems]
    for r in failed[:5]:
        print(f"bench: job {r.name} failed: {'; '.join(r.problems)}", file=sys.stderr)

    if args.trace:
        traced_ns = sum(r.latency_ns for rnd in traced for r in rnd)
        plain_ns = sum(r.latency_ns for rnd in plain for r in rnd)
        values = tracing.layer_metrics(tr, len(traced), traced_ns, plain_ns)
        metrics = {name: (value, tracing.unit(name)) for name, value in values.items()}
        notes = {}
    else:
        metrics, notes = end_to_end(rounds, setups, rss_mb)

    summary = provenance(args, wl, len(rounds))
    summary["jobs"] = len(done)
    summary["requests"] = sum(r.requests for rnd in rounds for r in rnd)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {summary['rounds']} rounds, "
          f"{len(done)} jobs, {summary['requests']} requests")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:.6g} {unit}{note}")
    print(f"  {'fail_share':34s} {len(failed) / len(done):.6g}  ({len(failed)} of {len(done)} jobs)")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tr.write_spans(stem + ".spans.csv")
    result = {
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, fail_share=len(failed) / len(done), notes=notes,
                       provenance=summary, setup_samples_s=setups,
                       digests={r.name: r.digest for r in rounds[0]},
                       latency_ms=[[r.latency_ns / 1e6 for r in rnd] for rnd in rounds],
                       cpu_ms=[[r.cpu_ns / 1e6 for r in rnd] for rnd in rounds]),
                  fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
