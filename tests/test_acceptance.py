"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line once its criterion holds (visible with
``pytest -s`` or ``-rA``).  A shared registry collects every run so the
speed-cap criterion can audit all of them; it is therefore checked in
the last test of this module.
"""
import itertools
import math
import random
import time

from kmobile.adversary import (
    gen_local_walk,
    gen_simple_counterexample,
    gen_thm3,
    gen_thm4,
)
from kmobile.checks import (
    audit_speed_caps,
    check_fast_potential,
    check_lemma_geo,
    check_projection_bound,
)
from kmobile.core import (
    ProblemParams,
    Trace,
    certificate_cost,
    min_weight_matching,
)
from kmobile.mobile import run
from kmobile.offline import GridSpec, audit_helper, compute_helper, dp_optimum

RUNS = []  # (label, RunResult) for the cross-cutting speed-cap criterion


def snap_trace(trace, grid):
    """The trace with every request and start position moved to its nearest grid point."""
    def snap(p):
        i = min(max(round((p[0] - grid.lo) / grid.h), 0), grid.n - 1)
        return (grid.lo + i * grid.h,)

    return Trace([snap(r) for r in trace.requests], tuple(map(snap, trace.start_config)))


def record(label, result):
    RUNS.append((label, result))
    return result


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


def test_criterion_01_ums_fast_potential():
    t0 = time.monotonic()
    runs = 0
    for dim, k, eps in itertools.product((1, 2), (1, 2, 3), (0.1, 0.5)):
        sim = "dc-line" if dim == 1 else "greedy"
        for seed in range(9):
            params = ProblemParams(k=k, ms=1.0, mc=1.0 - eps, delta=0.0, D=1.0, dim=dim)
            inst = gen_local_walk(60, params, 1.0, seed=100 * dim + 10 * k + seed)
            res = record("c1", run(inst.trace, params, algo="ums", sim=sim))
            assert res.mode == "fast" and abs(res.epsilon - eps) < 1e-12
            rep = check_fast_potential(res)
            assert rep.ok, (dim, k, eps, seed, rep.min_margin)
            runs += 1
    elapsed = time.monotonic() - t0
    assert runs >= 100
    assert elapsed < 60.0
    report(1, f"UMS fast-mode potential inequality: 0 violations on {runs} runs "
              f"({elapsed:.1f}s)")


def test_criterion_02_wms_fast_potential():
    t0 = time.monotonic()
    runs = 0
    for dim, k, eps, D in itertools.product((1, 2), (1, 2, 3), (0.1, 0.5), (2.0, 4.0)):
        for seed in range(5):
            params = ProblemParams(k=k, ms=1.0, mc=1.0 - eps, delta=0.0, D=D, dim=dim)
            inst = gen_local_walk(50, params, 1.0, seed=1000 + 10 * k + seed)
            res = record("c2", run(inst.trace, params, algo="wms", sim="pm-counter"))
            assert res.mode == "fast" and abs(res.epsilon - eps) < 1e-12
            rep = check_fast_potential(res)
            assert rep.ok, (dim, k, eps, D, seed, rep.min_margin)
            runs += 1
    elapsed = time.monotonic() - t0
    assert runs >= 100
    assert elapsed < 60.0
    report(2, f"WMS fast-mode potential inequality: 0 violations on {runs} runs "
              f"({elapsed:.1f}s)")


def test_criterion_03_projection_bound():
    results = []
    for seed in range(25):  # unweighted, random walks
        params = ProblemParams(k=2, ms=0.5, mc=1.0, delta=0.5, D=1.0, dim=1)
        inst = gen_local_walk(300, params, 1.0, seed=seed)
        results.append(record("c3", run(inst.trace, params, algo="ums", sim="dc-line")))
    for i in range(15):  # unweighted, strongly drifting constructions
        mc = (2.0, 4.0, 8.0)[i % 3]
        inst = gen_thm4(2, 64, ms=1.0, mc=mc, z_choice=i % 4)
        results.append(record("c3", run(inst.trace, inst.params, algo="ums", sim="dc-line")))
    for seed in range(10):  # weighted
        params = ProblemParams(k=2, ms=0.4, mc=1.0, delta=0.5, D=2.0, dim=1)
        inst = gen_local_walk(300, params, 1.0, seed=50 + seed)
        results.append(record("c3", run(inst.trace, params, algo="wms", sim="pm-counter")))
    assert len(results) == 50
    worst_ratio = 0.0
    for res in results:
        assert res.project
        audit = check_projection_bound(res)
        assert audit.ok, (res.algo, audit.max_distance, audit.bound)
        if audit.ratio is not None:
            assert audit.ratio <= 10.0 * res.params.k
            worst_ratio = max(worst_ratio, audit.ratio / res.params.k)
    report(3, f"projection containment on 50 runs; worst cost ratio "
              f"{worst_ratio:.2f}·k (bound 10·k)")


def test_criterion_05_jump_construction_ratios():
    t0 = time.monotonic()
    ratios = []
    phase2_means = []
    for x in (64, 128, 256):
        costs, phase2 = [], []
        for zc in range(4):
            inst = gen_thm3(2, x, D=1.0, ms=1.0, z_choice=zc)
            assert certificate_cost(inst.trace, inst.params) <= \
                inst.offline_cost_bound * (1 + 1e-6)
            res = record("c5", run(inst.trace, inst.params, algo="ums", sim="dc-line"))
            costs.append(res.grand_total)
            start = inst.choices["phase2_start"]
            phase2.append(sum(rep.cost for rep in res.reports[start - 1:]))
        ratios.append(sum(costs) / 4.0 / inst.offline_cost_bound)
        phase2_means.append(sum(phase2) / 4.0)
        assert phase2_means[-1] >= x * x * 1.0 / 264.0
    assert ratios[0] < ratios[1] < ratios[2]
    # doubling x should roughly double the ratio (linear growth)
    assert ratios[1] >= 1.5 * ratios[0]
    assert ratios[2] >= 1.5 * ratios[1]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(5, f"jump-construction ratios strictly increase: "
              f"{', '.join(f'{r:.2f}' for r in ratios)} ({elapsed:.1f}s)")


def test_criterion_06_walking_construction_ratios():
    t0 = time.monotonic()
    ratios = []
    for mc in (2.0, 4.0, 8.0):
        costs = []
        for zc in range(4):
            inst = gen_thm4(2, 128, ms=1.0, mc=mc, z_choice=zc)
            res = record("c6", run(inst.trace, inst.params, algo="ums", sim="dc-line"))
            costs.append(res.grand_total)
        ratios.append(sum(costs) / 4.0 / inst.offline_cost_bound)
    assert ratios[0] < ratios[1] < ratios[2]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(6, f"walking-construction ratios increase with mc/ms: "
              f"{', '.join(f'{r:.3f}' for r in ratios)} ({elapsed:.1f}s)")


def test_criterion_07_matching_only_counterexample():
    inst = gen_simple_counterexample(400, 20, ms=1.0)
    cert = certificate_cost(inst.trace, inst.params)
    assert abs(cert - 420.0) < 1e-9
    simple = record("c7", run(inst.trace, inst.params, algo="simple",
                              sim="split-serve", project="off"))
    assert simple.grand_total >= 7200.0
    assert simple.grand_total / cert > 17.0
    ums = record("c7", run(inst.trace, inst.params, algo="ums", sim="auto"))
    ums_ratio = ums.grand_total / cert
    assert ums_ratio < 5.0
    report(7, f"matching-only pays {simple.grand_total:.0f} (ratio "
              f"{simple.grand_total / cert:.1f} > 17), UMS ratio {ums_ratio:.2f} < 5")


def test_criterion_08_oracle_equivalence():
    rng = random.Random(2024)
    checked = 0
    for k in range(1, 7):
        for _ in range(200):
            a = [(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(k)]
            b = [(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(k)]
            m = min_weight_matching(a, b)
            best = min(sum(math.dist(a[i], b[j]) for i, j in enumerate(p))
                       for p in itertools.permutations(range(k)))
            assert abs(m.weight - best) <= 1e-9
            checked += 1
    dominated = 0
    for trial in range(20):
        k = 1 + trial % 2
        D = 2.0 if trial % 2 else 1.0
        walk_params = ProblemParams(k=k, ms=30.0, mc=1.0, delta=0.0, D=D, dim=1)
        inst = gen_local_walk(15, walk_params, 1.0, seed=300 + trial)
        grid = GridSpec(-5.0, 5.0, 21)
        snapped = snap_trace(inst.trace, grid)
        params = ProblemParams(k=k, ms=30.0, mc=1.0 + grid.h, delta=0.0, D=D, dim=1)
        cost, _ = dp_optimum(snapped, params, grid)
        slack = grid.h * len(snapped.requests) * (D + 1.0) * k
        algos = ["ums", "simple"] + (["wms"] if D >= 2.0 else [])
        for algo in algos:
            res = record("c8", run(snapped, params, algo=algo, sim="greedy",
                                   project="off"))
            assert res.grand_total >= cost - slack, (trial, algo)
        dominated += 1
    assert dominated == 20
    report(8, f"matching equals brute force on {checked} instances; offline DP "
              f"dominated every algorithm on 20 grid instances")


def test_criterion_09_geometric_inequality_sampler():
    for delta in (0.1, 0.5, 0.9):
        rep = check_lemma_geo(10_000, delta, seed=int(delta * 10))
        assert rep.violations == 0, (delta, rep.min_margin)
    report(9, "greedy-move distance inequality: 0 violations in 3x10^4 samples")


SIGMA = 1e-3


def _helper_params(k):
    return ProblemParams(k=k, ms=0.5, mc=1.0, delta=0.5, D=1.0, dim=1)


def _helper_trajectories():
    """20 hand-built line trajectories exercising the offline-helper regimes."""
    cases = []
    for i in range(5):  # request orbits a single optimum server
        p = _helper_params(1)
        n = 160
        far = 4000.0 + 500.0 * i
        amp = 10.0 + i
        offline = [((0.0,),)] * n
        online = [((far,),)] * n
        reqs = [(amp * math.sin(t / (3.0 + i)),) for t in range(n)]
        cases.append((f"orbit-{i}", p, offline, online, reqs))
    for i in range(5):  # slow walks between two far-apart servers
        p = _helper_params(2)
        span = 80.0 + 10.0 * i
        rest = 15
        leg = int(span)
        reqs = [(0.0,)] * rest
        reqs += [(float(t),) for t in range(1, leg + 1)]
        reqs += [(span,)] * rest
        reqs += [(span - t,) for t in range(1, leg + 1)]
        reqs += [(0.0,)] * rest
        n = len(reqs)
        offline = [((0.0,), (span,))] * n
        online = [((5000.0,), (5000.0 + span,))] * n
        cases.append((f"commute-{i}", p, offline, online, reqs))
    for i in range(5):  # short hops inside a cluster of two servers
        p = _helper_params(2)
        gap = 28.0 + 2.0 * i
        period = 12 + 2 * i
        lo, hi = 9.0, gap - 9.0
        reqs = []
        pos, target = lo, hi
        for t in range(180):
            if t % period == 0:
                target = hi if target == lo else lo
            pos = pos + max(-1.0, min(1.0, target - pos))
            reqs.append((pos,))
        n = len(reqs)
        offline = [((0.0,), (gap,))] * n
        online = [((5000.0,), (5000.0 + gap,))] * n
        cases.append((f"hops-{i}", p, offline, online, reqs))
    for i in range(5):  # online servers dip below the separation threshold
        p = _helper_params(1)
        n = 200
        near = 40.0 + 10.0 * i
        speed = 45.0 + 5.0 * i
        online = []
        for t in range(1, n + 1):
            if t <= 100:
                x = max(near, 4000.0 - speed * t)
            else:
                x = min(4000.0, near + speed * (t - 100))
            online.append(((x,),))
        offline = [((0.0,),)] * n
        reqs = [(0.0,)] * n
        cases.append((f"dip-{i}", p, offline, online, reqs))
    return cases


def test_criterion_10_helper_invariants():
    cases = _helper_trajectories()
    assert len(cases) == 20
    fired_cases = 0
    total_fired = total_vacuous = 0
    for name, p, offline, online, reqs in cases:
        helper = compute_helper(offline, online, reqs, p, SIGMA,
                                offline_start=offline[0])
        audit = audit_helper(helper, online, reqs, p, SIGMA)
        assert audit.speed_violations == 0, name
        assert audit.guard_speed_violations == 0, name
        assert audit.containment_violations == 0, name
        total_fired += audit.guard_fired
        total_vacuous += audit.guard_vacuous
        if audit.guard_fired > 0:
            fired_cases += 1
    assert fired_cases >= 5
    report(10, f"helper invariants on 20 trajectories: guards fired on "
               f"{fired_cases}/20 ({total_fired} steps, {total_vacuous} vacuous), "
               f"0 violations")


# Runs last: audits the speed caps of every run recorded above.
def test_criterion_04_speed_cap_safety():
    assert len(RUNS) > 200
    for label, res in RUNS:
        audit = audit_speed_caps(res)
        assert audit.ok, (label, res.algo, audit.violations, audit.cap_violations)
    report(4, f"speed-cap safety: every displacement within (1+delta)*ms and its "
              f"branch cap across {len(RUNS)} recorded runs")
