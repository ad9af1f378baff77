import random
import tracemalloc

import numpy as np
import pytest

from kmobile.adversary import gen_local_walk
from kmobile.core import InputError, ProblemParams, Trace, validate_trace
from kmobile.mobile import run
from kmobile.offline import (
    DP_MAX_K,
    DP_MAX_POINTS,
    DP_MAX_STEPS,
    GridSpec,
    dp_optimum,
)
from kmobile.core import ResourceBudgetError
from test_simulators import kserver_lower_bound


def snap_trace(trace, grid):
    """The trace with every request and start position moved to its nearest grid point."""
    def snap(p):
        i = min(max(round((p[0] - grid.lo) / grid.h), 0), grid.n - 1)
        return (grid.lo + i * grid.h,)

    return Trace([snap(r) for r in trace.requests], tuple(map(snap, trace.start_config)))


def bounded_dp_optimum(trace, p, grid):
    """dp_optimum, held to the k-server lower bound: its cost is a mobile
    schedule's, so it is at least half the k-server optimum of the trace."""
    cost, traj = dp_optimum(trace, p, grid)
    assert kserver_lower_bound(trace) <= cost
    return cost, traj


def params(**kw):
    base = dict(k=1, ms=1.0, mc=10.0, delta=0.0, D=1.0, dim=1)
    base.update(kw)
    return ProblemParams(**base)


def test_stationary_trace_costs_nothing():
    p = params(k=2)
    trace = Trace(requests=[(0.0,)] * 6, start_config=((0.0,), (0.0,)))
    cost, traj = bounded_dp_optimum(trace, p, GridSpec(0.0, 1.0, 3))
    assert cost == 0.0
    assert all(conf == ((0.0,), (0.0,)) for conf in traj)


def test_single_request_serve_vs_move_indifference():
    p = params(k=1, ms=1.0)
    trace = Trace(requests=[(5.0,)], start_config=((0.0,),))
    cost, _ = bounded_dp_optimum(trace, p, GridSpec(0.0, 5.0, 6))
    assert cost == 5.0


def test_expensive_movement_prefers_serving():
    p = params(k=1, ms=10.0, D=5.0)
    trace = Trace(requests=[(4.0,)], start_config=((0.0,),))
    cost, traj = bounded_dp_optimum(trace, p, GridSpec(0.0, 4.0, 5))
    assert cost == 4.0  # moving would cost 5 per unit; serving once costs 4
    assert traj[0] == ((0.0,),)


def test_repeated_request_amortizes_movement():
    p = params(k=1, ms=10.0, D=2.0)
    trace = Trace(requests=[(4.0,)] * 10, start_config=((0.0,),))
    cost, traj = bounded_dp_optimum(trace, p, GridSpec(0.0, 4.0, 5))
    assert cost == 8.0  # move once for D*4, serve the rest for free
    assert traj[-1] == ((4.0,),)


def test_refining_grid_never_increases_value():
    rng = random.Random(8)
    p = params(k=2, ms=2.0, D=1.0)
    for trial in range(5):
        reqs = [(rng.uniform(0.0, 4.0),) for _ in range(8)]
        trace = Trace(requests=reqs, start_config=((0.0,), (4.0,)))
        values = []
        for n in (5, 9, 17):  # nested grids on [0, 4]
            cost, _ = bounded_dp_optimum(trace, p, GridSpec(0.0, 4.0, n))
            values.append(cost)
        assert values[1] <= values[0] + 1e-9
        assert values[2] <= values[1] + 1e-9


def test_trajectory_is_feasible_certificate():
    rng = random.Random(3)
    p = params(k=2, ms=1.5, D=1.0)
    reqs = [(rng.uniform(0.0, 6.0),) for _ in range(10)]
    trace = Trace(requests=reqs, start_config=((0.0,), (6.0,)))
    cost, traj = bounded_dp_optimum(trace, p, GridSpec(0.0, 6.0, 13))
    checked = Trace(requests=reqs, start_config=trace.start_config, certificate=traj)
    assert validate_trace(checked, p) is None
    from kmobile.core import certificate_cost

    assert abs(certificate_cost(checked, p) - cost) < 1e-9


def test_dominates_online_algorithms():
    for trial in range(6):
        k = 1 + trial % 2
        d_weight = 1.0 if trial % 3 else 2.0
        p_walk = params(k=k, ms=30.0, mc=1.0, D=d_weight)
        inst = gen_local_walk(12, p_walk, 1.0, seed=trial)
        grid = GridSpec(-5.0, 5.0, 21)
        snapped = snap_trace(inst.trace, grid)
        # snapping can stretch consecutive requests by up to h
        p = params(k=k, ms=30.0, mc=1.0 + grid.h, D=d_weight)
        cost, _ = bounded_dp_optimum(snapped, p, grid)
        slack = grid.h * len(snapped.requests) * (p.D + 1.0) * p.k
        for algo in ("ums", "simple"):
            res = run(snapped, p, algo=algo, sim="greedy", project="off")
            assert res.grand_total >= cost - slack


def test_budget_errors():
    p = params(k=1)
    trace = Trace(requests=[(0.0,)] * 31, start_config=((0.0,),))
    with pytest.raises(ResourceBudgetError):
        dp_optimum(trace, p, GridSpec(0.0, 1.0, 3))
    trace = Trace(requests=[(0.0,)], start_config=((0.0,),))
    with pytest.raises(ResourceBudgetError):
        dp_optimum(trace, p, GridSpec(0.0, 1.0, DP_MAX_POINTS + 1))
    with pytest.raises(ResourceBudgetError):
        dp_optimum(Trace(requests=[(0.0,)], start_config=((0.0,),) * 3),
                   params(k=3), GridSpec(0.0, 1.0, 3))


def test_dimension_restriction():
    p = ProblemParams(k=1, ms=1.0, mc=1.0, delta=0.0, D=1.0, dim=2)
    trace = Trace(requests=[(0.0, 0.0)], start_config=((0.0, 0.0),))
    with pytest.raises(InputError):
        dp_optimum(trace, p, GridSpec(0.0, 1.0, 3))


def test_grid_from_resolution_covers_trace():
    trace = Trace(requests=[(0.0,), (0.9,), (2.3,)], start_config=((0.4,),))
    grid = GridSpec.from_resolution(trace, 0.5)
    assert grid.lo == 0.0
    assert grid.hi >= 2.3
    assert abs(grid.h - 0.5) < 1e-12


def test_infeasible_start_raises():
    p = params(k=1, ms=0.1)
    trace = Trace(requests=[(5.0,)], start_config=((0.0,),))
    with pytest.raises(InputError):
        dp_optimum(trace, p, GridSpec(4.0, 5.0, 3))


def dense_dp_optimum(trace, params, grid):
    """Reference DP: the whole (n^k)^2 candidate table per step, reduced by column."""
    pos = grid.positions()
    n = grid.n
    cap = params.ms * (1.0 + 1e-9)
    step = np.abs(pos[:, None] - pos[None, :])
    step_cost = np.where(step <= cap, step, np.inf)
    if params.k == 1:
        move = params.D * step_cost
        state_pos = pos[:, None]
    else:
        m2 = step_cost[:, None, :, None] + step_cost[None, :, None, :]
        move = (params.D * m2).reshape(n * n, n * n)
        ii, jj = np.meshgrid(pos, pos, indexing="ij")
        state_pos = np.stack([ii.ravel(), jj.ravel()], axis=1)
    requests = np.array([r[0] for r in trace.requests])
    serve = np.min(np.abs(state_pos[:, :, None] - requests[None, None, :]), axis=1)
    start = np.array([p[0] for p in trace.start_config])
    init = np.abs(state_pos - start[None, :])
    init = np.where(init <= cap, init, np.inf).sum(axis=1) * params.D
    dp = init + serve[:, 0]
    if not np.isfinite(dp).any():
        raise InputError("start configuration cannot reach the grid within ms")
    parents = []
    for t in range(1, len(trace.requests)):
        tmp = dp[:, None] + move
        parents.append(np.argmin(tmp, axis=0))
        dp = np.min(tmp, axis=0) + serve[:, t]
    best = int(np.argmin(dp))
    cost = float(dp[best])
    states = [best]
    for parent in reversed(parents):
        states.append(int(parent[states[-1]]))
    states.reverse()
    return cost, [tuple((float(c),) for c in state_pos[s]) for s in states]


def test_matches_dense_reference_bit_for_bit():
    rng = random.Random(2024)
    for trial in range(200):
        k = 1 + trial % 2
        # the dense reference costs O(n^(2k)) per step, so k=2 grids stay
        # small except for a few at the cap
        n = DP_MAX_POINTS if trial % 25 == 1 else rng.randint(2, DP_MAX_POINTS if k == 1 else 24)
        steps = rng.randint(2, DP_MAX_STEPS)
        p = params(k=k, ms=rng.choice([0.5, 1.0, 2.0]), D=rng.choice([1.0, 2.0, 3.7]))
        grid = GridSpec(0.0, rng.choice([1.0, 4.0, float(n - 1)]), n)
        if rng.random() < 0.5:  # on grid points: ties everywhere
            coords = [float(x) for x in grid.positions()]
            draw = lambda: rng.choice(coords)
        else:
            draw = lambda: rng.uniform(grid.lo - 0.5, grid.hi + 0.5)
        first = (draw(),)
        start = (first,) * k if rng.random() < 0.5 else tuple((draw(),) for _ in range(k))
        trace = Trace(requests=[(draw(),) for _ in range(steps)], start_config=start)
        try:
            want = dense_dp_optimum(trace, p, grid)
        except InputError:
            with pytest.raises(InputError):
                dp_optimum(trace, p, grid)
            continue
        assert bounded_dp_optimum(trace, p, grid) == want, trial


@pytest.mark.parametrize("window", [3, DP_MAX_POINTS])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("D", [1.0, 2.5, 1e3])
@pytest.mark.parametrize("lo, h", [(-3.3, 0.2), (1e6, 1e-3)])
def test_filter_slack_keeps_the_dense_choice_bit_for_bit(lo, h, D, k, window):
    # A step keeps only the predecessors whose filter sum is within a
    # relative 1e-13 of the least, and the filter adds in another order than
    # the dense table.  These cases stress that: grid points off the origin
    # are inexact and, far from it, round coarsely, grid points give exact
    # ties, a large D scales every rounding, and a window of 3 points leaves
    # states that no predecessor reaches while the whole grid reaches all of
    # them.
    n = DP_MAX_POINTS if k == 1 else 21
    grid = GridSpec(lo, lo + (n - 1) * h, n)
    p = params(k=k, ms=1.5 * grid.h if window == 3 else grid.hi - grid.lo, D=D)
    coords = [float(x) for x in grid.positions()]
    rng = random.Random(f"{lo}/{D}/{k}/{window}")
    for trial in range(12):
        if trial % 3:  # on grid points: exact ties
            draw = lambda: rng.choice(coords)
        else:
            draw = lambda: rng.uniform(grid.lo - grid.h, grid.hi + grid.h)
        # starts on grid points, both servers at one end in the first trial
        start = tuple((coords[0] if trial == 0 else rng.choice(coords),) for _ in range(k))
        trace = Trace(requests=[(draw(),) for _ in range(8)], start_config=start)
        assert bounded_dp_optimum(trace, p, grid) == dense_dp_optimum(trace, p, grid), trial


@pytest.mark.parametrize("lo, h, n, window, requests, start", [
    (0.3, 0.11, 41, "whole", [21, 7, 37], [31, 27]),
    (-3.3, 0.2, 21, 3, [2, 1, 9, 0, 17], [17, 20]),
])
def test_a_tie_above_the_least_filter_sum_keeps_the_dense_choice(lo, h, n, window, requests, start):
    # On these grid points a dense-table choice has a filter sum a few ulps
    # above the least one, so a filter with no slack picks other parents.
    grid = GridSpec(lo, lo + (n - 1) * h, n)
    coords = [float(x) for x in grid.positions()]
    p = params(k=2, ms=1.5 * grid.h if window == 3 else grid.hi - grid.lo, D=1.0)
    trace = Trace(requests=[(coords[i],) for i in requests],
                  start_config=tuple((coords[i],) for i in start))
    assert bounded_dp_optimum(trace, p, grid) == dense_dp_optimum(trace, p, grid)


def test_window_edges_match_dense_reference_bit_for_bit():
    # A step's filter reads, for each server, the band of 2*floor(ms/h)+1
    # grid points around it, kept inside the grid; a move in the band longer
    # than ms costs inf.  These cases put the edge of the reach where it
    # matters.
    rng = random.Random(41)
    n, k = DP_MAX_POINTS, DP_MAX_K
    grid = GridSpec(0.3, 4.7, n)
    coords = [float(x) for x in grid.positions()]
    gaps = np.abs(grid.positions()[:, None] - grid.positions()[None, :])
    edge = [m * grid.h for m in (1, 3, 7)]
    # h is inexact here, so some gaps of m points round above m*h and are
    # admitted only by the 1e-9 slack of the cap
    assert all(((gaps > ms) & (gaps <= ms * (1.0 + 1e-9))).any() for ms in edge)
    stay = [0.5 * grid.h]  # no server can leave its point
    whole = [grid.hi - grid.lo, 3.0 * (grid.hi - grid.lo)]  # every state reaches every state
    trials = [(ms, D) for ms in edge + stay + whole for D in (1.0, 2.5)]
    assert len(trials) >= 10
    for trial, (ms, D) in enumerate(trials):
        p = params(k=k, ms=ms, D=D)
        if trial % 4 in (1, 2):  # on grid points: ties everywhere, at either D
            draw = lambda: rng.choice(coords)
        else:
            draw = lambda: rng.uniform(grid.lo - 0.2, grid.hi + 0.2)
        # starts on grid points, so that every case is feasible; one server
        # near an end and the other inside, or both on one point
        start = ((coords[trial % 4],), (rng.choice(coords[8:]),)) if trial % 3 else ((coords[20],),) * k
        trace = Trace(requests=[(draw(),) for _ in range(6)], start_config=start)
        assert bounded_dp_optimum(trace, p, grid) == dense_dp_optimum(trace, p, grid), trial


@pytest.mark.parametrize("ms, steps", [(2.0, DP_MAX_STEPS), (20.0, 10)],
                         ids=["caps", "whole-window"])
def test_holds_no_transition_table_at_the_caps(ms, steps):
    # README's bound: a tracemalloc peak of at most 2.8 MB at the caps,
    # where one step's table alone would take 22.6 MB.  The second case
    # reaches every grid point in one move, the widest filter a step has.
    n, k = DP_MAX_POINTS, DP_MAX_K
    rng = random.Random(5)
    p = params(k=k, ms=ms, D=1.0)
    grid = GridSpec(0.0, 20.0, n)
    trace = Trace(requests=[(rng.uniform(0.0, 20.0),) for _ in range(steps)],
                  start_config=((10.0,),) * k)
    tracemalloc.start()
    try:
        dp_optimum(trace, p, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.8e6, peak
