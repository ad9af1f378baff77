"""Ground-truth machinery: discretized offline optimum and the offline helper.

The DP oracle computes the exact optimum over grid-restricted server
trajectories on the line.  The offline helper is an analysis-only
virtual server that tracks the optimum's serving server smoothly under
speed and containment guarantees; it is computed from a full offline
trajectory plus the online run it is compared against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence

from kmobile.core import (
    REL_TOL,
    Config,
    InputError,
    Point,
    ProblemParams,
    ResourceBudgetError,
    Trace,
    check_dims,
    move_toward,
    nearest,
    positive,
    read_budget,
)

if TYPE_CHECKING:
    import numpy as np

DP_MAX_POINTS = 41
DP_MAX_STEPS = 30
DP_MAX_K = 2
# The DP costs a step's candidate predecessors in slices of about this many.
_CANDIDATES = 1 << 13


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [lo, hi] with n points (dimension 1)."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 1 or self.hi < self.lo:
            raise InputError("grid needs hi >= lo and at least one point")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n - 1) if self.n > 1 else 0.0

    def positions(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.lo, self.hi, self.n)

    @classmethod
    def from_resolution(cls, trace: Trace, h: float) -> "GridSpec":
        positive(h, "grid resolution")
        coords = [p[0] for p in trace.requests] + [p[0] for p in trace.start_config]
        lo, hi = min(coords), max(coords)
        if hi == lo:
            return cls(lo, hi, 1)
        spans = (hi - lo) / h
        if spans == math.inf:
            raise ResourceBudgetError(f"a grid of resolution {h!r} on [{lo!r}, {hi!r}] "
                                      "has more points than a float counts")
        n = math.ceil(spans - 1e-12) + 1
        return cls(lo, lo + (n - 1) * h, n)


def dp_optimum(trace: Trace, params: ProblemParams,
               grid: GridSpec) -> tuple[float, list[Config]]:
    """Exact optimum over grid-restricted trajectories on the line.

    Movement is billed D per unit distance, serving at the nearest
    server's distance, and per-server moves are capped at ms.  Returns
    the optimal cost and an optimal trajectory (one configuration per
    request), which is a valid offline certificate.

    KMOB_BUDGET is checked against the (n^k)^2 transitions of a step,
    but a step costs only the predecessors that can tie a state's
    minimum.  A float filter, the separable min-plus pass of
    Felzenszwalb and Huttenlocher, finds them: with c_i the move of the
    first server from i' to i and c_j that of the second from j' to j,

        h[i', j] = min over j' of D*c_j + dp[i', j']
        g[i, j]  = min over i' of D*c_i + h[i', j]

    and it keeps the (i', j') with D*c_i + h[i', j] <= g*(1 + 1e-13) and
    D*c_j + dp[i', j'] <= h[i', j] + G*1e-13, G a bound on every finite
    g.  Those are costed as a dense table sums them, fl(fl(D * fl(c_j +
    c_i)) + dp), and the least cost, first in flat predecessor order,
    wins.  Every term is non-negative, so each filter sum is within a
    few ulps of the exact sum: a predecessor of least exact cost lies
    within about 15 ulps of g, far inside the slack, and costs, parents
    and trajectories are bit for bit those of the dense table.  The
    slack admits the near-ties that the line's triangle equality makes
    common, tens of thousands of candidates a step at 41 points against
    millions of transitions.

    Memory is O(n^k * w) for a cap window of w points, plus the
    candidates, taken in slices of about _CANDIDATES, and one int32
    parent array of n^k entries per step: a tracemalloc peak of about
    1 MB at the caps.  On a 2-CPU host the benchmark's 41-point,
    10-step instance takes about 14 ms of CPU, where costing every
    transition in reach takes about 28 ms.  numpy is imported here, not
    by the module, so runs that never reach the DP never load it.
    """
    if params.dim != 1:
        raise InputError("the DP oracle is restricted to dimension 1")
    if params.k > DP_MAX_K:
        raise ResourceBudgetError(f"DP oracle supports k <= {DP_MAX_K}, got {params.k}")
    if len(trace.requests) > DP_MAX_STEPS:
        raise ResourceBudgetError(
            f"DP oracle supports up to {DP_MAX_STEPS} steps, got {len(trace.requests)}")
    if grid.n > DP_MAX_POINTS:
        raise ResourceBudgetError(
            f"DP oracle supports up to {DP_MAX_POINTS} grid points, got {grid.n}")
    transitions = (grid.n ** params.k) ** 2
    budget = read_budget()
    if budget is not None and transitions > budget:
        raise ResourceBudgetError(f"DP needs {transitions} transitions per step (budget {budget})")

    import numpy as np
    pos = grid.positions()
    n = grid.n
    D = params.D
    cap = params.ms * (1.0 + REL_TOL)  # the slack validate_trace grants a certificate
    step = np.abs(pos[:, None] - pos[None, :])
    step_cost = np.where(step <= cap, step, np.inf)
    # Positions are sorted, so a server at j reaches only points within b
    # of j, all among the w points band[:, j], which stay inside the grid.
    # move[m, j] is the cost of the move between j and band[m, j].
    near, far = np.nonzero(np.isfinite(step_cost))
    b = int(np.abs(near - far).max())
    w = min(2 * b + 1, n)
    first = np.clip(np.arange(n, dtype=np.int32) - b, 0, n - w)
    band = first + np.arange(w, dtype=np.int32)[:, None]
    move = step_cost[np.arange(n), band]
    requests = np.array([r[0] for r in trace.requests])
    served = np.abs(pos[:, None] - requests[None, :])
    start = np.array([p[0] for p in trace.start_config])
    init = np.abs(pos[:, None] - start[None, :])
    init = np.where(init <= cap, init, np.inf)
    # State s = i*n + j puts the first server at i and the second at j, and
    # dp[i, j] is its cost.  With k = 1 the server is at j, and a first
    # server stays on one point i = 0 for nothing and serves nothing:
    # adding 0.0 to a cost or taking the lesser of it and inf keeps its bits.
    if params.k == 1:
        band1, move1 = np.zeros((1, 1), dtype=np.int32), np.zeros((1, 1))
        init1, served1 = np.zeros(1), np.full((1, len(requests)), np.inf)
    else:
        band1, move1, init1, served1 = band, move, init[:, 0], served
    w1, n1 = move1.shape
    dmove, dmove1 = D * move, D * move1
    # A finite g is at most the largest finite h plus the largest first move.
    reach1 = np.max(dmove1, where=np.isfinite(dmove1), initial=0.0)

    def serve(t):
        return np.minimum(served1[:, None, t], served[None, :, t])

    def relax(dp):
        """Each state's least cost after one more step, and its predecessor.

        Each array is dropped once spent, so that the peak holds about one
        filter tensor and one slice of candidates.
        """
        # The filter's sums, laid out [m, j, i'] and [m, i, j] so that the
        # minima run over the leading axis, and the tests they pass.
        over = dp.T[band]
        over += dmove[:, :, None]
        h = over.min(axis=0).T
        slack = 1e-13 * (np.max(h, where=np.isfinite(h), initial=0.0) + reach1)
        near_j = over <= (h.T + slack)
        del over
        outer = h[band1]
        outer += dmove1[:, :, None]
        g = outer.min(axis=0)
        near_i = outer <= np.where(np.isfinite(g), g * (1.0 + 1e-13), -1.0)
        del outer
        # Triples (state i*n + j, first predecessor i'), states in order and
        # i' rising in each; a triple's candidates are the list of (i', j).
        trip = np.flatnonzero(near_i.transpose(1, 2, 0)).astype(np.int32)
        del near_i
        state, m = np.divmod(trip, w1)
        i, j = np.divmod(state, n)
        c_i = move1[m, i]
        lists = band1[m, i] * n + j
        del trip, i, j, m
        # The lists that some triple names, each its j' in rising order.
        listed = np.zeros((n1, n), dtype=bool)
        listed.ravel()[lists] = True
        near_j &= listed.T
        pairs = np.flatnonzero(near_j.transpose(2, 1, 0)).astype(np.int32)
        del near_j
        pair, m = np.divmod(pairs, w)
        j = pair % n
        c_j = move[m, j]
        pred = pair - j + band[m, j]
        del pairs, j, m
        dp_pred = dp.ravel()[pred]
        count = np.bincount(pair, minlength=n1 * n).astype(np.int32)
        del pair
        size = count[lists]
        end = np.cumsum(size, dtype=np.int32)
        shift = (np.cumsum(count, dtype=np.int32) - count)[lists] - (end - size)
        del lists, count
        # The candidates in order, one run per state, costed in slices of
        # whole runs that start every _CANDIDATES or so.
        runs = np.flatnonzero(np.diff(state, prepend=-1, append=-1))
        begin = np.r_[0, end][runs]
        cuts = np.r_[np.flatnonzero(np.diff(begin[:-1] // _CANDIDATES, prepend=-1)), len(runs) - 1]
        reached = np.full(n1 * n, np.inf)
        parent = np.zeros(n1 * n, dtype=np.int32)
        for ra, rz in zip(cuts[:-1], cuts[1:]):
            a, z = runs[ra], runs[rz]
            src = np.arange(begin[ra], begin[rz], dtype=np.intp)
            src += np.repeat(shift[a:z], size[a:z])
            cost = np.repeat(c_i[a:z], size[a:z])
            cost += c_j[src]
            if D != 1.0:
                cost *= D
            cost += dp_pred[src]
            at = begin[ra:rz] - begin[ra]
            least = np.minimum.reduceat(cost, at)
            hits = np.flatnonzero(cost == np.repeat(least, np.diff(begin[ra:rz + 1])))
            s = state[runs[ra:rz]]
            reached[s] = least
            parent[s] = pred[src[hits[np.searchsorted(hits, at)]]]
        return reached, parent

    dp = (init1[:, None] + init[None, :, -1]) * D + serve(0)
    if not np.isfinite(dp).any():
        raise InputError("start configuration cannot reach the grid within ms")
    parents = []
    for t in range(1, len(requests)):
        reached, parent = relax(dp)
        parents.append(parent)
        dp = reached.reshape(n1, n) + serve(t)
    dp = dp.ravel()
    best = int(np.argmin(dp))
    cost = float(dp[best])
    states = [best]
    for parent in reversed(parents):
        states.append(int(parent[states[-1]]))
    states.reverse()
    # divmod(s, n) is (i, j); with k = 1 only j is a server.
    return cost, [tuple((float(pos[c]),) for c in divmod(s, n)[-params.k:]) for s in states]


# ---------------------------------------------------------------------------
# Offline helper
# ---------------------------------------------------------------------------

# Scale knob sigma multiplies these constants so the guarded regimes
# become reachable at desk scale; sigma=1 is the faithful setting.
INNER_DIVISOR = 48960.0
SPEED_FACTOR = 1020.0
ENGAGE_FACTOR = 51483.0
PHI_FACTOR = 107548.0
OUTER_DIVISOR = 48.0        # not scaled: outer/inner stays the chase speed ratio
HOLD_CIRCLE_DIVISOR = 145.0  # not scaled: must stay between inner and outer


def helper_speed_cap(params: ProblemParams, sigma: float = 1.0) -> float:
    _require_scales(params, sigma)
    return (2.0 + SPEED_FACTOR * sigma * params.k / params.delta) * params.mc


def engage_threshold(params: ProblemParams, sigma: float = 1.0) -> float:
    _require_scales(params, sigma)
    return ENGAGE_FACTOR * sigma * params.k * params.mc / params.delta ** 2


def follow_speed(params: ProblemParams) -> float:
    return (1.0 + params.delta / 8.0) * params.ms


def _require_scales(params: ProblemParams, sigma: float) -> None:
    if params.delta <= 0.0:
        raise InputError("the offline helper needs delta > 0")
    positive(sigma, "sigma")


@dataclass
class StepGeometry:
    """Per-step quantities around the optimum's serving server."""

    o_star: int         # index of the offline server nearest the request
    o_star_pos: Point
    d_oa: float         # distance from it to the nearest online server
    inner: float
    outer: float
    in_inner: bool


def step_geometry(offline_conf: Config, online_conf: Config, r: Point,
                  params: ProblemParams, sigma: float) -> StepGeometry:
    _require_scales(params, sigma)
    i, d = nearest(offline_conf, r)
    o_pos = offline_conf[i]
    d_oa = nearest(online_conf, o_pos)[1]
    inner = params.delta ** 2 / (INNER_DIVISOR * sigma * params.k) * d_oa
    outer = params.delta / OUTER_DIVISOR * d_oa
    return StepGeometry(o_star=i, o_star_pos=o_pos, d_oa=d_oa, inner=inner,
                        outer=outer, in_inner=d <= inner)


@dataclass
class HelperTrajectory:
    start: Point
    positions: list[Point]      # one per step
    modes: list[str]            # behavior tag per step
    geometry: list[StepGeometry]
    diagnostics: list[str] = field(default_factory=list)


class _HelperContext:
    def __init__(self, offline, online, requests, params, sigma):
        self.offline = offline
        self.online = online
        self.requests = requests
        self.params = params
        self.n = len(requests)
        if not len(offline) == len(online) == len(requests):
            raise InputError("offline, online and request sequences must share a length")
        self.geo = [step_geometry(o, a, r, params, sigma)
                    for o, a, r in zip(offline, online, requests)]
        self.speed_cap = helper_speed_cap(params, sigma)
        self.follow = follow_speed(params)
        self.engage = engage_threshold(params, sigma)
        self.anchors = [t for t in range(1, self.n + 1) if self.geo[t - 1].in_inner]

    def chase(self, t: int, anchor: Optional[int], tags: tuple[str, str, str]):
        """Chase the request at the speed cap, landing on the anchor's request one step early.

        ``tags`` name the landed step, the landing step and the chase steps.
        """
        if t == anchor:
            return None, 0.0, tags[0]
        if anchor is not None and t == anchor - 1:
            return self.requests[t], self.speed_cap, tags[1]
        return self.requests[t - 1], self.speed_cap, tags[2]

    def find_termination(self, anchor: int):
        """First terminating event of the sequence starting at an anchor.

        Returns ("long"|"short", passing server, t2, t3) or None.  A
        short transition terminates the sequence only if its receiving
        server was at distance more than a third of the outer radius
        from the serving server at some earlier step of the sequence.
        """
        idx = self.anchors.index(anchor)
        seen_far: set[int] = set()
        updated_to = anchor - 1

        def update_far(until: int):
            nonlocal updated_to
            for s in range(updated_to + 1, until + 1):
                g = self.geo[s - 1]
                for j, p in enumerate(self.offline[s - 1]):
                    if math.dist(p, g.o_star_pos) > g.outer / 3.0:
                        seen_far.add(j)
            updated_to = until

        prev = anchor
        for nxt in self.anchors[idx + 1:]:
            update_far(prev)
            g1 = self.geo[prev - 1]
            if (nxt - prev) > g1.inner / self.params.mc + 2.0:
                return ("long", g1.o_star, prev, nxt)
            if self.geo[nxt - 1].o_star in seen_far:
                return ("short", g1.o_star, prev, nxt)
            prev = nxt
        return None

    def plan(self, t: int, anchor: Optional[int], o_hat: Point):
        """The plan that starts at step t, with the helper at o_hat.

        ``anchor`` is the anchor handed on by the plan that ended at
        step t - 1, if any.  Returns (engaged, last, hand_on, action):
        an engaged plan is the low-separation regime, which no other
        regime preempts; the plan runs to step ``last`` and then hands
        on the anchor ``hand_on``; ``action(s)`` gives the target, the
        speed and the mode tag of step s.
        """
        if self.geo[t - 1].d_oa < self.engage:
            # Low separation: chase the request until separation recovers.
            release = next((s for s in range(t, self.n + 1)
                            if self.geo[s - 1].d_oa >= 2.0 * self.engage), None)
            hand_on = release if release is not None and self.geo[release - 1].in_inner else None
            return True, release or self.n, hand_on, \
                lambda s: self.chase(s, release, ("step3",) * 3)
        if anchor is None and not self.geo[t - 1].in_inner:
            nxt = next((a for a in self.anchors if a >= t), None)
            return False, nxt or self.n, nxt, lambda s: self.chase(s, nxt, ("chase",) * 3)
        # One sequence of short transitions from the anchor, and its terminator.
        term = self.find_termination(t if anchor is None else anchor)
        if term is None:
            return False, self.n, None, \
                lambda s: (self.offline[s - 1][self.geo[s - 1].o_star], self.follow, "follow")
        kind, o_ell, t2, t3 = term
        if kind == "long":
            def action(s):
                if s <= t2:
                    return self.offline[s - 1][o_ell], self.follow, "follow-long"
                return self.chase(s, t3, ("long-land", "long-skip", "long-chase"))
            return False, t3, t3, action
        # Short transition: head straight for the receiving server's position
        # at t3 if that keeps the helper in every outer circle on the way,
        # else hold on a small circle around the passing server.
        target = self.offline[t3 - 1][self.geo[t3 - 1].o_star]
        direct, p = True, o_hat
        for s in range(t, t3 + 1):
            p = move_toward(p, target, self.follow)
            g = self.geo[s - 1]
            if math.dist(p, g.o_star_pos) > g.outer * (1.0 + REL_TOL):
                direct = False
                break

        def action(s):
            if direct:
                return target, self.follow, "circle-direct"
            center = self.offline[s - 1][o_ell]
            radius = 2.0 * self.params.delta / HOLD_CIRCLE_DIVISOR * min(
                math.dist(center, a) for a in self.online[s - 1])
            hold = move_toward(center, target, radius)
            # move_toward gives back the target itself when it is within the radius.
            return hold, self.follow, "circle-inside" if hold is target else "circle-hold"
        return False, t3, t3, action


def compute_helper(offline: Sequence[Config], online: Sequence[Config],
                   requests: Sequence[Point], params: ProblemParams,
                   sigma: float = 1.0, *, offline_start: Config) -> HelperTrajectory:
    """Offline helper trajectory for a full run.

    ``offline``/``online`` hold the end-of-step configurations; the
    helper starts on the server of ``offline_start`` nearest the first
    request.
    """
    check_dims(chain(requests, *offline, *online, offline_start), params.dim)
    ctx = _HelperContext(list(offline), list(online), list(requests), params, sigma)
    o_hat: Point = offline_start[nearest(offline_start, requests[0])[0]]
    start = o_hat
    positions: list[Point] = []
    modes: list[str] = []
    diagnostics: list[str] = []
    t, anchor = 1, None
    while t <= ctx.n:
        engaged, last, hand_on, action = ctx.plan(t, anchor, o_hat)
        anchor = None
        for t in range(t, last + 1):
            if not engaged and ctx.geo[t - 1].d_oa < ctx.engage:
                break  # preempted by the low-separation regime
            target, cap, tag = action(t)
            if target is not None:
                moved = move_toward(o_hat, target, cap)
                if tag in ("long-skip", "chase", "step3") and t == last - 1 \
                        and math.dist(moved, target) > REL_TOL * max(1.0, params.mc):
                    diagnostics.append(f"t={t}: landing target missed by "
                                       f"{math.dist(moved, target):.6g}")
                o_hat = moved
            positions.append(o_hat)
            modes.append(tag)
        else:
            t, anchor = last + 1, hand_on

    return HelperTrajectory(start=start, positions=positions, modes=modes,
                            geometry=ctx.geo, diagnostics=diagnostics)


@dataclass
class HelperAudit:
    steps: int
    guard_fired: int
    guard_vacuous: int
    speed_violations: int
    guard_speed_violations: int
    containment_violations: int
    distance_bound_violations: int
    max_speed: float
    speed_cap: float

    def ok(self) -> bool:
        return (self.speed_violations == 0 and self.guard_speed_violations == 0
                and self.containment_violations == 0)


def audit_helper(helper: HelperTrajectory, online: Sequence[Config],
                 requests: Sequence[Point], params: ProblemParams,
                 sigma: float = 1.0) -> HelperAudit:
    """Audit the helper's speed cap and guarded containment guarantees."""
    check_dims(chain((helper.start, *helper.positions), (g.o_star_pos for g in helper.geometry),
                     requests, *online), params.dim)
    cap = helper_speed_cap(params, sigma)
    follow = follow_speed(params)
    engage2 = 2.0 * engage_threshold(params, sigma)
    tol = REL_TOL
    fired = vacuous = 0
    speed_v = guard_speed_v = contain_v = dist_v = 0
    max_speed = 0.0
    prev = helper.start
    for t, (pos, geo) in enumerate(zip(helper.positions, helper.geometry), start=1):
        moved = math.dist(prev, pos)
        max_speed = max(max_speed, moved)
        if moved > cap * (1.0 + tol) + tol:
            speed_v += 1
        guard = geo.in_inner and geo.d_oa >= engage2
        if guard:
            fired += 1
            if moved > follow * (1.0 + tol) + tol:
                guard_speed_v += 1
            if math.dist(pos, geo.o_star_pos) > geo.outer * (1.0 + tol) + tol:
                contain_v += 1
        else:
            vacuous += 1
        conf = online[t - 1]
        bound = 2.0 * geo.d_oa + nearest(conf, requests[t - 1])[1]
        if nearest(conf, pos)[1] > bound * (1.0 + tol) + tol:
            dist_v += 1
        prev = pos
    return HelperAudit(steps=len(helper.positions), guard_fired=fired,
                       guard_vacuous=vacuous, speed_violations=speed_v,
                       guard_speed_violations=guard_speed_v,
                       containment_violations=contain_v,
                       distance_bound_violations=dist_v,
                       max_speed=max_speed, speed_cap=cap)
