"""Simulated guidance algorithms with a uniform step interface.

A guidance simulator owns k positions and consumes one request per
step.  k-server strategies (greedy, double coverage on the line, work
function) always finish a step with a server on the request;
page-migration strategies may serve over a distance.
"""
from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple, Optional, Sequence

from kmobile.core import (
    Config,
    InputError,
    Point,
    ProblemParams,
    ResourceBudgetError,
    check_dims,
    distance,
    min_weight_matching,
    read_budget,
)

SIM_TAGS = ("greedy", "dc-line", "wfa", "pm-counter", "split-serve")

# Work-function tables are capped at this many configurations unless
# KMOB_BUDGET overrides it.
DEFAULT_WFA_CONFIGS = 25_000


def wfa_config_budget() -> int:
    budget = read_budget()
    return DEFAULT_WFA_CONFIGS if budget is None else budget


class SimStep(NamedTuple):
    positions: Config
    serving: float
    movement: float


class GuidanceSimulator:
    """Base class; subclasses implement step() and keep self.positions current."""

    positions: Config

    def step(self, r: Point) -> SimStep:
        raise NotImplementedError


class GreedyServer(GuidanceSimulator):
    """The nearest server (lowest index on ties) jumps onto the request."""

    def __init__(self, start: Sequence[Point]):
        self.positions = tuple(start)

    def step(self, r: Point) -> SimStep:
        dists = [distance(p, r) for p in self.positions]
        i = dists.index(min(dists))
        moved = dists[i]
        pos = list(self.positions)
        pos[i] = r
        self.positions = tuple(pos)
        return SimStep(self.positions, 0.0, moved)


class DoubleCoverageLine(GuidanceSimulator):
    """Double coverage on the line.

    A request outside the hull of the servers is served by the nearest
    server jumping onto it.  Inside the hull, the two flanking servers
    move toward the request by equal amounts until the nearer one
    reaches it.  Server order on the line is never changed.
    """

    def __init__(self, start: Sequence[Point]):
        for p in start:
            if len(p) != 1:
                raise InputError("double coverage requires dimension 1")
        self.positions = tuple(sorted(start))

    def step(self, r: Point) -> SimStep:
        if len(r) != 1:
            raise InputError("double coverage requires dimension 1")
        x = r[0]
        pos = [p[0] for p in self.positions]
        moved = 0.0
        if x <= pos[0]:
            moved = pos[0] - x
            pos[0] = x
        elif x >= pos[-1]:
            moved = x - pos[-1]
            pos[-1] = x
        else:
            i_right = bisect.bisect_left(pos, x)
            i_left = i_right - 1
            gap_l = x - pos[i_left]
            gap_r = pos[i_right] - x
            g = min(gap_l, gap_r)
            if g > 0.0:
                pos[i_left] = x if gap_l == g else pos[i_left] + g
                pos[i_right] = x if gap_r == g else pos[i_right] - g
                moved = 2.0 * g
        self.positions = tuple((p,) for p in pos)
        return SimStep(self.positions, 0.0, moved)


class WorkFunctionServer(GuidanceSimulator):
    """Work-function algorithm over the observed request points.

    Configurations are restricted to multisets of the start positions
    and the requests seen so far, which keeps the work function
    computable at desk scale.  Ties in the move rule are broken by the
    lexicographically smallest resulting configuration.
    """

    def __init__(self, start: Sequence[Point], max_configs: Optional[int] = None):
        self.k = len(start)
        self.max_configs = max_configs if max_configs is not None else wfa_config_budget()
        self.points: list[Point] = []
        self.index: dict[Point, int] = {}
        # Grown by _intern: dmat[a][b] == distance(points[a], points[b]),
        # and neighbours[base][p] == tuple(sorted(base + (p,))) for every
        # sorted base of k - 1 point indices.
        self.dmat: list[list[float]] = []
        self.neighbours: dict[tuple[int, ...], list[tuple[int, ...]]] = {
            base: [] for base in itertools.combinations_with_replacement((), self.k - 1)}
        for p in start:
            self._intern(p)
        self.positions = tuple(start)
        self.values: dict[tuple[int, ...], float] = {}
        for conf in itertools.combinations_with_replacement(range(len(self.points)), self.k):
            pts = tuple(self.points[i] for i in conf)
            self.values[conf] = min_weight_matching(start, pts).weight

    def _intern(self, p: Point) -> int:
        if p not in self.index:
            for a, row in zip(self.points, self.dmat):
                row.append(distance(a, p))
            self.index[p] = len(self.points)
            self.points.append(p)
            self.dmat.append([distance(p, b) for b in self.points])
            q = len(self.points) - 1
            for base, keys in self.neighbours.items():
                keys.append(tuple(sorted(base + (q,))))
            for base in itertools.combinations_with_replacement(range(q + 1), self.k - 1):
                if q in base:
                    self.neighbours[base] = [tuple(sorted(base + (x,))) for x in range(q + 1)]
        return self.index[p]

    def _extend_table(self, q: int) -> None:
        """Admit configurations containing the new point q.

        Values come from single-server relocation relaxed to a fixed
        point, which realizes the optimal matching distance from the
        previously known configurations.  Each pass relaxes every new
        configuration from conf - x + p over its distinct slots x and
        then every point p, in that order, with a strict 1e-15 margin
        and updates applied in place.  The keys conf - x + p come from
        ``neighbours`` and the distances d(x, p) from ``dmat``; _intern
        grows both by one point, so no key is sorted and no distance
        computed inside the relaxation.
        """
        n = len(self.points)
        values = self.values
        pending = [conf for conf in itertools.combinations_with_replacement(range(n), self.k)
                   if q in conf]
        for conf in pending:
            values[conf] = math.inf
        plan = [(conf, [(self.neighbours[conf[:slot] + conf[slot + 1:]], self.dmat[x])
                        for slot, x in enumerate(conf) if slot == 0 or conf[slot - 1] != x])
                for conf in pending]
        changed = True
        while changed:
            changed = False
            for conf, slots in plan:
                best = values[conf]
                for keys, row in slots:
                    for other, d in zip(keys, row):
                        cand = values[other] + d
                        if cand < best - 1e-15:
                            best = cand
                            changed = True
                values[conf] = best

    def step(self, r: Point) -> SimStep:
        if r not in self.index:
            n_next = len(self.points) + 1
            table = math.comb(n_next + self.k - 1, self.k)
            if table > self.max_configs:
                raise ResourceBudgetError(
                    f"work-function table would need {table} configurations "
                    f"(budget {self.max_configs})")
            q = self._intern(r)
            self._extend_table(q)
        ri = self.index[r]
        dist_r = self.dmat[ri]
        # Serve update: end in conf after one server visited r, read
        # once per distinct base conf - x.
        via = {base: self.values[keys[ri]] for base, keys in self.neighbours.items()}
        new_values: dict[tuple[int, ...], float] = {}
        for conf in self.values:
            best = math.inf
            for slot, x in enumerate(conf):
                if slot > 0 and conf[slot - 1] == x:
                    continue
                cand = via[conf[:slot] + conf[slot + 1:]] + dist_r[x]
                if cand < best:
                    best = cand
            new_values[conf] = best
        self.values = new_values
        # Move rule: pick the server whose relocation onto r minimizes
        # work-function value plus movement.
        cur = list(self.positions)
        candidates = []
        for i, p in enumerate(cur):
            conf = tuple(sorted(self.index[x] for j, x in enumerate(cur) if j != i))
            conf = tuple(sorted(conf + (ri,)))
            val = self.values[conf] + distance(p, r)
            result = tuple(sorted(r if j == i else x for j, x in enumerate(cur)))
            candidates.append((val, result, i))
        val, _, i = min(candidates, key=lambda c: (c[0], c[1]))
        moved = distance(cur[i], r)
        cur[i] = r
        self.positions = tuple(cur)
        return SimStep(self.positions, 0.0, moved)


class PageMigrationCounter(GuidanceSimulator):
    """Deterministic k-page-migration heuristic with per-page credits.

    The nearest page serves each request and accrues the serving
    distance as credit; once its credit reaches twice the weighted
    serving distance it migrates onto the request and the credit
    resets.
    """

    def __init__(self, start: Sequence[Point], D: float):
        if D < 1.0:
            raise InputError("page migration needs D >= 1")
        self.positions = tuple(start)
        self.dim = len(self.positions[0])
        check_dims(self.positions, self.dim)
        self.D = D
        self.credits = [0.0] * len(start)

    def step(self, r: Point) -> SimStep:
        # Checked once here, then measured with math.dist.
        check_dims((r,), self.dim)
        dists = [math.dist(p, r) for p in self.positions]
        i = dists.index(min(dists))
        d = dists[i]
        self.credits[i] += d
        if d > 0.0 and self.credits[i] >= 2.0 * self.D * d:
            pos = list(self.positions)
            pos[i] = r
            self.positions = tuple(pos)
            self.credits[i] = 0.0
            # The page now on r serves it; the others are at least d away.
            return SimStep(self.positions, 0.0, d)
        return SimStep(self.positions, d, 0.0)


class SplitServeLine(GuidanceSimulator):
    """Two-phase line strategy: one server chases a rising request stream,
    a second server takes over as soon as the stream stops rising.

    Needs k >= 2 and dimension 1.  It is the guidance used to exhibit
    the weakness of matching-only mobile-server algorithms.
    """

    def __init__(self, start: Sequence[Point]):
        if len(start) < 2:
            raise InputError("split-serve needs at least two servers")
        for p in start:
            if len(p) != 1:
                raise InputError("split-serve requires dimension 1")
        self.positions = tuple(start)
        self.prev_request: Optional[Point] = None
        self.second_phase = False

    def step(self, r: Point) -> SimStep:
        if self.prev_request is not None and r[0] <= self.prev_request[0]:
            self.second_phase = True
        server = 1 if self.second_phase else 0
        pos = list(self.positions)
        moved = distance(pos[server], r)
        pos[server] = r
        self.positions = tuple(pos)
        self.prev_request = r
        return SimStep(self.positions, 0.0, moved)


class ScriptedSimulator(GuidanceSimulator):
    """Replays a fixed list of configurations (testing hook)."""

    def __init__(self, start: Sequence[Point], script: Sequence[Sequence[Point]]):
        self.positions = tuple(start)
        self.script = [tuple(conf) for conf in script]
        self.t = 0

    def step(self, r: Point) -> SimStep:
        if self.t >= len(self.script):
            raise InputError("scripted simulator ran out of steps")
        new = self.script[self.t]
        movement = sum(distance(a, b) for a, b in zip(self.positions, new))
        self.positions = new
        self.t += 1
        return SimStep(new, min(distance(p, r) for p in new), movement)


def default_sim_tag(algo: str, params: ProblemParams, n: int) -> str:
    """Pick the default guidance for an algorithm and instance size.

    k-server guidance: double coverage on the line, work function in
    higher dimension while its table fits the budget, greedy otherwise.
    WMS always gets the page-migration heuristic.
    """
    if algo == "wms":
        return "pm-counter"
    if params.dim == 1:
        return "dc-line"
    table = math.comb(n + params.k + params.k - 1, params.k)
    if table <= wfa_config_budget():
        return "wfa"
    return "greedy"


def make_simulator(tag: str, start: Sequence[Point], params: ProblemParams) -> GuidanceSimulator:
    if tag == "greedy":
        return GreedyServer(start)
    if tag == "dc-line":
        return DoubleCoverageLine(start)
    if tag == "wfa":
        return WorkFunctionServer(start)
    if tag == "pm-counter":
        return PageMigrationCounter(start, params.D)
    if tag == "split-serve":
        return SplitServeLine(start)
    raise InputError(f"unknown simulator tag {tag!r} (expected one of {SIM_TAGS})")
