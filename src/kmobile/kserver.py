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
    min_weight_matching,
    nearest,
    read_budget,
    total,
)

SIM_TAGS = ("greedy", "dc-line", "wfa", "pm-counter", "split-serve")

# Work-function tables are capped at this many configurations unless
# KMOB_BUDGET overrides it.
DEFAULT_WFA_CONFIGS = 25_000


class SimStep(NamedTuple):
    positions: Config
    serving: float
    movement: float


class GuidanceSimulator:
    """Base class; subclasses implement step() and keep self.positions current."""

    positions: Config

    def _start(self, start: Sequence[Point]) -> None:
        """Take the start positions; the first one's length is the dimension of all."""
        self.positions = tuple(start)
        self.dim = len(self.positions[0])
        check_dims(self.positions, self.dim)

    def step(self, r: Point) -> SimStep:
        raise NotImplementedError

    def settled(self, r: Point) -> bool:
        """Asked right after ``step(r)``, changing nothing: whether every further ``step(r)``
        would change nothing and return ``SimStep(self.positions, 0.0, 0.0)``.  No, here."""
        return False


class GreedyServer(GuidanceSimulator):
    """The nearest server (lowest index on ties) jumps onto the request."""

    def __init__(self, start: Sequence[Point]):
        self._start(start)

    def step(self, r: Point) -> SimStep:
        check_dims((r,), self.dim)
        i, d = nearest(self.positions, r)
        self.positions = self.positions[:i] + (r,) + self.positions[i + 1:]
        return SimStep(self.positions, 0.0, d)

    def settled(self, r: Point) -> bool:
        """Its nearest server the very request, each step puts r where it is."""
        return self.positions[nearest(self.positions, r)[0]] is r


class DoubleCoverageLine(GuidanceSimulator):
    """Double coverage on the line.

    A request outside the hull of the servers is served by the nearest
    server jumping onto it.  Inside the hull, the two flanking servers
    move toward the request by equal amounts until the nearer one
    reaches it.  Server order on the line is never changed.
    """

    def __init__(self, start: Sequence[Point]):
        if any(len(p) != 1 for p in start):
            raise InputError("double coverage requires dimension 1")
        self.positions = tuple(sorted(start))
        self._request: Optional[Point] = None

    def settled(self, r: Point) -> bool:
        """The very request of the last step moves nothing, bit for bit: that step left a
        server equal to x (g <= 0 moved nothing, so a further step is again a no-op).  Inside
        the hull that server makes g a zero; at a hull end it is x itself or a nonzero float
        (a float sum is zero only when exact), so it moves by +0.0 onto x's bits."""
        return r is self._request

    def step(self, r: Point) -> SimStep:
        if len(r) != 1:
            raise InputError("double coverage requires dimension 1")
        self._request = r
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

    A configuration (a sorted tuple of point indices) and a base (k - 1
    of them) each get an id in creation order: ``ids``, ``base_ids``.
    ``values[id]`` is a configuration's work-function value, and
    ``_values`` its numpy twin, equal bit for bit after every step.
    _intern grows, by one point, ``dmat[a][b] == math.dist(points[a], points[b])``,
    ``neighbours[base][p]``, the id of base plus point p, their numpy
    copies ``_dist`` and ``_nbr``, and per configuration and slot the
    base left when the slot is emptied (``_slot_base``) and its point
    (``_slot_point``).  numpy is imported by the methods that call it, so
    runs under other guidance never load it.
    """

    def __init__(self, start: Sequence[Point]):
        import numpy as np
        self.k = len(start)
        self.max_configs = read_budget(DEFAULT_WFA_CONFIGS)
        self._start(start)
        self.points: list[Point] = []
        self.index: dict[Point, int] = {}
        self.ids: dict[tuple[int, ...], int] = {}
        # With k = 1 the one base, (), holds no point.
        self.base_ids = {b: 0 for b in itertools.combinations_with_replacement((), self.k - 1)}
        self.dmat: list[list[float]] = []
        self.neighbours: list[list[int]] = [[] for _ in self.base_ids]
        self._dist = np.empty((0, 0))
        self._nbr = np.empty((len(self.base_ids), 0), dtype=np.intp)
        self._slot_base = self._slot_point = np.empty((0, self.k), dtype=np.intp)
        for p in dict.fromkeys(start):
            self._intern(p)
        self.values: list[float] = [
            min_weight_matching(start, tuple(self.points[i] for i in conf)).weight
            for conf in self.ids]
        self._values = np.array(self.values)

    def _intern(self, p: Point) -> None:
        """Add point p: its distances, and the configurations and bases holding it."""
        import numpy as np
        q = len(self.points)
        n = q + 1
        table = math.comb(n + self.k - 1, self.k)
        if table > self.max_configs:
            raise ResourceBudgetError(f"work-function table would need {table} "
                                      f"configurations (budget {self.max_configs})")
        self.index[p] = q
        self.points.append(p)
        # math.dist(a, b) == math.dist(b, a) bit for bit: it measures |a_i - b_i|.
        dist = [math.dist(p, b) for b in self.points]
        for row, d in zip(self.dmat, dist):
            row.append(d)
        self.dmat.append(dist)
        grown = np.empty((n, n))
        grown[:q, :q] = self._dist
        grown[q] = grown[:, q] = dist
        self._dist = grown
        # The configurations and bases holding q end in q, which sorts last.
        ids, base_ids, k = self.ids, self.base_ids, self.k
        new = [base + (q,) for base in itertools.combinations_with_replacement(range(n), k - 1)]
        for conf in new:
            ids[conf] = len(ids)
        old = len(base_ids)
        for base, keys in zip(base_ids, self.neighbours):
            keys.append(ids[base + (q,)])
        for base in [conf[:-1] for conf in new if q in conf[:-1]]:
            base_ids[base] = len(base_ids)
            self.neighbours.append([ids[tuple(sorted(base + (x,)))] for x in range(n)])
        grown = np.empty((len(base_ids), n), dtype=np.intp)
        grown[:old, :q] = self._nbr
        grown[:old, q] = [keys[q] for keys in self.neighbours[:old]]
        grown[old:] = np.reshape(self.neighbours[old:], (-1, n))
        self._nbr = grown
        slot_base = [[base_ids[conf[:s] + conf[s + 1:]] for s in range(k)] for conf in new]
        self._slot_base = np.concatenate([self._slot_base, slot_base])
        self._slot_point = np.concatenate([self._slot_point, new])

    def _extend_table(self) -> None:
        """Give values to the configurations _intern just added.

        Values come from single-server relocation relaxed to a fixed
        point, which realizes the optimal matching distance from the
        previously known configurations.  Each pass relaxes every new
        configuration, in creation order, from conf - x + p over its
        distinct slots x and then every point p, in that order, with a
        strict 1e-15 margin and updates applied in place.

        A pass changes no value until some candidate beats its
        configuration's value at the start of the pass, so one numpy test
        of every candidate against those values tells whether the next
        pass would change anything; the relaxation stops where it would not.
        Old values never change here, so the test reads them from
        ``_values`` and converts only the new ones.
        The first pass reads only points p before x: neighbour ids rise
        with p to conf's own at p = x, and ids from there on read inf.
        """
        import numpy as np
        values = self.values
        lo = len(values)
        confs, bases = self._slot_point[lo:], self._slot_base[lo:]
        values.extend([math.inf] * len(confs))
        plan = [(cid, [(self.neighbours[base], self.dmat[x], x)
                       for s, (base, x) in enumerate(zip(bs, conf)) if s == 0 or conf[s - 1] != x])
                for cid, conf, bs in zip(range(lo, len(values)), confs.tolist(), bases.tolist())]
        others, dists = self._nbr[bases], self._dist[confs]
        first = True
        while True:
            for cid, slots in plan:
                best = values[cid]
                bar = best - 1e-15
                for keys, row, x in slots:
                    for other, d in zip(keys[:x] if first else keys, row):
                        cand = values[other] + d
                        if cand < bar:
                            best = cand
                            bar = cand - 1e-15
                values[cid] = best
            now = np.concatenate((self._values, values[lo:]))
            if not (now[others] + dists < (now[lo:] - 1e-15)[:, None, None]).any():
                self._values = now
                return
            first = False

    def step(self, r: Point) -> SimStep:
        check_dims((r,), self.dim)
        if r not in self.index:
            self._intern(r)
            self._extend_table()
        ri = self.index[r]
        # Serve update: end in conf after one server visited r, the least
        # over its slots x of value(conf - x + r) + d(x, r).  The numpy
        # minimum is exact: a repeated slot repeats its sum, and no sum is
        # NaN or -0.0.
        via = self._values[self._nbr[:, ri]]
        self._values = (via[self._slot_base] + self._dist[ri][self._slot_point]).min(axis=1)
        self.values = self._values.tolist()
        # Move rule: relocate onto r the server that minimizes work-function
        # value plus movement, then the resulting configuration, then its index.
        cur = self.positions

        def move_cost(i: int) -> tuple[float, Config]:
            rest = [x for j, x in enumerate(cur) if j != i]
            conf = tuple(sorted([self.index[x] for x in rest] + [ri]))
            return self.values[self.ids[conf]] + math.dist(cur[i], r), tuple(sorted(rest + [r]))

        i = min(range(self.k), key=move_cost)
        self.positions = cur[:i] + (r,) + cur[i + 1:]
        return SimStep(self.positions, 0.0, math.dist(cur[i], r))


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
        self._start(start)
        self.D = D
        self.credits = [0.0] * len(start)

    def step(self, r: Point) -> SimStep:
        # Checked once here, then measured with math.dist.
        check_dims((r,), self.dim)
        i, d = nearest(self.positions, r)
        self.credits[i] += d
        if d > 0.0 and self.credits[i] >= 2.0 * self.D * d:
            self.positions = self.positions[:i] + (r,) + self.positions[i + 1:]
            self.credits[i] = 0.0
            # The page now on r serves it; the others are at least d away.
            return SimStep(self.positions, 0.0, d)
        return SimStep(self.positions, d, 0.0)

    def settled(self, r: Point) -> bool:
        """A page on r serves each step for nothing, adds no credit and stays."""
        return nearest(self.positions, r)[1] == 0.0


class SplitServeLine(GuidanceSimulator):
    """Two-phase line strategy: one server chases a rising request stream,
    a second server takes over as soon as the stream stops rising.

    Needs k >= 2 and dimension 1.  It is the guidance used to exhibit
    the weakness of matching-only mobile-server algorithms.
    """

    def __init__(self, start: Sequence[Point]):
        if len(start) < 2:
            raise InputError("split-serve needs at least two servers")
        if any(len(p) != 1 for p in start):
            raise InputError("split-serve requires dimension 1")
        self.positions = tuple(start)
        self.prev_request: Optional[Point] = None
        self.second_phase = False

    def step(self, r: Point) -> SimStep:
        check_dims((r,), 1)
        if self.prev_request is not None and r[0] <= self.prev_request[0]:
            self.second_phase = True
        i = 1 if self.second_phase else 0
        moved = math.dist(self.positions[i], r)
        self.positions = self.positions[:i] + (r,) + self.positions[i + 1:]
        self.prev_request = r
        return SimStep(self.positions, 0.0, moved)

    def settled(self, r: Point) -> bool:
        """In the second phase server 1 is the last request; if it is r, each step stays."""
        return self.second_phase and self.positions[1] is r


class ScriptedSimulator(GuidanceSimulator):
    """Replays a fixed list of configurations (testing hook)."""

    def __init__(self, start: Sequence[Point], script: Sequence[Sequence[Point]]):
        self._start(start)
        self.script = [tuple(conf) for conf in script]
        self.t = 0

    def step(self, r: Point) -> SimStep:
        if self.t >= len(self.script):
            raise InputError("scripted simulator ran out of steps")
        new = self.script[self.t]
        # A scripted configuration enters the run at its step.
        check_dims((r, *new), self.dim)
        movement = total(map(math.dist, self.positions, new))
        self.positions = new
        self.t += 1
        return SimStep(new, min(math.dist(p, r) for p in new), movement)


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
    return "wfa" if table <= read_budget(DEFAULT_WFA_CONFIGS) else "greedy"


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
