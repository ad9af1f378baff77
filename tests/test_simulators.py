import itertools
import math
import random

import numpy as np
import pytest

from kmobile.core import (
    InputError,
    ProblemParams,
    ResourceBudgetError,
    Trace,
    min_weight_matching,
    nearest,
    total,
)
from kmobile.kserver import (
    DoubleCoverageLine,
    GreedyServer,
    PageMigrationCounter,
    ScriptedSimulator,
    SimStep,
    SplitServeLine,
    WorkFunctionServer,
    default_sim_tag,
    make_simulator,
)
from kmobile.mobile import run


class TestGreedy:
    def test_nearest_jumps(self):
        g = GreedyServer([(0.0,), (10.0,)])
        step = g.step((3.0,))
        assert step.positions == ((3.0,), (10.0,))
        assert step.movement == 3.0

    def test_already_on_request(self):
        g = GreedyServer([(5.0,), (9.0,)])
        assert g.step((5.0,)).movement == 0.0

    def test_tie_breaks_to_lowest_index(self):
        g = GreedyServer([(-1.0,), (1.0,)])
        assert g.step((0.0,)).positions == ((0.0,), (1.0,))

    def test_repeats_only_once_its_nearest_server_is_the_request_object(self):
        g = GreedyServer([(-0.0,), (5.0,)])
        r = (0.0,)
        assert not g.settled(r)  # a step would place r's bits
        g.step(r)
        assert g.settled(r) and g.step(r) == SimStep(g.positions, 0.0, 0.0)


class TestDoubleCoverage:
    def test_inside_hull_both_flanks_move(self):
        dc = DoubleCoverageLine([(0.0,), (10.0,)])
        step = dc.step((4.0,))
        assert step.positions == ((4.0,), (6.0,))
        assert step.movement == 8.0
        assert step.serving == 0.0

    def test_outside_hull_jump(self):
        dc = DoubleCoverageLine([(0.0,), (10.0,)])
        step = dc.step((12.0,))
        assert step.positions == ((0.0,), (12.0,))
        assert step.movement == 2.0

    def test_all_on_request(self):
        dc = DoubleCoverageLine([(5.0,), (5.0,)])
        assert dc.step((5.0,)).movement == 0.0

    def test_rejects_higher_dimension(self):
        with pytest.raises(InputError):
            DoubleCoverageLine([(0.0, 0.0)])

    def test_never_reorders(self):
        rng = random.Random(11)
        dc = DoubleCoverageLine([(float(i),) for i in range(4)])
        for _ in range(200):
            dc.step((rng.uniform(-10, 10),))
            xs = [p[0] for p in dc.positions]
            assert xs == sorted(xs)

    def test_serves_exactly(self):
        rng = random.Random(5)
        dc = DoubleCoverageLine([(-3.0,), (8.0,)])
        for _ in range(100):
            r = (rng.uniform(-20, 20),)
            step = dc.step(r)
            assert min(math.dist(p, r) for p in step.positions) == 0.0

    def test_repeated_request_object_hands_on_the_same_positions(self):
        dc = DoubleCoverageLine([(0.0,), (10.0,)])
        r = (4.0,)
        first = dc.step(r)
        assert dc.settled(r)
        again = dc.step(r)
        assert again.positions == first.positions
        assert (again.serving.hex(), again.movement.hex()) == ("0x0.0p+0", "0x0.0p+0")
        # An equal request in a new tuple is not the last request object.
        assert not dc.settled(tuple([4.0]))
        assert dc.step(tuple([4.0])).positions == first.positions


    @staticmethod
    def least_bound_margin(start, requests, sim):
        """The least relative margin, over the prefixes of a run under the guidance ``sim``
        (a tag or a simulator), of its cost under double coverage's bound
        k * OPT_t + sum_{i<j} |s_i - s_j|.

        Double coverage is k-competitive on the line (Chrobak, Karloff, Payne &
        Vishwanathan 1991); the potential of Chrobak & Larmore (1991), k times the
        matching to the offline servers plus the servers' pairwise distances, starts at
        the sum over the start and gives the bound at every prefix.  OPT_t is the least
        work-function value after t requests.
        """
        jump = max(map(math.dist, requests, requests[1:]), default=0.0)
        params = ProblemParams(k=len(start), ms=1.0, mc=max(jump, 1.0), delta=0.5)
        reports = run(Trace(requests, tuple(start)), params, sim=sim, project="off").reports
        spread = total(math.dist(a, b) for a, b in itertools.combinations(start, 2))
        wfa, cost, margins = WorkFunctionServer(start), 0.0, []
        for rep, r in zip(reports, requests):
            wfa.step(r)
            cost += rep.sim_cost
            bound = len(start) * min(wfa.values) + spread
            margins.append((bound - cost) / bound)
        return min(margins)

    def test_holds_its_classic_bound_at_every_prefix(self):
        start, alternating = [(0.0,), (10.0,)], [(4.0,), (6.0,)] * 15
        assert self.least_bound_margin(start, alternating, "dc-line") > 0.0
        # Greedy guidance breaks the bound there: it moves one server to and fro.  So
        # does double coverage with a planted fault.
        assert self.least_bound_margin(start, alternating, "greedy") < 0.0
        assert self.least_bound_margin(start, alternating, NearerFlankOnly(start)) < 0.0
        for seed in range(40):
            rng = random.Random(seed)
            start = [(float(x),) for x in rng.sample(range(-10, 11), 2 + seed % 2)]
            requests, x = [], 0.0
            for _ in range(rng.randint(20, 40)):
                x += rng.uniform(-3.0, 3.0)
                requests += [(x,)] * rng.choice((1, 1, 2, 5))  # runs of one request object
            assert self.least_bound_margin(start, requests, "dc-line") > 0.0, seed


class NearerFlankOnly(DoubleCoverageLine):
    """Double coverage with a planted fault: inside the hull only the nearer flank moves,
    onto the request."""

    def step(self, r):
        xs = [p[0] for p in self.positions]
        if not xs[0] < r[0] < xs[-1]:
            return super().step(r)
        self._request = r
        i, d = nearest(self.positions, r)
        self.positions = self.positions[:i] + (r,) + self.positions[i + 1:]
        return SimStep(self.positions, 0.0, d)


def settled_cases():
    """Guidance that can be settled, each with a pool of line requests."""
    zeros = [(0.0,), (-0.0,), (0.0,)]
    pool = zeros + [(1.0,), (-1.0,), (0.1,), (0.3,), (0.7,), (2.5,), (-2.5,), (1e-300,),
                    (-1e-300,)]
    yield pytest.param(DoubleCoverageLine, pool, id="dc-line")
    yield pytest.param(GreedyServer, pool, id="greedy")
    yield pytest.param(lambda start: PageMigrationCounter(start, 1.5), pool, id="pm-counter")
    # Split-serve needs two servers; a falling stream keeps it in its second phase.
    yield pytest.param(lambda start: SplitServeLine(start + [(0.5,)]), pool, id="split-serve")


def hex_bits(value):
    """Floats spelled by float.hex, through tuples and lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(map(hex_bits, value))
    return value


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("make,pool", settled_cases())
def test_repeats_equal_full_steps_bit_for_bit(make, pool, seed):
    # Request objects recur, in blocks and apart, with zeros of both signs,
    # values at hull ends, inside with a zero gap and inside with rounding.
    rng = random.Random(seed)
    start = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
    sim, ref = make(start), make(start)

    def state(s):
        """Positions, credits, the last request and the phase, floats spelled by float.hex."""
        return hex_bits(list(vars(s).items()))

    settled = 0
    for _ in range(300):
        r, n = rng.choice(pool), rng.randrange(1, 4)
        assert hex_bits(sim.step(r)) == hex_bits(ref.step(r))
        before = state(sim)
        answer = sim.settled(r)
        assert state(sim) == before  # asking changes nothing
        if answer:
            # Each further step changes nothing and costs nothing.
            settled += 1
            free = hex_bits(SimStep(sim.positions, 0.0, 0.0))
            assert all(hex_bits(ref.step(r)) == free for _ in range(n))
        else:
            assert hex_bits([sim.step(r) for _ in range(n)]) == hex_bits(
                [ref.step(r) for _ in range(n)])
        assert state(sim) == state(ref)
    assert settled > 50


def brute_wfa_tables(start, requests):
    """Full-recomputation work-function reference over all observed points."""
    pts = list(dict.fromkeys(list(start) + list(requests)))
    k = len(start)
    confs = list(itertools.combinations_with_replacement(range(len(pts)), k))
    w = {c: min_weight_matching(list(start), [pts[i] for i in c]).weight for c in confs}
    tables = []
    for r in requests:
        ri = pts.index(r)
        w = {c: min(w[tuple(sorted(c[:s] + c[s + 1:] + (ri,)))] + math.dist(r, pts[c[s]])
                    for s in range(k)) for c in confs}
        tables.append(dict(w))
    return pts, tables


class FixedPointWFA:
    """Reference work function, independent of WorkFunctionServer: values
    in a dict keyed by sorted configuration, neighbour keys sorted and
    distances recomputed on every pass, the serve update read per
    (conf, slot)."""

    def __init__(self, start):
        self.k = len(start)
        self.points = []
        self.index = {}
        for p in start:
            self._intern(p)
        self.positions = tuple(start)
        self.values = {}
        for conf in itertools.combinations_with_replacement(range(len(self.points)), self.k):
            pts = tuple(self.points[i] for i in conf)
            self.values[conf] = min_weight_matching(start, pts).weight

    def _intern(self, p):
        if p not in self.index:
            self.index[p] = len(self.points)
            self.points.append(p)
        return self.index[p]

    def _extend_table(self, q):
        n = len(self.points)
        pending = [conf for conf in itertools.combinations_with_replacement(range(n), self.k)
                   if q in conf]
        for conf in pending:
            self.values[conf] = math.inf
        dmat = [[math.dist(a, b) for b in self.points] for a in self.points]
        changed = True
        while changed:
            changed = False
            for conf in pending:
                best = self.values[conf]
                for slot, x in enumerate(conf):
                    if slot > 0 and conf[slot - 1] == x:
                        continue
                    base = conf[:slot] + conf[slot + 1:]
                    row = dmat[x]
                    for p in range(n):
                        other = tuple(sorted(base + (p,)))
                        cand = self.values.get(other, math.inf) + row[p]
                        if cand < best - 1e-15:
                            best = cand
                            changed = True
                self.values[conf] = best

    def step(self, r):
        if r not in self.index:
            self._extend_table(self._intern(r))
        ri = self.index[r]
        dist_r = [math.dist(r, p) for p in self.points]
        new_values = {}
        for conf in self.values:
            best = math.inf
            for slot, x in enumerate(conf):
                if slot > 0 and conf[slot - 1] == x:
                    continue
                via = tuple(sorted(conf[:slot] + conf[slot + 1:] + (ri,)))
                cand = self.values[via] + dist_r[x]
                if cand < best:
                    best = cand
            new_values[conf] = best
        self.values = new_values
        cur = list(self.positions)
        candidates = []
        for i, p in enumerate(cur):
            conf = tuple(sorted(self.index[x] for j, x in enumerate(cur) if j != i))
            conf = tuple(sorted(conf + (ri,)))
            val = self.values[conf] + math.dist(p, r)
            result = tuple(sorted(r if j == i else x for j, x in enumerate(cur)))
            candidates.append((val, result, i))
        val, _, i = min(candidates, key=lambda c: (c[0], c[1]))
        moved = math.dist(cur[i], r)
        cur[i] = r
        self.positions = tuple(cur)
        return SimStep(self.positions, 0.0, moved)


class CopyCountWFA(FixedPointWFA):
    """Reference for WorkFunctionServer's table, in plain Python over the same
    dict: a configuration holding m copies of the new point q is closed, in
    order of m, as the least over old points p of the value with one copy of
    q moved to p, plus d(q, p)."""

    def _extend_table(self, q):
        new = [conf for conf in itertools.combinations_with_replacement(range(q + 1), self.k)
               if q in conf]
        for conf in sorted(new, key=lambda conf: conf.count(q)):
            rest = conf[:-1]  # q sorts last
            self.values[conf] = min(self.values[tuple(sorted(rest + (p,)))]
                                    + math.dist(self.points[q], self.points[p])
                                    for p in range(q))


def hex_table(wfa):
    """Every configuration's value as float.hex, keyed by sorted configuration."""
    if isinstance(wfa, FixedPointWFA):
        return {conf: val.hex() for conf, val in wfa.values.items()}
    return {conf: wfa.values[i].hex() for conf, i in wfa.ids.items()}


def assert_same_walk(start, requests, trial):
    """WorkFunctionServer takes every step the fixed-point reference takes,
    and after every step each configuration's value is within 8 ulps of
    that reference's and, bit for bit, the copy-count reference's.  The
    values are one float64 array, whether or not the step added a point."""
    fast, ref, same = (make(list(start)) for make in (WorkFunctionServer, FixedPointWFA,
                                                       CopyCountWFA))
    assert hex_table(fast) == hex_table(ref) == hex_table(same), trial
    for r in requests:
        assert fast.step(r) == ref.step(r) == same.step(r), trial
        assert hex_table(fast) == hex_table(same), trial
        for conf, val in ref.values.items():
            got = fast.values[fast.ids[conf]]
            assert abs(got - val) <= 8 * math.ulp(max(got, val)), (trial, conf)
        assert type(fast.values) is np.ndarray, trial
        assert fast.values.dtype == np.float64 and fast.values.shape == (len(fast.ids),), trial


def kserver_lower_bound(trace):
    """Half the k-server optimum of the trace: a lower bound on any mobile
    schedule's cost when D >= 1/2, in any dimension.  Let a mobile
    schedule's serving server visit each request and come back: that is a
    k-server schedule of cost movement + 2 serving <= 2 (serving + D movement).
    The k-server optimum is the least work-function value after the last
    request."""
    wfa = WorkFunctionServer(trace.start_config)
    for r in trace.requests:
        wfa.step(r)
    return float(wfa.values.min()) / 2.0


def planar_walk(rng, n, mc):
    """Local random walk from the origin with every step at most mc long."""
    cur = (0.0, 0.0)
    out = [cur]
    for _ in range(n - 1):
        angle, length = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, mc)
        cur = (cur[0] + length * math.cos(angle), cur[1] + length * math.sin(angle))
        out.append(cur)
    return out


class TestWorkFunction:
    def test_single_server_follows_requests(self):
        w = WorkFunctionServer([(0.0,)])
        step = w.step((2.0,))
        assert step.positions == ((2.0,),)
        assert step.movement == 2.0

    def test_repeated_request_costs_nothing(self):
        w = WorkFunctionServer([(0.0,), (4.0,)])
        w.step((1.0,))
        assert w.step((1.0,)).movement == 0.0

    def test_equals_greedy_for_k1(self):
        rng = random.Random(2)
        w = WorkFunctionServer([(0.0, 0.0)])
        g = GreedyServer([(0.0, 0.0)])
        for _ in range(20):
            r = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert w.step(r) == g.step(r)

    def test_tables_match_brute_force(self):
        # Only k >= 3 closes configurations holding three or more copies of a
        # new point.
        rng = random.Random(42)
        for trial in range(50):
            k = rng.choice([1, 2]) if trial < 10 else 3 + trial % 2
            start = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(k)]
            pool = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
            requests = [pool[rng.randrange(3)] for _ in range(6)]
            wfa = WorkFunctionServer(list(start))
            pts, tables = brute_wfa_tables(start, requests)
            for t, r in enumerate(requests):
                wfa.step(r)
                seen = set(start) | set(requests[:t + 1])
                for conf, val in tables[t].items():
                    conf_pts = [pts[i] for i in conf]
                    if not all(p in seen for p in conf_pts):
                        continue
                    key = tuple(sorted(wfa.index[p] for p in conf_pts))
                    assert abs(wfa.values[wfa.ids[key]] - val) < 1e-9, trial

    def test_matches_fixed_point_reference_bit_for_bit(self):
        rng = random.Random(17)
        for trial in range(120):
            k = 1 + trial % 3
            dim = 1 + trial // 3 % 2
            if trial % 2:  # integer grid: many equal distances and ties
                draw = lambda: tuple(float(rng.randint(-3, 3)) for _ in range(dim))
            else:
                draw = lambda: tuple(rng.uniform(-3, 3) for _ in range(dim))
            start = [draw()] * k if rng.random() < 0.5 else [draw() for _ in range(k)]
            pool = [draw() for _ in range(rng.randint(2, 10 - 2 * k))]
            requests = [rng.choice(pool) for _ in range(rng.randint(4, 12))]
            assert_same_walk(start, requests, trial)

    def test_bench_size_walks_match_reference_bit_for_bit(self):
        # Planar walks as long as the benchmark's, 56 steps at k=2 and 20 at
        # k=3, from co-located start servers and from distinct ones.
        rng = random.Random(23)
        for trial, (k, steps) in enumerate(((2, 56), (2, 56), (3, 20), (3, 20))):
            requests = planar_walk(rng, steps, 1.2)
            start = [requests[0]] * k if trial % 2 == 0 else requests[:k]
            assert_same_walk(start, requests, trial)

    def test_neighbour_and_slot_ids_index_the_table(self):
        # A new configuration is closed from the base its last slot leaves and
        # that base's neighbours, and the serve update reads every slot's.
        rng = random.Random(31)
        for trial in range(12):
            k, dim = 1 + trial % 3, 1 + trial // 3 % 2
            draw = lambda: tuple(float(rng.randint(-3, 3)) for _ in range(dim))
            start = [draw()] * k if trial % 2 else [draw() for _ in range(k)]
            wfa = WorkFunctionServer(start)
            for _ in range(12 - 2 * k):
                wfa.step(draw())
                n = len(wfa.points)
                assert wfa._nbr.shape == (len(wfa.base_ids), n), trial
                for base, b in wfa.base_ids.items():
                    assert [wfa.ids[tuple(sorted(base + (p,)))] for p in range(n)] == \
                        wfa._nbr[b].tolist(), trial
                for conf, c in wfa.ids.items():
                    assert wfa._slot_point[c].tolist() == list(conf), trial
                    assert wfa._slot_base[c].tolist() == [
                        wfa.base_ids[conf[:s] + conf[s + 1:]] for s in range(k)], trial

    def test_values_monotone_in_time(self):
        rng = random.Random(9)
        start = [(0.0,), (5.0,)]
        wfa = WorkFunctionServer(list(start))
        prev = None
        for _ in range(8):
            wfa.step((rng.uniform(-4, 8),))
            if prev is not None:
                for conf, val in prev.items():
                    assert wfa.values[wfa.ids[conf]] >= val - 1e-9
            prev = {conf: wfa.values[i] for conf, i in wfa.ids.items()}

    def test_budget_error(self, monkeypatch):
        monkeypatch.setenv("KMOB_BUDGET", "10")
        w = WorkFunctionServer([(0.0,), (1.0,)])
        with pytest.raises(ResourceBudgetError):
            for i in range(10):
                w.step((float(i) + 2.0,))

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("KMOB_BUDGET", "9")
        w = WorkFunctionServer([(0.0,), (1.0,)])
        assert w.max_configs == 9
        with pytest.raises(ResourceBudgetError):
            for i in range(10):
                w.step((float(i) + 2.0,))
        for bad in ("not-a-number", "-1"):
            monkeypatch.setenv("KMOB_BUDGET", bad)
            with pytest.raises(InputError):
                WorkFunctionServer([(0.0,)])


class TestPageMigrationCounter:
    def test_migrates_when_credit_reaches_threshold(self):
        pm = PageMigrationCounter([(0.0,)], D=2.0)
        for i in range(3):
            step = pm.step((4.0,))
            assert step.serving == 4.0 and step.movement == 0.0
        step = pm.step((4.0,))  # credit reaches 16 >= 2*2*4
        assert step.movement == 4.0
        assert step.serving == 0.0
        assert pm.positions == ((4.0,),)

    def test_request_on_page_never_migrates(self):
        pm = PageMigrationCounter([(1.0,)], D=1.0)
        for _ in range(5):
            step = pm.step((1.0,))
            assert step.movement == 0.0
        assert pm.credits == [0.0]

    def test_d1_migrates_on_second_request(self):
        pm = PageMigrationCounter([(0.0,)], D=1.0)
        assert pm.step((1.0,)).movement == 0.0
        assert pm.step((1.0,)).movement == 1.0


class TestSplitServe:
    def test_switches_server_at_turning_point(self):
        s = SplitServeLine([(0.0,), (0.0,)])
        for t in range(1, 4):
            step = s.step((float(t),))
            assert step.positions[0] == (float(t),)
        step = s.step((2.0,))  # no longer rising: second server takes over
        assert step.positions == ((3.0,), (2.0,))
        assert step.movement == 2.0

    def test_repeats_only_in_its_second_phase(self):
        s = SplitServeLine([(0.0,), (1.0,)])
        r = s.positions[1]
        s.step(r)  # the first phase: server 0 joins server 1 on r
        assert s.positions == (r, r) and not s.settled(r)  # a step ends the phase
        s.step(r)
        assert s.second_phase and s.settled(r) and s.step(r) == SimStep(s.positions, 0.0, 0.0)


def test_scripted_simulator_costs():
    s = ScriptedSimulator([(0.0,)], [[(3.0,)]])
    step = s.step((4.0,))
    assert step == (((3.0,),), 1.0, 3.0)


def test_simulators_reject_points_of_another_dimension():
    plane = ((0.0, 0.0), (1.0, 0.0))
    for sim in (GreedyServer(plane), WorkFunctionServer(list(plane)),
                SplitServeLine([(0.0,), (1.0,)]), ScriptedSimulator(plane, [plane])):
        with pytest.raises(InputError):
            sim.step((0.5,) * (3 - len(sim.positions[0])))
    for make in (GreedyServer, WorkFunctionServer, lambda s: ScriptedSimulator(s, [])):
        with pytest.raises(InputError):
            make([(0.0, 0.0), (1.0,)])


def test_make_simulator_and_default_tags():
    params1 = ProblemParams(k=2, ms=1.0, mc=1.0, delta=0.0, D=1.0, dim=1)
    params2 = ProblemParams(k=2, ms=1.0, mc=1.0, delta=0.0, D=1.0, dim=2)
    assert default_sim_tag("ums", params1, 50) == "dc-line"
    assert default_sim_tag("wms", params1, 50) == "pm-counter"
    assert default_sim_tag("ums", params2, 20) == "wfa"
    assert default_sim_tag("ums", params2, 100_000) == "greedy"
    assert isinstance(make_simulator("greedy", [(0.0,)], params1), GreedyServer)
    with pytest.raises(InputError):
        make_simulator("nope", [(0.0,)], params1)


def test_kserver_steps_end_on_request():
    rng = random.Random(3)
    params = ProblemParams(k=3, ms=1.0, mc=1.0, delta=0.0, D=1.0, dim=1)
    sims = [GreedyServer([(0.0,), (2.0,), (5.0,)]),
            DoubleCoverageLine([(0.0,), (2.0,), (5.0,)])]
    for sim in sims:
        for _ in range(50):
            r = (rng.uniform(-8, 8),)
            step = sim.step(r)
            assert min(math.dist(p, r) for p in step.positions) <= 1e-12


def test_determinism_identical_outputs():
    def run_once():
        sim = DoubleCoverageLine([(0.0,), (7.0,)])
        rng = random.Random(4)
        return [sim.step((rng.uniform(-5, 12),)) for _ in range(60)]

    assert run_once() == run_once()
