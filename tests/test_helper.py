import math
import random
from typing import Optional, Sequence

import pytest

from kmobile.adversary import gen_thm3, gen_thm4
from kmobile.core import Config, InputError, Point, ProblemParams, move_toward
from kmobile.mobile import run
from kmobile.offline import (
    HOLD_CIRCLE_DIVISOR,
    HelperTrajectory,
    audit_helper,
    compute_helper,
    engage_threshold,
    follow_speed,
    helper_speed_cap,
    step_geometry,
)
from test_acceptance import _helper_trajectories

SIGMA = 1e-3


def params(**kw):
    base = dict(k=2, ms=0.5, mc=1.0, delta=0.5, D=1.0, dim=1)
    base.update(kw)
    return ProblemParams(**base)


def static(conf, n):
    return [conf] * n


def classify_transition(offline, online, requests, params, t1, t2, sigma=1.0):
    """Long or short transition between two in-inner steps (1-based)."""
    n = len(requests)
    if not 1 <= t1 < t2 <= n:
        raise InputError(f"need 1 <= t1 < t2 <= {n}")
    g1 = step_geometry(offline[t1 - 1], online[t1 - 1], requests[t1 - 1], params, sigma)
    g2 = step_geometry(offline[t2 - 1], online[t2 - 1], requests[t2 - 1], params, sigma)
    if not (g1.in_inner and g2.in_inner):
        raise InputError("transition endpoints must have the request inside the inner circle")
    return "long" if (t2 - t1) > g1.inner / params.mc + 2.0 else "short"


class TestGeometry:
    def test_scaled_radii(self):
        p = params(k=1)
        geo = step_geometry(((0.0,),), ((5000.0,),), (0.0,), p, SIGMA)
        assert geo.o_star == 0
        assert geo.d_oa == 5000.0
        assert abs(geo.inner - 0.25 / (48960.0 * SIGMA) * 5000.0) < 1e-9
        assert abs(geo.outer - 0.5 / 48.0 * 5000.0) < 1e-9
        assert geo.inner < geo.outer

    def test_speed_cap_and_threshold(self):
        p = params(k=2)
        assert abs(helper_speed_cap(p, SIGMA) - (2 + 1020 * SIGMA * 2 / 0.5) * 1.0) < 1e-12
        assert abs(engage_threshold(p, SIGMA) - 51483 * SIGMA * 2 * 1.0 / 0.25) < 1e-9

    def test_delta_required(self):
        with pytest.raises(InputError):
            helper_speed_cap(params(delta=0.0), SIGMA)


class TestClassify:
    def setup_method(self):
        self.n = 120
        self.offline = static(((0.0,), (100.0,)), self.n)
        self.online = static(((5000.0,), (5100.0,)), self.n)
        self.reqs = [(min(float(t), 100.0),) for t in range(1, self.n + 1)]
        self.p = params()

    def test_adjacent_steps_are_short(self):
        assert classify_transition(self.offline, self.online, self.reqs,
                                   self.p, 1, 2, SIGMA) == "short"

    def test_long_walk_is_long(self):
        assert classify_transition(self.offline, self.online, self.reqs,
                                   self.p, 10, 95, SIGMA) == "long"

    def test_boundary_is_short(self):
        # duration exactly inner/mc + 2 must classify as short
        p = params()
        n = 60
        offline = static(((0.0,), (1000.0,)), n)
        # pick the online distance so inner/mc is integral: inner = 10
        d = 10.0 * 48960.0 * SIGMA * p.k / p.delta ** 2
        online = static(((d,), (d + 1000.0,)), n)
        g = step_geometry(offline[0], online[0], (0.0,), p, SIGMA)
        assert abs(g.inner - 10.0) < 1e-9
        reqs = [(0.0,)] * n
        assert classify_transition(offline, online, reqs, p, 10, 22, SIGMA) == "short"
        assert classify_transition(offline, online, reqs, p, 10, 23, SIGMA) == "long"

    def test_malformed_window(self):
        with pytest.raises(InputError):
            classify_transition(self.offline, self.online, self.reqs, self.p,
                                50, 10, SIGMA)
        with pytest.raises(InputError):
            # endpoint not inside the inner circle
            classify_transition(self.offline, self.online, self.reqs, self.p,
                                40, 95, SIGMA)


class TestHelperBehavior:
    def test_planar_online_configuration_on_a_line_run_is_an_input_error(self):
        # Each entry point checks its points' dimension once, then measures
        # with math.dist, which would raise ValueError on a mismatch.
        p = params(k=1)
        offline, reqs = static(((0.0,),), 3), [(0.0,)] * 3
        online = static(((5000.0,),), 3)
        planar = online[:2] + [((5000.0, 0.0),)]
        h = compute_helper(offline, online, reqs, p, SIGMA, offline_start=offline[0])
        with pytest.raises(InputError, match="dimension 2, expected 1"):
            compute_helper(offline, planar, reqs, p, SIGMA, offline_start=offline[0])
        with pytest.raises(InputError, match="dimension 2, expected 1"):
            audit_helper(h, planar, reqs, p, SIGMA)

    def test_stationary_tracking(self):
        p = params(k=1)
        n = 50
        offline = static(((0.0,),), n)
        online = static(((5000.0,),), n)
        reqs = [(3.0 * math.sin(t / 3.0),) for t in range(n)]
        h = compute_helper(offline, online, reqs, p, SIGMA, offline_start=offline[0])
        a = audit_helper(h, online, reqs, p, SIGMA)
        assert a.guard_fired == n
        assert a.ok()
        assert a.distance_bound_violations == 0
        # follows the offline server, never faster than the follow speed
        assert a.max_speed <= follow_speed(p) + 1e-9

    def test_long_transition_lands_on_request(self):
        p = params(k=2)
        n = 120
        offline = static(((0.0,), (100.0,)), n)
        online = static(((5000.0,), (5100.0,)), n)
        reqs = [(min(float(t), 100.0),) for t in range(1, n + 1)]
        h = compute_helper(offline, online, reqs, p, SIGMA, offline_start=offline[0])
        a = audit_helper(h, online, reqs, p, SIGMA)
        assert a.ok()
        assert not h.diagnostics
        # after the long transition the helper sits on the request
        first_inner_b = next(t for t in range(1, n + 1)
                             if h.geometry[t - 1].in_inner and h.geometry[t - 1].o_star == 1)
        assert h.positions[first_inner_b - 1] == reqs[first_inner_b - 1]

    def test_short_hop_sequences(self):
        p = params(k=2)
        n = 90
        offline = static(((0.0,), (30.0,)), n)
        online = static(((5000.0,), (5030.0,)), n)
        reqs = [((10.0,) if (t // 15) % 2 == 0 else (20.0,)) for t in range(n)]
        h = compute_helper(offline, online, reqs, p, SIGMA, offline_start=offline[0])
        a = audit_helper(h, online, reqs, p, SIGMA)
        assert a.ok()
        assert a.guard_fired == n  # requests always inside someone's inner circle

    def test_low_separation_engages_and_releases(self):
        p = params(k=2)
        n = 200
        offline = static(((0.0,), (9000.0,)), n)
        online = []
        for t in range(1, n + 1):
            x = max(100.0, 5000.0 - 49.0 * t) if t <= 100 else min(5000.0, 100.0 + 49.0 * (t - 100))
            online.append(((x,), (12000.0,)))
        reqs = [(0.0,)] * n
        h = compute_helper(offline, online, reqs, p, SIGMA, offline_start=offline[0])
        a = audit_helper(h, online, reqs, p, SIGMA)
        assert "step3" in h.modes
        assert a.ok()
        assert a.guard_vacuous > 0
        assert a.guard_fired > 0

    def test_unconditional_speed_cap(self):
        # even a teleporting request cannot make the helper exceed its cap
        p = params(k=2)
        n = 80
        offline = static(((0.0,), (200.0,)), n)
        online = static(((5000.0,), (5200.0,)), n)
        reqs = [((0.0,) if t % 7 else (200.0,)) for t in range(n)]
        h = compute_helper(offline, online, reqs, p, SIGMA, offline_start=offline[0])
        a = audit_helper(h, online, reqs, p, SIGMA)
        assert a.speed_violations == 0
        assert a.max_speed <= helper_speed_cap(p, SIGMA) + 1e-9

    @pytest.mark.parametrize("offline,online,r,start,pos,broken", [
        ((0.0,), (5.0,), (0.0,), (0.0,), (5.0,), "speed_violations"),
        ((0.0,), (500.0,), (0.0,), (-0.3,), (0.3,), "guard_speed_violations"),
        ((10.0,), (10.0,), (10.0,), (0.0,), (0.0,), "distance_bound_violations"),
    ])
    def test_a_hand_built_helper_that_breaks_one_invariant_is_counted_once(
            self, offline, online, r, start, pos, broken):
        # At k=1 and this sigma the speed cap is 4.04, the follow speed 0.53125, the
        # guard engages at d_oa >= 411.864, and the outer radius is d_oa / 96.
        p = params(k=1)
        assert (helper_speed_cap(p, SIGMA), follow_speed(p)) == (4.04, 0.53125)
        geo = step_geometry((offline,), (online,), r, p, SIGMA)
        helper = HelperTrajectory(start=start, positions=[pos], modes=["hand"], geometry=[geo])
        a = audit_helper(helper, [(online,)], [r], p, SIGMA)
        counts = {key: getattr(a, key) for key in (
            "speed_violations", "guard_speed_violations", "containment_violations",
            "distance_bound_violations")}
        assert counts == dict(dict.fromkeys(counts, 0), **{broken: 1})
        assert a.guard_fired == (broken == "guard_speed_violations")
        # The distance bound is counted, not failed.
        assert a.ok() == (broken == "distance_bound_violations")


# ---------------------------------------------------------------------------
# Reference: the helper as a hierarchy of plan classes, which
# compute_helper's single plan function replaced output for output.
# ---------------------------------------------------------------------------

class _Plan:
    kind = "?"
    last = 0

    def covers(self, t: int) -> bool:
        return t <= self.last

    def action(self, t: int, o_hat: Point) -> tuple[Optional[Point], float, str]:
        raise NotImplementedError

    def end_anchor(self) -> Optional[int]:
        return None


class _ChasePlan(_Plan):
    """Chase the request at the helper speed cap, landing one step early."""

    kind = "chase"

    def __init__(self, ctx: "_HelperContext", s0: int, target_anchor: Optional[int]):
        self.ctx = ctx
        self.anchor = target_anchor
        self.last = target_anchor if target_anchor is not None else ctx.n

    def action(self, t, o_hat):
        ctx = self.ctx
        if self.anchor is not None:
            if t == self.anchor:
                return None, 0.0, self.kind
            if t == self.anchor - 1:
                return ctx.requests[self.anchor - 1], ctx.speed_cap, self.kind
        return ctx.requests[t - 1], ctx.speed_cap, self.kind

    def end_anchor(self):
        return self.anchor


class _Step3Plan(_ChasePlan):
    """Low-separation regime: chase the request until separation recovers."""

    kind = "step3"

    def __init__(self, ctx: "_HelperContext", s0: int):
        thresh = 2.0 * ctx.engage
        release = next((t for t in range(s0, ctx.n + 1) if ctx.geo[t - 1].d_oa >= thresh), None)
        super().__init__(ctx, s0, release)

    def end_anchor(self):
        if self.anchor is not None and self.ctx.geo[self.anchor - 1].in_inner:
            return self.anchor
        return None


class _SequencePlan(_Plan):
    """Behavior over one sequence of short transitions and its terminator."""

    def __init__(self, ctx: "_HelperContext", anchor: int, exec_from: int, o_hat: Point):
        self.ctx = ctx
        self.anchor = anchor
        term = ctx.find_termination(anchor)
        self.term = term
        if term is None:
            self.kind = "follow"
            self.last = ctx.n
        elif term[0] == "long":
            self.kind = "follow-long"
            self.last = term[3]
        else:
            self.kind = "circle"
            _, self.o_ell, self.t2, self.t3 = term
            self.last = self.t3
            self.target_point = ctx.offline[self.t3 - 1][ctx.geo[self.t3 - 1].o_star]
            self.direct = self._direct_feasible(exec_from, o_hat)
        if term is not None and term[0] == "long":
            _, self.o_ell, self.t2, self.t3 = term

    def _direct_feasible(self, s0: int, o_hat: Point) -> bool:
        ctx = self.ctx
        tmp = o_hat
        for t in range(s0, self.t3 + 1):
            tmp = move_toward(tmp, self.target_point, ctx.follow)
            g = ctx.geo[t - 1]
            if math.dist(tmp, g.o_star_pos) > g.outer * (1.0 + 1e-9):
                return False
        return True

    def action(self, t, o_hat):
        ctx = self.ctx
        if self.term is None:
            g = ctx.geo[t - 1]
            return ctx.offline[t - 1][g.o_star], ctx.follow, "follow"
        if self.term[0] == "long":
            if t <= self.t2:
                return ctx.offline[t - 1][self.o_ell], ctx.follow, "follow-long"
            if t == self.t3:
                return None, 0.0, "long-land"
            if t == self.t3 - 1:
                return ctx.requests[self.t3 - 1], ctx.speed_cap, "long-skip"
            return ctx.requests[t - 1], ctx.speed_cap, "long-chase"
        # Short-transition terminator.
        if self.direct:
            return self.target_point, ctx.follow, "circle-direct"
        center = ctx.offline[t - 1][self.o_ell]
        radius = 2.0 * ctx.params.delta / HOLD_CIRCLE_DIVISOR * ctx.d_to_online(t, self.o_ell)
        if math.dist(center, self.target_point) <= radius:
            return self.target_point, ctx.follow, "circle-inside"
        f = radius / math.dist(center, self.target_point)
        p = tuple(c + f * (tp - c) for c, tp in zip(center, self.target_point))
        return p, ctx.follow, "circle-hold"

    def end_anchor(self):
        if self.term is None:
            return None
        return self.term[3]


class _HelperContext:
    def __init__(self, offline, online, requests, params, sigma):
        self.offline = offline
        self.online = online
        self.requests = requests
        self.params = params
        self.sigma = sigma
        self.n = len(requests)
        if not len(offline) == len(online) == len(requests):
            raise InputError("offline, online and request sequences must share a length")
        self.geo = [step_geometry(o, a, r, params, sigma)
                    for o, a, r in zip(offline, online, requests)]
        self.speed_cap = helper_speed_cap(params, sigma)
        self.follow = follow_speed(params)
        self.engage = engage_threshold(params, sigma)
        self.anchors = [t for t in range(1, self.n + 1) if self.geo[t - 1].in_inner]

    def d_to_online(self, t: int, server: int) -> float:
        pos = self.offline[t - 1][server]
        return min(math.dist(pos, a) for a in self.online[t - 1])

    def next_anchor(self, t: int) -> Optional[int]:
        return next((a for a in self.anchors if a >= t), None)

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


def reference_compute_helper(offline: Sequence[Config], online: Sequence[Config],
                   requests: Sequence[Point], params: ProblemParams,
                   sigma: float = 1.0,
                   offline_start: Optional[Config] = None) -> HelperTrajectory:
    """The helper trajectory as the four plan classes built it.

    ``offline``/``online`` hold the end-of-step configurations; the
    helper starts on the offline server nearest the first request.
    """
    ctx = _HelperContext(list(offline), list(online), list(requests), params, sigma)
    start_conf = offline_start if offline_start is not None else offline[0]
    d0 = [math.dist(p, requests[0]) for p in start_conf]
    o_hat: Point = start_conf[d0.index(min(d0))]
    start = o_hat
    positions: list[Point] = []
    modes: list[str] = []
    diagnostics: list[str] = []
    plan: Optional[_Plan] = None
    pending_anchor: Optional[int] = None

    for t in range(1, ctx.n + 1):
        engaged_now = ctx.geo[t - 1].d_oa < ctx.engage
        if plan is not None and plan.kind != "step3" and engaged_now:
            plan = None  # preempted by the low-separation regime
        if plan is None or not plan.covers(t):
            if plan is not None:
                pending_anchor = plan.end_anchor()
            if engaged_now:
                plan = _Step3Plan(ctx, t)
            elif pending_anchor is not None:
                plan = _SequencePlan(ctx, pending_anchor, t, o_hat)
            elif ctx.geo[t - 1].in_inner:
                plan = _SequencePlan(ctx, t, t, o_hat)
            else:
                plan = _ChasePlan(ctx, t, ctx.next_anchor(t))
            pending_anchor = None
        target, cap, tag = plan.action(t, o_hat)
        if target is not None:
            moved = move_toward(o_hat, target, cap)
            if tag in ("long-skip", "chase", "step3") and t == plan.last - 1 \
                    and math.dist(moved, target) > 1e-9 * max(1.0, params.mc):
                diagnostics.append(f"t={t}: landing target missed by "
                                   f"{math.dist(moved, target):.6g}")
            o_hat = moved
        positions.append(o_hat)
        modes.append(tag)
        if plan.covers(t) and plan.last == t:
            pending_anchor = plan.end_anchor()
            plan = None

    return HelperTrajectory(start=start, positions=positions, modes=modes,
                            geometry=ctx.geo, diagnostics=diagnostics)


MODE_TAGS = {"follow", "follow-long", "long-chase", "long-skip", "long-land", "chase",
             "step3", "circle-direct", "circle-inside", "circle-hold"}


def random_line_case(seed):
    """A seeded line instance scaled to the regimes of its own (k, delta, sigma).

    The online servers sit a random multiple of the engage threshold
    away from the offline ones and may dip below it; the request walks
    between offline servers that may drift, and may jump off the
    trace's locality so that chases can miss their landing.
    """
    rng = random.Random(seed)
    k = rng.choice((1, 2, 3))
    p = params(k=k, delta=rng.choice((0.25, 0.5)))
    sigma = rng.choice((1e-3, 1e-2))
    n = rng.randint(30, 120)
    engage = engage_threshold(p, sigma)
    scale = math.exp(rng.uniform(math.log(1.2), math.log(30.0)))
    far = scale * engage
    pos = [0.0]
    for _ in range(k - 1):
        pos.append(pos[-1] + rng.uniform(0.5, 4.0) * scale)
    dip = rng.random() < 0.3
    low, at, width = rng.uniform(0.3, 0.9) * engage, rng.randint(1, n), rng.randint(3, 30)
    drift = rng.random() < 0.5
    jumps = rng.choice((0.0, 0.0, 0.05, 0.2))
    hold = rng.randint(3, 40)
    r = rng.uniform(pos[0], pos[-1])
    target = rng.choice(pos)
    offline, online, reqs = [], [], []
    for t in range(1, n + 1):
        if drift:
            pos[rng.randrange(k)] += rng.uniform(-p.ms, p.ms)
        if rng.random() < 1.0 / hold:
            target = rng.choice(pos) + rng.uniform(-1.0, 1.0) * scale
        r += max(-p.mc, min(p.mc, target - r)) * rng.choice((1.0, 1.0, 0.5))
        if rng.random() < jumps:
            r = rng.choice(pos) + rng.uniform(-2.0, 2.0) * scale
        d = far - (far - low) * max(0.0, 1.0 - abs(t - at) / width) if dip else far
        offline.append(tuple((x,) for x in pos))
        online.append(tuple((x + d,) for x in pos))
        reqs.append((r,))
    return f"random-{seed}", p, sigma, offline, online, reqs, offline[0]


def certificate_cases():
    """Jump-construction certificates against the online runs they bound."""
    insts = []
    for x in (8, 16, 32, 64, 128):
        for z in range(4):
            for D in (1.0, 2.0):
                insts.append(gen_thm3(2, x, D, seed=x + z, z_choice=z))
                insts.append(gen_thm4(2, x, 1.0, 2.0, D, seed=x + z, z_choice=z))
    for k in (3, 4):
        for x in (8, 16, 32):
            insts.append(gen_thm3(k, x, seed=x))
            insts.append(gen_thm4(k, x, 1.0, 2.0, seed=x))
    for inst in insts:
        trace, p = inst.trace, inst.params
        res = run(trace, p, algo="wms" if p.D >= 2.0 else "ums")
        online = [rep.positions for rep in res.reports]
        for sigma in (1e-3, 1.0):
            yield (f"{inst.construction}-k{p.k}-D{p.D}", p, sigma, trace.certificate, online,
                   list(trace.requests), trace.start_config)


def reference_cases():
    for name, p, offline, online, reqs in _helper_trajectories():
        for sigma in (1e-4, 1e-3, 1e-2, 1.0):
            yield name, p, sigma, offline, online, reqs, offline[0]
    yield from certificate_cases()
    for seed in range(1000):
        yield random_line_case(seed)


def test_plan_function_equals_the_plan_classes():
    """Bit-equal positions, equal modes and diagnostics on every case family.

    Every mode tag, a missed landing and a switch into the
    low-separation regime must each occur somewhere in the families.
    """
    tags, landings, switches, cases = set(), 0, 0, 0
    for name, p, sigma, offline, online, reqs, start in reference_cases():
        got = compute_helper(offline, online, reqs, p, sigma, offline_start=start)
        want = reference_compute_helper(offline, online, reqs, p, sigma, offline_start=start)
        assert got.start == want.start, name
        assert [[c.hex() for c in q] for q in got.positions] == \
            [[c.hex() for c in q] for q in want.positions], name
        assert (got.modes, got.diagnostics) == (want.modes, want.diagnostics), name
        tags.update(got.modes)
        landings += bool(got.diagnostics)
        switches += any(a != "step3" and b == "step3" for a, b in zip(got.modes, got.modes[1:]))
        cases += 1
    assert cases >= 1200
    assert tags == MODE_TAGS
    assert landings and switches
