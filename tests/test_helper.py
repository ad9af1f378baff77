import math

import pytest

from kmobile.core import InputError, ProblemParams, distance
from kmobile.offline import (
    audit_helper,
    compute_helper,
    engage_threshold,
    follow_speed,
    helper_speed_cap,
    step_geometry,
)

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
