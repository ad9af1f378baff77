import dataclasses
import math
from operator import is_

import pytest

from kmobile.adversary import gen_local_walk, gen_thm3, gen_thm4
from kmobile.checks import (
    SpeedAudit,
    audit_speed_caps,
    check_fast_potential,
    check_lemma_geo,
    check_projection_bound,
    check_slow_potential,
    default_y,
    potential_factors,
)
from kmobile.core import REL_TOL, InputError, ProblemParams, Trace
from kmobile.mobile import run
from kmobile.offline import HelperTrajectory, compute_helper, step_geometry


def params(**kw):
    base = dict(k=2, ms=1.0, mc=0.5, delta=0.0, D=1.0, dim=1)
    base.update(kw)
    return ProblemParams(**base)


def tamper(reports, j, **fields):
    """Report ``j`` replaced by a copy with ``fields`` changed.

    A run appends one report object for each step that repeats it, and
    hands on its lists, so a change made in place would reach those
    steps too; the copy changes step ``j + 1`` alone.
    """
    reports[j] = dataclasses.replace(reports[j], **fields)


def with_entry(values, i, value):
    """A copy of the list ``values`` with entry ``i`` set to ``value``."""
    values = list(values)
    values[i] = value
    return values


def most_shared(reports):
    """The report object that stands for the most steps, and those steps' numbers."""
    shared = max(reports, key=lambda rep: sum(map(is_, reports, [rep] * len(reports))))
    return shared, [t for t, rep in enumerate(reports, 1) if rep is shared]


class TestFastPotential:
    def test_ums_factors(self):
        p = params(mc=0.5)
        inst = gen_local_walk(5, p, 1.0, seed=0)
        res = run(inst.trace, p, algo="ums", sim="dc-line")
        psi_f, bound_f = potential_factors(res)
        assert psi_f == bound_f == 2.0 / 0.5

    def test_wms_factors(self):
        p = params(mc=0.5, D=2.0)
        inst = gen_local_walk(5, p, 1.0, seed=0)
        res = run(inst.trace, p, algo="wms", sim="pm-counter")
        psi_f, bound_f = potential_factors(res)
        assert abs(psi_f - math.sqrt(2) * 8.0 / 0.5) < 1e-12
        assert abs(bound_f - math.sqrt(2) * 11.0 / 0.5) < 1e-12

    def test_stationary_trace_all_margins_nonnegative(self):
        p = params()
        trace = Trace(requests=[(0.0,)] * 8, start_config=((0.0,), (0.0,)))
        res = run(trace, p, algo="ums", sim="dc-line")
        rep = check_fast_potential(res)
        assert rep.ok
        assert all(m >= 0.0 for m in rep.margins)

    def test_random_walks_ums(self):
        for seed in range(8):
            for dim, sim in ((1, "dc-line"), (2, "greedy")):
                p = params(k=2, mc=0.9, dim=dim)
                inst = gen_local_walk(40, p, 1.0, seed=seed)
                rep = check_fast_potential(run(inst.trace, p, algo="ums", sim=sim))
                assert rep.ok, (seed, dim, rep.min_margin)

    def test_random_walks_wms(self):
        for seed in range(8):
            p = params(k=2, mc=0.5, D=4.0, dim=2)
            inst = gen_local_walk(40, p, 1.0, seed=seed)
            rep = check_fast_potential(run(inst.trace, p, algo="wms", sim="pm-counter"))
            assert rep.ok, (seed, rep.min_margin)

    def test_rejects_slow_mode(self):
        p = params(mc=2.0, delta=0.5)
        inst = gen_local_walk(5, p, 1.0, seed=0)
        res = run(inst.trace, p, algo="ums")
        with pytest.raises(InputError):
            check_fast_potential(res)

    def test_detects_tampered_run(self):
        p = params(mc=0.5)
        inst = gen_local_walk(20, p, 1.0, seed=1)
        res = run(inst.trace, p, algo="ums", sim="dc-line")
        tamper(res.reports, 7, matched_sum=res.reports[7].matched_sum + 100.0)  # the potential
        rep = check_fast_potential(res)
        assert not rep.ok
        assert 8 in rep.violations


class TestLemmaGeo:
    def test_zero_violations_across_deltas(self):
        for delta in (0.1, 0.5, 0.9):
            rep = check_lemma_geo(2000, delta, seed=42)
            assert rep.violations == 0

    def test_degenerate_zero_move(self):
        # moving distance 0 reduces the inequality to 0 >= 0
        factor = (1 + 0.5 / 4) / (1 + 0.5 / 2)
        assert factor < 1.0

    def test_colinear_observer_on_request(self):
        # s' = r': the distance shrink equals the full moved distance,
        # which dominates the sub-one factor
        from kmobile.core import move_toward

        for delta in (0.1, 0.5, 0.9):
            factor = (1 + delta / 4) / (1 + delta / 2)
            a, r = (0.0, 0.0), (10.0, 0.0)
            a2 = move_toward(a, r, 3.0)
            lhs = math.dist(a, r) - math.dist(a2, r)
            assert lhs == 3.0
            assert lhs >= factor * math.dist(a, a2)

    def test_delta_validation(self):
        with pytest.raises(InputError):
            check_lemma_geo(10, 0.0)
        with pytest.raises(InputError):
            check_lemma_geo(10, 1.0)

    def test_deterministic_under_seed(self):
        a = check_lemma_geo(500, 0.5, seed=7)
        b = check_lemma_geo(500, 0.5, seed=7)
        assert a == b


class TestSlowPotential:
    def _slow_run(self, sigma):
        # Requests huddle at 0 while the certificate walks one offline
        # server out to 55.2, then run to 55 faster than the online
        # servers can follow; the online fleet arrives late, so the
        # request sits inside the far server's inner circle while the
        # online distance is still large (under a scaled-down sigma).
        p = params(k=2, ms=0.5, mc=1.0, delta=0.5)
        reqs = [(0.0,)] * 120
        reqs += [(float(t),) for t in range(1, 56)]
        reqs += [(55.0,)] * 40
        cert = [((0.0,), (min(0.5 * t, 55.2),)) for t in range(1, len(reqs) + 1)]
        trace = Trace(requests=reqs, start_config=((0.0,), (0.0,)), certificate=cert)
        res = run(trace, p, algo="ums", sim="dc-line")
        online = [r.positions for r in res.reports]
        helper = compute_helper(cert, online, reqs, p, sigma, offline_start=trace.start_config)
        return res, helper, trace

    def test_margins_reported_when_scaled(self):
        res, helper, trace = self._slow_run(1e-4)
        rep = check_slow_potential(res, helper, trace.start_config, sigma=1e-4)
        assert len(rep.margins) + rep.vacuous == len(res.reports)
        # the late-arrival phase now fires: checked steps beyond the huddle
        assert any(t > 175 for t, _ in rep.margins)
        assert rep.vacuous > 0

    def test_faithful_scale_fires_only_on_exact_hits(self):
        res, helper, trace = self._slow_run(1.0)
        rep = check_slow_potential(res, helper, trace.start_config, sigma=1.0)
        # with unscaled constants the inner circle is microscopic, so only
        # the steps with the request exactly on the optimum server remain
        assert all(t <= 120 for t, _ in rep.margins)
        assert rep.vacuous == len(res.reports) - 120

    def test_phi_boundary_continuous_both_variants(self):
        res, helper, trace = self._slow_run(1e-4)
        unw = check_slow_potential(res, helper, trace.start_config, sigma=1e-4)
        assert unw.boundary_gap <= 1e-6
        # the weighted offset variant as printed; slow mode does not depend on the algorithm
        res = dataclasses.replace(res, algo="wms")
        wgt = check_slow_potential(res, helper, trace.start_config, sigma=1e-4)
        assert wgt.boundary_gap <= 1e-6
        assert wgt.phi_threshold == unw.phi_threshold * res.params.D

    def test_phi_is_quadratic_beyond_its_threshold(self):
        # One step at rest on the request, so only phi moves: the helper starts 5 away from
        # the online server, beyond the threshold, and ends 0.2 away, inside it.
        p = params(k=1, ms=0.5, mc=1.0, delta=0.5)
        sigma, start = 2.5e-6, ((0.0,),)
        res = run(Trace(requests=[(0.0,)], start_config=start), p, algo="ums", sim="greedy")
        step = res.reports[0]
        assert (step.cost, step.sim_cost, step.matched_sum, res.psi0_matched_sum) == (0, 0, 0, 0)
        helper = HelperTrajectory(start=(5.0,), positions=[(0.2,)], modes=["hand"],
                                  geometry=[step_geometry(start, start, (0.0,), p, sigma)])
        rep = check_slow_potential(res, helper, start, y=1.0, sigma=sigma)
        threshold = 107548.0 * sigma * 1 * 1.0 / 0.5 ** 2
        assert rep.phi_threshold == pytest.approx(threshold, rel=1e-15) and threshold < 5.0
        dm = 0.5 * 0.5  # delta * ms
        phi_start = 4.0 / dm * 5.0 ** 2 - 4.0 * (threshold ** 2 / dm - threshold)
        assert rep.margins == [(1, pytest.approx(phi_start - 4.0 * 0.2, rel=1e-12))]

    def test_planar_start_on_a_line_run_is_an_input_error(self):
        res, helper, _ = self._slow_run(1e-4)
        with pytest.raises(InputError, match="dimension 2, expected 1"):
            check_slow_potential(res, helper, ((0.0,), (0.0, 0.0)), sigma=1e-4)

    def test_weighted_run_real_path(self):
        # WMS slow run + helper from the trace certificate, end to end
        p = params(k=2, ms=0.5, mc=1.0, delta=0.5, D=2.0)
        reqs = [(0.0,)] * 60 + [(float(t),) for t in range(1, 31)] + [(30.0,)] * 30
        cert = [((0.0,), (min(0.5 * t, 30.2),)) for t in range(1, len(reqs) + 1)]
        trace = Trace(requests=reqs, start_config=((0.0,), (0.0,)), certificate=cert)
        res = run(trace, p, algo="wms", sim="pm-counter")
        assert res.mode == "slow" and res.weighted
        online = [r.positions for r in res.reports]
        helper = compute_helper(cert, online, reqs, p, 1e-4,
                                offline_start=trace.start_config)
        rep = check_slow_potential(res, helper, trace.start_config, sigma=1e-4)
        assert len(rep.margins) + rep.vacuous == len(res.reports)
        assert rep.boundary_gap <= 1e-6
        assert rep.phi_threshold > 0

    def test_requires_slow_mode(self):
        p = params(mc=0.5)
        inst = gen_local_walk(5, p, 1.0, seed=0)
        res = run(inst.trace, p, algo="ums", sim="dc-line")
        with pytest.raises(InputError):
            check_slow_potential(res, None, inst.trace.start_config)

    def test_default_y_scales_with_k_over_delta_sq(self):
        assert default_y(params(k=2, delta=0.5)) == 8.0 * 2 / 0.25


def reference_audit_speed_caps(result):
    """audit_speed_caps walking every report: the reference for its skip of repeated reports."""
    cap = result.params.online_speed
    tol = REL_TOL * max(1.0, cap)
    violations, cap_violations = [], []
    max_disp = 0.0
    for t, rep in enumerate(result.reports, 1):
        for disp, own_cap in zip(rep.displacements, rep.caps):
            max_disp = max(max_disp, disp)
            if not disp <= cap + tol:
                violations.append(t)
                if disp != disp:
                    max_disp = disp
            if not disp <= own_cap + REL_TOL * max(1.0, own_cap):
                cap_violations.append(t)
    return SpeedAudit(max_displacement=max_disp, cap=cap, violations=violations,
                      cap_violations=cap_violations)


def audit_runs():
    """Runs whose reports repeat (jump constructions) and runs whose reports do not (walks)."""
    for k in (2, 4, 8):
        for inst, algo in ((gen_thm3(k, 16, seed=1), "ums"),
                           (gen_thm4(k, 16, ms=1.0, mc=2.0, D=2.0, seed=1), "wms")):
            yield run(inst.trace, inst.params, algo=algo)
    for algo, D in (("ums", 1.0), ("wms", 3.0)):
        p = params(k=2, mc=2.0, ms=0.5, delta=0.5, D=D)
        yield run(gen_local_walk(80, p, 1.0, seed=5).trace, p, algo=algo)


class TestAudits:
    def test_speed_audit_clean_run(self):
        p = params(k=2, mc=2.0, ms=0.5, delta=0.5)
        inst = gen_local_walk(50, p, 1.0, seed=2)
        res = run(inst.trace, p, algo="ums")
        audit = audit_speed_caps(res)
        assert audit.ok
        assert audit.max_displacement <= (1 + p.delta) * p.ms + 1e-9

    def test_speed_audit_flags_tampering(self):
        p = params(k=1, mc=2.0, ms=0.5, delta=0.5)
        inst = gen_local_walk(10, p, 1.0, seed=2)
        res = run(inst.trace, p, algo="ums")
        tamper(res.reports, 3, displacements=with_entry(res.reports[3].displacements, 0, 10.0))
        audit = audit_speed_caps(res)
        assert not audit.ok
        assert 4 in audit.violations

    def test_speed_audit_reports_nan_displacement(self):
        p = params(k=2, mc=2.0, ms=0.5, delta=0.5)
        res = run(gen_local_walk(10, p, 1.0, seed=2).trace, p, algo="ums")
        tamper(res.reports, 3, displacements=with_entry(res.reports[3].displacements, 1, math.nan))
        # A finite maximum after the NaN.
        tamper(res.reports, 6, displacements=with_entry(res.reports[6].displacements, 0, 0.5))
        audit = audit_speed_caps(res)
        assert not audit.ok and audit.violations == [4] and audit.cap_violations == [4]
        assert math.isnan(audit.max_displacement)

    def test_speed_audit_equals_the_reference_on_runs_and_their_faults(self):
        for res in audit_runs():
            assert repr(audit_speed_caps(res)) == repr(reference_audit_speed_caps(res))
            reps = res.reports
            reused = [j for j in range(1, len(reps)) if (reps[j].displacements, reps[j].caps)
                      == (reps[j - 1].displacements, reps[j - 1].caps)]
            # One reused step made violating, or two in a row, the second repeating the first.
            for steps in ([reused[0]], [reused[-1]], [reused[0], reused[0] + 1]):
                for bad in (10.0, math.nan):
                    kept = [reps[j] for j in steps]
                    for j in steps:
                        tamper(reps, j, displacements=[bad] * res.params.k)
                    audit = audit_speed_caps(res)
                    assert repr(audit) == repr(reference_audit_speed_caps(res))
                    assert set(audit.violations) == {j + 1 for j in steps}
                    assert audit.violations == audit.cap_violations
                    assert len(audit.violations) == len(steps) * res.params.k
                    for j, rep in zip(steps, kept):
                        reps[j] = rep
            # Caps made negative at a reused step, its displacements kept.
            kept = reps[reused[-1]]
            tamper(reps, reused[-1], caps=[-1.0] * res.params.k)
            audit = audit_speed_caps(res)
            assert repr(audit) == repr(reference_audit_speed_caps(res))
            assert audit.cap_violations == [reused[-1] + 1] * res.params.k
            reps[reused[-1]] = kept

    def test_a_fault_in_a_shared_report_is_reported_at_every_step_it_stands_for(self):
        # A repeated step appends the last report object, so a fault in that
        # object is a fault at each of its steps.
        inst = gen_thm3(8, 16, seed=1)
        res = run(inst.trace, inst.params, algo="ums")
        shared, steps = most_shared(res.reports)
        assert len(steps) > 10 and audit_speed_caps(res).ok
        for bad in (10.0, math.nan):
            shared.displacements = [bad] * res.params.k
            audit = audit_speed_caps(res)
            assert repr(audit) == repr(reference_audit_speed_caps(res))
            assert audit.violations == audit.cap_violations == [
                t for t in steps for _ in range(res.params.k)]

        p = params(k=2, mc=1.2, delta=0.5)
        walk = gen_local_walk(60, p, 1.0, seed=4).trace
        trace = Trace([r for r in walk.requests for _ in range(4)], walk.start_config)
        res = run(trace, p, algo="ums", sim="dc-line")
        shared, steps = most_shared(res.reports)
        assert len(steps) > 2 and check_fast_potential(res).ok
        shared.cost = math.nan
        rep = check_fast_potential(res)
        assert rep.violations == steps and math.isnan(rep.min_margin)

    def test_speed_audit_walks_only_the_reports_that_do_not_repeat_the_last(self):
        walked = []

        class Walked(list):
            def __iter__(self):
                walked.append(self)
                return super().__iter__()

        for res in audit_runs():
            reps = res.reports
            for rep in reps:
                rep.displacements = Walked(rep.displacements)
            new = [rep.displacements for prev, rep in zip([None, *reps], reps) if prev is None
                   or (rep.displacements, rep.caps) != (prev.displacements, prev.caps)]
            walked.clear()
            audit_speed_caps(res)
            assert len(walked) == len(new) and all(map(is_, walked, new))
            if res.params.k == 8:
                assert len(new) < len(reps) / 50

    def test_projection_check_requires_projection(self):
        p = params(mc=0.5)
        inst = gen_local_walk(5, p, 1.0, seed=0)
        res = run(inst.trace, p, algo="ums", sim="dc-line")
        with pytest.raises(InputError):
            check_projection_bound(res)

    def test_projection_check_on_slow_run(self):
        inst = gen_thm4(2, 32, ms=1.0, mc=4.0, z_choice=3)
        res = run(inst.trace, inst.params, algo="ums", sim="dc-line")
        audit = check_projection_bound(res)
        assert audit.ok
        assert audit.bound == (8 * 2 + 1) * inst.params.mc
