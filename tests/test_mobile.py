import contextlib
import dataclasses
import json
import math
import random
import warnings
from operator import is_
from unittest import mock

import pytest

from kmobile import mobile
from kmobile.adversary import gen_local_walk, gen_thm3, gen_thm4
from kmobile.checks import audit_speed_caps, default_y, potential_factors
from kmobile.cli import _steps_csv
from kmobile.core import (
    ContractViolationError,
    InputError,
    ProblemParams,
    Trace,
    check_dims,
    min_weight_matching,
    move_toward,
    read_trace,
    validate_trace,
    write_trace,
)
from kmobile.experiment import ExperimentSpec, build_instance, fmt, run_experiment
from kmobile.kserver import (
    DoubleCoverageLine,
    GreedyServer,
    GuidanceSimulator,
    PageMigrationCounter,
    ScriptedSimulator,
    SimStep,
    SplitServeLine,
)
from kmobile.mobile import ALGO_TAGS, STEP_FIELDS, MobileRun, RunResult, derive_mode, run
from kmobile.projection import ProjectionWrapper


def params(**kw):
    base = dict(k=1, ms=1.0, mc=1.0, delta=0.5, D=1.0, dim=1)
    base.update(kw)
    return ProblemParams(**base)


class UnmeasuredScript(ScriptedSimulator):
    """Emits its configurations without measuring or checking them."""

    def step(self, r):
        self.positions = self.script[self.t]
        self.t += 1
        return SimStep(self.positions, 0.0, 0.0)


class TestModeDerivation:
    def test_fast_when_requests_slower(self):
        mode, eps = derive_mode(params(mc=0.9, delta=0.0), "ums")
        assert mode == "fast"
        assert abs(eps - 0.1) < 1e-12

    def test_slow_at_equality(self):
        mode, eps = derive_mode(params(mc=1.5, delta=0.5), "ums")
        assert mode == "slow" and eps is None

    def test_wms_clamps_to_half(self):
        mode, eps = derive_mode(params(mc=0.2, delta=0.0), "wms")
        assert mode == "fast" and eps == 0.5

    def test_ums_clamp_below_one(self):
        mode, eps = derive_mode(params(mc=0.01, delta=0.5), "ums")
        assert mode == "fast" and eps < 1.0


class TestUmsStep:
    def test_greedy_branch_when_matched_cannot_reach(self):
        p = params(k=1, delta=0.5, ms=1.0, mc=10.0)
        sim = GreedyServer([(0.0,)])
        m = MobileRun(p, "ums", sim, ((0.0,),))
        rep = m.step((5.0,))
        assert rep.branch == "greedy"
        assert rep.positions == ((1.25,),)
        assert rep.serving == 3.75
        assert rep.caps[0] == 1.25

    def test_zero_cost_when_already_served(self):
        p = params(k=1, mc=10.0)
        sim = GreedyServer([(3.0,)])
        m = MobileRun(p, "ums", sim, ((3.0,),))
        rep = m.step((3.0,))
        assert rep.branch == "matched"
        assert rep.cost == 0.0

    def test_matched_branch_moves_all_toward_counterparts(self):
        p = params(k=2, delta=0.0, ms=2.0, mc=10.0)
        script = [[(1.0,), (10.0,)]]
        sim = ScriptedSimulator([(0.0,), (10.0,)], script)
        m = MobileRun(p, "ums", sim, ((0.0,), (6.0,)))
        rep = m.step((1.0,))
        assert rep.branch == "matched"
        assert rep.positions == ((1.0,), (8.0,))
        assert rep.serving == 0.0

    def test_contract_violation_when_no_sim_server_on_request(self):
        p = params(k=1, mc=10.0)
        sim = ScriptedSimulator([(0.0,)], [[(0.0,)]])
        m = MobileRun(p, "ums", sim, ((0.0,),))
        with pytest.raises(ContractViolationError):
            m.step((5.0,))

    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("sim_measures", [True, False])
    def test_wrong_dimension_guidance_is_an_input_error(self, project, sim_measures):
        p = params(k=2, mc=10.0)
        start = ((0.0,), (4.0,))
        script = [[(1.0,), (4.0, 0.0)]]
        sim = (ScriptedSimulator if sim_measures else UnmeasuredScript)(start, script)
        if project:
            sim = ProjectionWrapper(sim, p, weighted=False)
        m = MobileRun(p, "ums", sim, start)
        with pytest.raises(InputError):
            m.step((1.0,))

    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("sim_measures", [True, False])
    def test_wrong_dimension_guidance_after_repeats_is_an_input_error(self, project,
                                                                      sim_measures):
        # Repeats skip the checks of values already checked; a new
        # configuration of the wrong dimension is checked all the same.
        p = params(k=2, mc=10.0)
        conf, r = ((1.0,), (4.0,)), (1.0,)
        script = [conf] * 3 + [((1.0,), (4.0, 0.0))]
        sim = (ScriptedSimulator if sim_measures else UnmeasuredScript)(conf, script)
        if project:
            sim = ProjectionWrapper(sim, p, weighted=False)
        m = MobileRun(p, "ums", sim, conf)
        for _ in range(3):
            m.step(r)
        with pytest.raises(InputError):
            m.step(r)

    @pytest.mark.parametrize("project", [False, True])
    def test_wrong_dimension_request_after_repeats_is_an_input_error(self, project):
        p = params(k=2, mc=10.0)
        conf, r = ((1.0,), (4.0,)), (1.0,)
        sim = UnmeasuredScript(conf, [conf] * 4)
        if project:
            sim = ProjectionWrapper(sim, p, weighted=False)
        m = MobileRun(p, "ums", sim, conf)
        for _ in range(3):
            m.step(r)
        with pytest.raises(InputError):
            m.step((1.0, 0.0))

    def test_fast_mode_serves_every_request_from_start(self):
        p = params(k=2, ms=1.0, mc=0.5, delta=0.0)
        inst = gen_local_walk(60, p, 1.0, seed=12)
        res = run(inst.trace, p, algo="ums", sim="dc-line")
        assert res.serving_total == 0.0


class TestWmsStep:
    def test_slow_mode_scaled_move(self):
        p = params(k=1, ms=1.0, mc=2.0, delta=0.5, D=2.0)
        sim = PageMigrationCounter([(0.0,)], D=2.0)
        m = MobileRun(p, "wms", sim, ((0.0,),))
        rep = m.step((10.0,))
        assert rep.branch == "tentative"
        assert rep.positions == ((1.25,),)
        assert rep.serving == 8.75
        assert rep.cost == 8.75 + 2.0 * 1.25

    def test_no_movement_when_mover_on_request(self):
        p = params(k=2, ms=1.0, mc=2.0, delta=0.5, D=2.0)
        script = [[(40.0,), (80.0,)]]
        sim = ScriptedSimulator([(40.0,), (80.0,)], script)
        m = MobileRun(p, "wms", sim, ((5.0,), (9.0,)))
        rep = m.step((5.0,))
        assert rep.movement == 0.0
        assert rep.serving == 0.0

    def test_fallback_when_other_server_ends_closer(self):
        p = params(k=2, ms=1.0, mc=0.75, delta=0.5, D=2.0)
        script = [[(10.0,), (20.0,)]]
        sim = ScriptedSimulator([(10.0,), (20.0,)], script)
        m = MobileRun(p, "wms", sim, ((9.0,), (8.9,)))
        rep = m.step((10.0,))
        assert rep.branch == "fallback"
        assert rep.positions == ((10.0,), (9.9,))
        assert rep.caps == [1.0, 1.0]  # fallback moves at ms
        assert rep.serving == 0.0

    def test_d_below_two_warns(self):
        p = params(k=1, ms=1.0, mc=0.5, delta=0.0, D=1.0)
        inst = gen_local_walk(5, p, 1.0, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(inst.trace, p, algo="wms", sim="pm-counter")
        assert any("intended for D >= 2" in str(w.message) for w in caught)


class TestRun:
    def test_stationary_trace_costs_nothing(self):
        p = params(k=2, mc=1.0, ms=1.0, delta=0.0)
        trace = Trace(requests=[(0.0,)] * 10, start_config=((0.0,), (0.0,)))
        res = run(trace, p, algo="ums")
        assert res.grand_total == 0.0

    def test_settings_are_derived_and_read_only(self):
        assert [f.name for f in dataclasses.fields(RunResult)] == [
            "algo", "sim_tag", "params", "reports", "psi0_matched_sum", "projection_audit"]
        p = params(k=1, mc=0.5, ms=1.0, delta=0.0, D=2.0)
        res = run(gen_local_walk(10, p, 1.0, seed=1).trace, p, algo="wms", sim="pm-counter")
        assert (res.mode, res.epsilon, res.weighted, res.project) == ("fast", 0.5, True, False)
        for key in ("mode", "epsilon", "weighted", "project"):
            with pytest.raises(AttributeError):
                setattr(res, key, getattr(res, key))

    def test_projection_auto_matches_mode(self):
        p_fast = params(k=1, mc=0.5, ms=1.0, delta=0.0)
        p_slow = params(k=1, mc=2.0, ms=1.0, delta=0.5)
        inst = gen_local_walk(10, p_fast, 1.0, seed=1)
        assert not run(inst.trace, p_fast, algo="ums").project
        inst = gen_local_walk(10, p_slow, 1.0, seed=1)
        assert run(inst.trace, p_slow, algo="ums").project
        assert not run(inst.trace, p_slow, algo="ums", project="off").project

    def test_speed_caps_respected(self):
        p = params(k=3, mc=2.0, ms=0.5, delta=0.9, dim=2)
        inst = gen_local_walk(80, p, 1.0, seed=4)
        for algo in ("ums", "simple"):
            res = run(inst.trace, p, algo=algo, sim="greedy")
            cap = (1 + p.delta) * p.ms
            assert audit_speed_caps(res).max_displacement <= cap + 1e-9

    def test_a_run_checks_the_certificate_a_sweep_never_builds(self, monkeypatch):
        # A sweep's generated instances carry no certificate, so no run of one measures it.
        validated = []

        def record_validate(trace, params):
            validated.append(trace)
            return validate_trace(trace, params)

        monkeypatch.setattr(mobile, "validate_trace", record_validate)
        with mock.patch("kmobile.experiment.run_mobile", wraps=run) as runs:
            for construction, base in (("thm3", {"x": 16}), ("thm4", {"x": 16, "mc": 2.0})):
                spec = ExperimentSpec(construction=construction, sim="dc-line", base=base,
                                      sweep={"k": [2, 3]})
                assert run_experiment(spec)[1]["all_ok"]
        assert len(validated) == runs.call_count == 10  # k=2 runs each of its four targets
        assert [trace.certificate for trace in validated] == [None] * 10
        # A run given a certificate checks it: one the trace's own ms forbids is refused,
        # and so is one of the wrong shape.
        inst = gen_thm3(2, 16, seed=0)
        cert = list(inst.trace.certificate)
        cert[4] = ((cert[4][0][0] + 500.0,), *cert[4][1:])
        far_move = dataclasses.replace(inst.trace, certificate=cert)
        assert validate_trace(far_move, inst.params).kind == "certificate-speed"
        with pytest.raises(InputError, match="^invalid trace: .*certificate-speed"):
            run(far_move, inst.params)
        one_server = dataclasses.replace(
            inst.trace, certificate=[conf[:1] for conf in inst.trace.certificate])
        with pytest.raises(InputError, match="^certificate step 1 has 1 servers$"):
            run(one_server, inst.params)

    def test_deterministic_ledgers(self):
        p = params(k=2, mc=1.0, ms=0.6, delta=0.5)
        inst = gen_local_walk(50, p, 1.0, seed=9)
        r1 = run(inst.trace, p, algo="ums")
        r2 = run(inst.trace, p, algo="ums")
        assert [rep.serving for rep in r1.reports] == [rep.serving for rep in r2.reports]
        assert [rep.movement for rep in r1.reports] == [rep.movement for rep in r2.reports]
        assert record_dict(r1) == record_dict(r2)

    def test_invalid_trace_rejected(self):
        p = params(k=1, mc=0.5)
        trace = Trace(requests=[(0.0,), (5.0,)], start_config=((0.0,),))
        with pytest.raises(InputError):
            run(trace, p)

    def test_run_result_roundtrip(self):
        p = params(k=2, mc=1.0, ms=0.6, delta=0.5)
        inst = gen_local_walk(20, p, 1.0, seed=9)
        res = run(inst.trace, p, algo="ums")
        assert res.to_dict() == record_dict(res)
        clone = RunResult.from_dict(res.to_dict())
        assert record_dict(clone) == record_dict(res)
        assert clone.grand_total == res.grand_total

    def test_run_result_rejects_negative_step_cost(self):
        p = params(k=2, mc=1.0, ms=0.6, delta=0.5)
        record = record_dict(run(gen_local_walk(5, p, 1.0, seed=9).trace, p, algo="ums"))
        for key in ("serving", "movement", "cost", "sim_serving", "sim_movement", "sim_cost",
                    "matched_sum"):
            bad = json.loads(json.dumps(record))
            bad["steps"][2][key] = -0.5
            with pytest.raises(InputError, match=f"^run record step 3: {key} holds a negative "
                                                 "cost, got -0.5$"):
                RunResult.from_dict(bad)
        for key, value, message in (
                ("psi0_matched_sum", -1e-300, "psi0_matched_sum is negative, got -1e-300"),
                ("sim", 5, "sim must be a string, got 5"),
                ("sim", None, "sim must be a string, got None")):
            with pytest.raises(InputError, match=f"^run record {message}$"):
                RunResult.from_dict(dict(record, **{key: value}))

    def test_simple_ignores_greedy_move(self):
        p = params(k=2, mc=1.0, ms=1.0, delta=0.0)
        reqs = [(float(t),) for t in range(1, 6)]
        trace = Trace(requests=reqs, start_config=((0.0,), (0.0,)))
        res = run(trace, p, algo="simple", sim="greedy", project="off")
        assert all(rep.branch == "matching-only" for rep in res.reports)

    def test_ums_with_work_function_guidance(self):
        p = params(k=2, mc=0.5, ms=1.0, delta=0.0, dim=2)
        inst = gen_local_walk(15, p, 1.0, seed=6)
        res = run(inst.trace, p, algo="ums", sim="wfa")
        assert res.sim_tag == "wfa"
        assert res.serving_total == 0.0
        from kmobile.checks import check_fast_potential

        assert check_fast_potential(res).ok

    def test_step_matchings_are_optimal(self):
        # cross-check the matchings recorded by a run against brute force
        import itertools

        for k in (3, 5):
            p = params(k=k, mc=0.8, ms=1.0, delta=0.0, dim=2)
            inst = gen_local_walk(25, p, 1.0, seed=k)
            res = run(inst.trace, p, algo="ums", sim="greedy")
            prev = list(inst.trace.start_config)
            for rep in res.reports:
                best = min(sum(math.dist(prev[i], rep.sim_positions[j])
                               for i, j in enumerate(perm))
                           for perm in itertools.permutations(range(k)))
                used = sum(math.dist(prev[i], rep.sim_positions[rep.perm[i]])
                           for i in range(k))
                assert abs(used - best) <= 1e-9
                prev = list(rep.positions)


def json_value(shape, value):
    """A step field as the record holds it: a list for each sequence."""
    if shape == "config":
        return [list(p) for p in value]
    if shape in ("list", "point"):
        return list(value)
    return value


def record_dict(res):
    """The run record built field by field from STEP_FIELDS, the reference for to_json.

    A step's number "t" is its report's index + 1.
    """
    steps = [{key: t if field is None else json_value(shape, getattr(r, field))
              for key, (field, shape) in STEP_FIELDS.items()}
             for t, r in enumerate(res.reports, 1)]
    return dict(res._head(), steps=steps)


def stdlib_record(res, extra):
    """The record text as the stdlib's indenting encoder writes it."""
    return json.dumps(dict(record_dict(res), **extra), sort_keys=True, indent=2)


def fmt_steps_csv(result):
    """The per-step CSV as written before its one-template writer, one fmt call a cell."""
    if result.mode == "fast" and result.algo in ("ums", "wms"):
        psi_f, _ = potential_factors(result)
    else:
        p = result.params
        psi_f = default_y(p) * p.mc / (p.delta * p.ms) if p.delta > 0 else 0.0
        if result.weighted:
            psi_f *= p.D
    lines = ["t,serving,movement,psi\n"]
    for t, rep in enumerate(result.reports, 1):
        lines.append(",".join([str(t), fmt(rep.serving), fmt(rep.movement),
                               fmt(psi_f * rep.matched_sum)]) + "\n")
    return "".join(lines)


def writer_matrix():
    """Seeded runs over every algorithm, k=1..8 and dims 1-3, both modes, projection on and off."""
    rng = random.Random(2024)
    for algo in ALGO_TAGS:
        for k in range(1, 9):
            for dim in (1, 2, 3):
                fast = rng.random() < 0.5
                p = params(k=k, dim=dim, ms=1.0, mc=rng.choice((0.6, 1.2) if fast else (2.0, 3.5)),
                           delta=0.5, D=rng.choice((1.0, 2.0, 3.7)) if algo == "wms" else 1.0)
                inst = gen_local_walk(12, p, rng.choice((0.5, 1.0)), seed=rng.randrange(10**6))
                sim = "greedy" if dim > 1 and algo != "wms" else "auto"
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    yield run(inst.trace, p, algo=algo, sim=sim,
                              project=rng.choice(("on", "off")))


def huge_coordinate_run():
    """A run whose distances overflow, so that its record holds NaN and Infinity.

    validate_trace rejects such a trace as an input error; the run skips it.
    """
    p = ProblemParams(k=1, ms=1e308, mc=1e308, delta=0.0, D=1.0, dim=1)
    trace = Trace(requests=[(-1.7e308,)], start_config=((1.7e308,),))
    with mock.patch("kmobile.mobile.validate_trace", return_value=None):
        return run(trace, p, algo="ums")


def bits(value):
    """A step field with every float spelled by float.hex, so -0.0 and NaN compare exactly."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [bits(v) for v in value]
    return value


def report_bits(rep):
    return {f.name: bits(getattr(rep, f.name)) for f in dataclasses.fields(rep)}


def reference_apply(positions, targets, caps):
    """MobileRun._apply as it was: move_toward per server, then math.dist per server."""
    new_pos = tuple(move_toward(p, tgt, cap) for p, tgt, cap in zip(positions, targets, caps))
    return new_pos, list(map(math.dist, positions, new_pos))


class TestRecordWriter:
    EXTRA = {"trace_path": 'dir "q" \\ ünïcöde\n"steps": null\n  "steps": null',
             "seed": 7, "speed_audit": {"ok": True, "max_displacement": 1.5, "cap": 1.5}}

    def test_text_and_csv_equal_the_stdlib_reference(self):
        seen = set()
        for res in writer_matrix():
            assert res.to_json(self.EXTRA) == stdlib_record(res, self.EXTRA)
            assert _steps_csv(res) == fmt_steps_csv(res)
            seen |= {(res.mode, res.project)} | {rep.mover is None for rep in res.reports}
        assert seen >= {("fast", True), ("fast", False), ("slow", True), ("slow", False),
                        True, False}

    def test_non_finite_floats_are_spelled_as_json_spells_them(self):
        res = huge_coordinate_run()
        text = res.to_json(self.EXTRA)
        assert text == stdlib_record(res, self.EXTRA)
        assert "NaN" in text and "Infinity" in text
        assert _steps_csv(res) == fmt_steps_csv(res)
        nan, inf = float("nan"), float("inf")
        p = params(k=2, mc=0.6)
        res = run(gen_local_walk(5, p, 1.0, seed=3).trace, p, algo="ums")
        res.reports[2] = dataclasses.replace(
            res.reports[2], serving=nan, movement=inf, cost=-inf, matched_sum=-0.0,
            caps=[nan, -inf], positions=((-0.0,), (inf,)), request=(-0.0,))
        text = res.to_json(self.EXTRA)
        assert text == stdlib_record(res, self.EXTRA)
        assert "-Infinity" in text and "-0.0" in text
        assert _steps_csv(res) == fmt_steps_csv(res)

    def test_record_without_steps(self):
        p = params(k=2, mc=0.6)
        res = run(gen_local_walk(3, p, 1.0, seed=3).trace, p, algo="ums")
        res = dataclasses.replace(res, reports=[])
        assert res.to_json({}) == stdlib_record(res, {})
        assert RunResult.from_dict(json.loads(res.to_json({}))).to_json({}) == res.to_json({})

    def test_reader_gives_back_every_report_field(self):
        for res in writer_matrix():
            clone = RunResult.from_dict(json.loads(res.to_json(self.EXTRA)))
            assert list(map(report_bits, clone.reports)) == list(map(report_bits, res.reports))


class TestStepMove:
    def test_apply_equals_the_move_toward_reference(self):
        rng = random.Random(11)
        seen = set()
        for k in range(1, 9):
            for dim in (1, 2, 3):
                p = params(k=k, dim=dim)
                for _ in range(40):
                    pos = [tuple(rng.uniform(-3.0, 3.0) for _ in range(dim)) for _ in range(k)]
                    if k > 1 and rng.random() < 0.3:
                        pos[-1] = pos[0]  # co-located servers
                    targets = [q if rng.random() < 0.2 else
                               tuple(rng.uniform(-3.0, 3.0) for _ in range(dim)) for q in pos]
                    caps = []
                    for q, tgt in zip(pos, targets):
                        kind = rng.choice(("zero", "exact", "above", "below"))
                        d = math.dist(q, tgt)
                        caps.append({"zero": 0.0, "exact": d, "above": d + rng.random(),
                                     "below": d * rng.random()}[kind])
                        seen.add(kind if d > 0.0 else "at-target")
                    mrun = MobileRun(p, "ums", GreedyServer(pos), pos)
                    got = mrun._apply(targets, caps)
                    want = reference_apply(tuple(pos), targets, caps)
                    assert bits(got) == bits(want), (k, dim, pos, targets, caps)
        assert seen == {"zero", "exact", "above", "below", "at-target"}

    def test_apply_rejects_a_negative_cap(self):
        mrun = MobileRun(params(k=2), "ums", GreedyServer([(0.0,), (1.0,)]), [(0.0,), (1.0,)])
        with pytest.raises(InputError, match="nonnegative"):
            mrun._apply([(1.0,), (2.0,)], [1.0, -0.5])

    def test_tentative_branch_returns_the_move_it_applied(self):
        policy = MobileRun._POLICIES["wms"]
        moves = {}

        def spy(mrun, r, c, perm, matched):
            out = policy(mrun, r, c, perm, matched)
            branch, _, caps, targets, moved = out
            if branch == "tentative":
                t = len(mrun.reports) + 1
                assert bits(moved) == bits(mrun._apply(targets, caps)), t
                moves[t] = moved[0]
            return out

        p = params(k=3, mc=0.8, ms=1.0, delta=0.5, D=2.5, dim=2)
        inst = gen_local_walk(300, p, 1.0, seed=5)
        with mock.patch.dict(MobileRun._POLICIES, {"wms": spy}):
            res = run(inst.trace, p, algo="wms")
        assert len(moves) > 100
        for t, positions in moves.items():
            assert bits(res.reports[t - 1].positions) == bits(positions)


def reused_steps(reports):
    """How many steps repeated the last step's numbers, read from the reports alone.

    A step repeats the last one when that step settled (it did not move,
    and every server ended on its target: its matched guidance point, or
    the request for the mover) and the request and the guidance are the
    same by value.
    """
    count = 0
    for prev, rep in zip(reports, reports[1:]):
        targets = [prev.sim_positions[j] for j in prev.perm]
        if prev.mover is not None:
            targets[prev.mover] = prev.request
        count += (prev.movement == 0.0 and list(prev.positions) == targets
                  and rep.request == prev.request and rep.sim_positions == prev.sim_positions)
    return count


def run_and_reference(make, **kw):
    """A run, and the same run with every step measured in full (``per_step``).

    ``make`` gives run's leading arguments (trace and parameters, maybe
    algorithm and simulator); it is called once per run, so that a
    simulator instance is never shared.
    """
    res = run(*make(), **kw)
    with per_step():
        ref = run(*make(), **kw)
    return res, ref


def per_step():
    """Patches under which no guidance is ever settled: each step runs in full."""
    stack = contextlib.ExitStack()
    for cls in (GuidanceSimulator, GreedyServer, DoubleCoverageLine, PageMigrationCounter,
                SplitServeLine, ProjectionWrapper):
        stack.enter_context(mock.patch.object(cls, "settled", lambda self, r: False))
    return stack


def distinct(reports):
    """How many report objects stand for the steps: one matching each."""
    return len(set(map(id, reports)))


def repeated(points, times):
    """Each point ``times`` times in a row."""
    return [p for p in points for _ in range(times)]


def signed_zero_trace():
    """A 1-D trace whose repeated request alternates (0.0,) and (-0.0,)."""
    requests = repeated([(0.0,), (-0.0,)] * 3 + [(0.5,), (0.0,)] + [(-0.0,), (0.0,)] * 3, 3)
    return Trace(requests, ((-0.0,), (0.0,), (1.0,))), params(k=3, ms=1.0, mc=1.0, delta=0.5)


def instance(gen, *args, **kw):
    """A maker of the trace and parameters of a generated instance."""
    def make():
        inst = gen(*args, **kw)
        return inst.trace, inst.params
    return make


def reuse_cases():
    for k in (2, 4, 8):
        yield pytest.param(instance(gen_thm3, k, 16, seed=k), dict(algo="ums", project="on"),
                           id=f"thm3-k{k}")
    yield pytest.param(instance(gen_thm4, 3, 16, ms=1.0, mc=4.0, D=2.0, seed=1),
                       dict(algo="wms"), id="thm4-wms")

    def repeated_walk(p, seed, times, far):
        walk = gen_local_walk(40, p, 1.0, seed=seed).trace.requests
        return lambda: (Trace(repeated(walk, times), (walk[0],) * (p.k - 1) + (far,)), p)

    yield pytest.param(repeated_walk(params(k=2, ms=1.0, mc=1.2, delta=0.5, D=3.0), 8, 4, (2.0,)),
                       dict(algo="wms", sim="pm-counter"), id="pm-counter-walk")
    yield pytest.param(repeated_walk(params(k=3, ms=1.0, mc=1.0, delta=0.5, dim=2), 9, 3,
                                     (3.0, 0.0)),
                       dict(algo="ums", sim="greedy", project="off"), id="planar-greedy")

    def moving_guidance():
        # The request stays while the guidance moves a server now and then.
        script = repeated([((0.0,), (x,)) for x in (5.0, 5.5, 6.0, 5.0)], 3)
        return (Trace([(0.0,)] * len(script), script[0]), params(k=2, mc=1.0), "ums",
                ScriptedSimulator(script[0], script))

    yield pytest.param(moving_guidance, dict(project="off"), id="moving-guidance")

    def fixed_guidance():
        # One guidance object throughout, while equal requests of both zero signs
        # alternate: the settled mover must take each step's own request.
        conf = ((0.0,), (5.0,))
        requests = repeated([(0.0,), (-0.0,)] * 4, 2)
        return (Trace(requests, conf), params(k=2, mc=1.0, D=2.0), "wms",
                ScriptedSimulator(conf, [conf] * len(requests)))

    yield pytest.param(fixed_guidance, dict(project="off"), id="fixed-guidance-signed-zero")
    for project in ("on", "off"):
        yield pytest.param(dc_signed_zero_trace, dict(project=project),
                           id=f"dc-signed-zero-{project}")
    for algo, sim in (("ums", "dc-line"), ("ums", "greedy"), ("wms", "pm-counter")):
        for project in ("on", "off"):
            yield pytest.param(signed_zero_trace, dict(algo=algo, sim=sim, project=project),
                               id=f"signed-zero-{algo}-{sim}-{project}")


def fresh_copy(trace):
    """The trace with every point in a new tuple, as a trace read from a file has them."""
    def point(p):
        return tuple(list(p))

    def config(conf):
        return tuple(map(point, conf))

    cert = trace.certificate
    return Trace([point(r) for r in trace.requests], config(trace.start_config),
                 None if cert is None else [config(conf) for conf in cert])


def fresh_copy_cases():
    slow = dict(algo="ums", sim="dc-line", project="on")
    for k in (2, 4, 8):
        yield pytest.param(instance(gen_thm3, k, 16, seed=k), slow, True, id=f"thm3-k{k}")
        yield pytest.param(instance(gen_thm4, k, 16, ms=1.0, mc=2.0, seed=k), slow, True,
                           id=f"thm4-k{k}")
    p = params(k=2, ms=1.0, mc=1.2, delta=0.5)
    walk = gen_local_walk(300, p, 1.0, seed=4).trace
    fast = dict(algo="ums", sim="dc-line")
    yield pytest.param(lambda: (walk, p), fast, False, id="walk")
    yield pytest.param(lambda: (Trace(repeated(walk.requests, 3), walk.start_config), p), fast,
                       True, id="repeated-walk")


def dc_signed_zero_trace():
    """A dc-line trace that repeats request objects, with zeros of both signs throughout."""
    zero, neg = (0.0,), (-0.0,)
    requests = repeated([neg, zero, neg, (2.0,), (1.0,), zero, (3.0,), neg, (-1.0,), zero,
                         (0.5,), neg, zero], 3)
    return (Trace(requests, ((0.0,), (-0.0,), (3.0,), (-0.0,))),
            params(k=4, ms=1.0, mc=4.0, delta=0.5), "ums", "dc-line")


class TestReuse:
    @pytest.mark.parametrize("make,kw", reuse_cases())
    def test_reused_steps_equal_measured_ones(self, make, kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res, ref = run_and_reference(make, **kw)
        assert res.to_json({}) == ref.to_json({})
        assert res.reports == ref.reports
        assert list(map(report_bits, res.reports)) == list(map(report_bits, ref.reports))
        assert res.projection_audit == ref.projection_audit
        assert reused_steps(res.reports) > 0

    def test_record_spells_each_zero_as_its_step_inputs(self):
        res, ref = run_and_reference(signed_zero_trace, algo="ums", sim="greedy")
        text = res.to_json({})
        assert text == ref.to_json({}) and "-0.0" in text
        flips = 0
        for t, (prev, rep) in enumerate(zip(res.reports, res.reports[1:]), 2):
            if reused_steps([prev, rep]):
                targets = [rep.sim_positions[j] for j in rep.perm]
                if rep.mover is not None:
                    targets[rep.mover] = rep.request
                assert bits(rep.positions) == bits(tuple(targets)), t
                flips += bits(rep.request) != bits(prev.request)
        assert flips > 0

    @pytest.mark.parametrize("make,kw,repeats", fresh_copy_cases())
    def test_fresh_point_objects_give_the_same_bytes(self, make, kw, repeats):
        # Generated traces repeat one tuple object and take the identity path;
        # a trace read from a file has a new tuple per line and compares values.
        trace, p = make()
        copy = fresh_copy(trace)
        assert not any(map(is_, copy.requests, trace.requests))
        res, ref = run(trace, p, **kw), run(copy, p, **kw)
        assert res.to_json({}) == ref.to_json({})
        assert _steps_csv(res) == _steps_csv(ref)
        if repeats:
            assert sum(map(is_, trace.requests, trace.requests[1:])) > len(trace) / 3
            assert reused_steps(res.reports) > len(trace) / 4

    @pytest.mark.parametrize("make,kw,repeats", fresh_copy_cases())
    def test_shared_reports_give_the_bytes_of_unshared_ones(self, make, kw, repeats):
        res, ref = run_and_reference(make, **kw)
        assert distinct(ref.reports) == len(ref.reports)
        assert res.to_json({}) == ref.to_json({}) and _steps_csv(res) == _steps_csv(ref)
        assert list(map(report_bits, res.reports)) == list(map(report_bits, ref.reports))
        assert (distinct(res.reports) < len(res.reports)) == repeats

    def test_a_thm3_run_holds_few_distinct_reports(self):
        inst = gen_thm3(8, 16, seed=8)
        res = run(inst.trace, inst.params, algo="ums", sim="dc-line", project="on")
        assert len(res.reports) == len(inst.trace)
        assert distinct(res.reports) < len(inst.trace) / 4

    @pytest.mark.parametrize("construction", ["thm3", "thm4"])
    def test_sweep_aggregate_is_the_same_with_fresh_point_objects(self, construction):
        def spec():
            base = dict(x=16, ms=1.0, delta=0.5, **({"mc": 2.0} if construction == "thm4" else {}))
            return ExperimentSpec(construction=construction, algo="ums", sim="dc-line",
                                  project="auto", base=base, seeds=[1, 2],
                                  sweep={"k": [2, 4, 8]})

        def fresh_instance(*args, **kwargs):
            inst = build_instance(*args, **kwargs)
            return dataclasses.replace(inst, trace=fresh_copy(inst.trace))

        _, aggregate = run_experiment(spec())
        with mock.patch("kmobile.experiment.build_instance", fresh_instance):
            _, fresh = run_experiment(spec())
        assert json.dumps(aggregate, sort_keys=True) == json.dumps(fresh, sort_keys=True)

    def test_each_step_checks_its_request_and_guidance(self):
        inst = gen_thm3(8, 32, seed=3)
        calls = dict.fromkeys(("mobile", "projection", "kserver"), 0)

        def counting(module):
            def counted(points, dim):
                calls[module] += 1
                return check_dims(points, dim)
            return counted

        with contextlib.ExitStack() as stack:
            for module in calls:
                stack.enter_context(mock.patch(f"kmobile.{module}.check_dims", counting(module)))
            res = run(inst.trace, inst.params, algo="ums", sim="dc-line", project="on")
        reps = res.reports
        new_requests = 1 + sum(rep.request is not prev.request
                               for prev, rep in zip(reps, reps[1:]))
        assert new_requests == 8 and distinct(reps) < len(reps) / 10
        # Each step the run takes checks its request and its guidance, and a report appended
        # again takes none; the projection checks its start and each new request;
        # double coverage reads its one coordinate.
        assert calls == {"mobile": 2 * distinct(reps), "projection": 1 + new_requests,
                         "kserver": 0}

    def test_a_repeat_skips_the_matching(self):
        calls = []

        def counted(a, b):
            calls.append(1)
            return min_weight_matching(a, b)

        p = params(k=2, ms=1.0, mc=1.0, delta=0.5)
        trace = Trace(repeated([(0.0,), (1.0,), (2.0,)], 5), ((0.0,), (0.0,)))
        with mock.patch("kmobile.mobile.min_weight_matching", counted):
            res = run(trace, p, algo="ums", sim="dc-line")
        # Each block takes a full step, finds double coverage settled and takes one
        # more step with its free SimStep, which leaves each server the object it was: that
        # report stands for the block's other three steps.
        assert reused_steps(res.reports) == 4 + 3 + 3
        assert len(calls) == distinct(res.reports) + 1 == len(trace) - 3 * 3 + 1

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_a_thm3_trace_read_from_a_file_runs_as_the_generated_one(self, tmp_path, k):
        # read_trace shares a repeated request's tuple, as the generator does.
        inst = gen_thm3(k, 16, seed=k)
        path = str(tmp_path / "thm3.jsonl")
        write_trace(path, inst.trace, inst.params)
        trace, p = read_trace(path)
        assert not any(map(is_, trace.requests, inst.trace.requests))
        kw = dict(algo="ums", sim="dc-line", project="on")
        (gen, gen_calls), (read, read_calls) = (counted_run(t, p, **kw)
                                                for t in (inst.trace, trace))
        assert read.to_json({}) == gen.to_json({}) and _steps_csv(read) == _steps_csv(gen)
        assert read_calls == gen_calls == distinct(gen.reports) + 1
        assert distinct(gen.reports) < len(trace) / 2

    @pytest.mark.parametrize("project", ["on", "off"])
    @pytest.mark.parametrize("sim,dim,k,bulk", [("greedy", 2, 3, True), ("wfa", 2, 2, False),
                                                ("split-serve", 1, 2, True)])
    def test_repeated_walks_take_repeats_in_bulk_where_the_guidance_offers_them(
            self, sim, dim, k, bulk, project):
        # Greedy and split-serve are settled once the server they place on the
        # request is that request object; the work function never is.
        p = params(k=k, ms=1.0, mc=1.0, delta=0.5, dim=dim)
        walk = gen_local_walk(12, p, 1.0, seed=3).trace.requests
        trace = Trace(repeated(walk, 4), (walk[0],) * k)
        res, calls = counted_run(trace, p, algo="ums", sim=sim, project=project)
        assert calls == distinct(res.reports) + 1
        assert reused_steps(res.reports) >= len(walk)
        if bulk:
            assert len(res.reports) - distinct(res.reports) >= len(walk)
        else:
            assert distinct(res.reports) == len(trace)


def counted_run(trace, p, **kw):
    """A run, and how many matchings it computed."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return min_weight_matching(a, b)

    with mock.patch("kmobile.mobile.min_weight_matching", counted):
        return run(trace, p, **kw), len(calls)


def bulk_cases():
    for k in (2, 4, 8):
        for project in ("on", "off"):
            yield pytest.param(instance(gen_thm3, k, 16, seed=k),
                               dict(algo="ums", sim="dc-line", project=project),
                               id=f"thm3-k{k}-{project}")
    for k in (2, 4):
        yield pytest.param(instance(gen_thm4, k, 16, ms=1.0, mc=2.0, seed=k),
                           dict(algo="ums", sim="dc-line", project="on"), id=f"thm4-k{k}")
    for project in ("on", "off"):
        yield pytest.param(dc_signed_zero_trace, dict(project=project),
                           id=f"dc-signed-zero-{project}")
    walk = [case for case in fresh_copy_cases() if case.id == "repeated-walk"][0]
    yield pytest.param(*walk.values[:2], id="repeated-walk")


class TestBulkRepeats:
    @pytest.mark.parametrize("make,kw", bulk_cases())
    def test_bulk_repeats_give_the_bytes_of_single_steps(self, make, kw):
        res, ref = run_and_reference(make, **kw)
        assert res.to_json({}) == ref.to_json({}) and _steps_csv(res) == _steps_csv(ref)
        assert list(map(report_bits, res.reports)) == list(map(report_bits, ref.reports))
        audits = res.projection_audit, ref.projection_audit
        assert (audits[0] is None) == (audits[1] is None)
        if audits[0] is not None:
            assert bits(list(audits[0].values())) == bits(list(audits[1].values()))
            assert list(audits[0]) == list(audits[1])
        assert distinct(res.reports) < len(res.reports) == distinct(ref.reports)

    def test_double_coverage_steps_a_few_of_a_thm3_run(self):
        inst = gen_thm3(8, 32, seed=5)
        step, calls = DoubleCoverageLine.step, []

        def counted(self, r):
            calls.append(1)
            return step(self, r)

        with mock.patch.object(DoubleCoverageLine, "step", counted):
            res = run(inst.trace, inst.params, algo="ums", sim="dc-line", project="on")
        assert len(res.reports) == len(inst.trace)
        assert len(calls) < len(inst.trace) / 10

    def test_the_projection_changes_nothing_unless_it_repeats(self):
        # Asking changes nothing, and the answer is yes only for the last request object,
        # served for nothing, under settled guidance.
        class Still(ScriptedSimulator):
            """Holds its start and calls itself settled throughout."""

            def step(self, r):
                return SimStep(self.positions, min(math.dist(p, r) for p in self.positions), 0.0)

            def settled(self, r):
                return True

        p = params(k=2, ms=1.0, mc=1.0, delta=0.5)  # inner radius 8
        r, other = (0.5,), tuple([0.5])  # equal, but not the last request object
        start = ((0.0,), (3.0,))
        for inner, request, want in ((ScriptedSimulator(start, [((0.5,), (3.0,))] * 3), r, False),
                                     (DoubleCoverageLine(start), other, False),
                                     (DoubleCoverageLine(start), r, True),
                                     (Still(((20.0,), (30.0,)), []), r, False),  # serves at 8
                                     (Still(((0.5,), (3.0,)), []), r, True)):
            wrapper = ProjectionWrapper(inner, p, weighted=False)
            for _ in range(3):
                wrapper.step(r)
            before = bits([*vars(wrapper).items(), *vars(inner).items()])
            assert wrapper.settled(request) is want
            assert bits([*vars(wrapper).items(), *vars(inner).items()]) == before
