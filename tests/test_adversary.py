import dataclasses
import itertools
import math
import random
from operator import is_

import pytest

from kmobile.adversary import (
    GeneratedInstance,
    gen_local_walk,
    gen_simple_counterexample,
    gen_thm3,
    gen_thm4,
    local_walk_requests,
)
from kmobile.core import (
    InputError,
    ProblemParams,
    Trace,
    certificate_cost,
    move_toward,
    positive,
    total,
    validate_trace,
)


class TestThm3:
    def test_two_server_structure(self):
        inst = gen_thm3(2, 64, D=1.0, ms=1.0, z_choice=2)
        assert inst.choices["Z"] == [16.0]
        assert len(inst.trace) == 64 + 8
        assert inst.trace.requests[:64] == [(0.0,)] * 64
        assert inst.trace.requests[64:] == [(16.0,)] * 8
        assert validate_trace(inst.trace, inst.params) is None

    def test_target_candidates(self):
        zs = {gen_thm3(2, 64, z_choice=i).choices["Z"][0] for i in range(4)}
        assert zs == {-48.0, -16.0, 16.0, 48.0}

    def test_certificate_cost_within_bound(self):
        for i in range(4):
            inst = gen_thm3(2, 64, D=1.0, ms=1.0, z_choice=i)
            cc = certificate_cost(inst.trace, inst.params)
            assert cc <= inst.offline_cost_bound * (1 + 1e-6)
        # farthest choice costs exactly |Z| = 48
        inst = gen_thm3(2, 64, D=1.0, ms=1.0, z_choice=3)
        assert abs(certificate_cost(inst.trace, inst.params) - 48.0) < 1e-9

    def test_reported_online_lower_bound(self):
        inst = gen_thm3(2, 64, z_choice=0)
        assert abs(inst.online_cost_lower_bound - 64 * 64 / 264.0) < 1e-9

    def test_x_must_be_multiple_of_eight(self):
        with pytest.raises(InputError):
            gen_thm3(2, 63)
        with pytest.raises(InputError):
            gen_thm3(1, 64)

    def test_general_k_segments(self):
        inst = gen_thm3(3, 16, seed=5)
        zs = inst.choices["Z"]
        assert len(zs) == 2
        seg = 16.0
        for g, z in enumerate(zs):
            idx = z / seg - 0.5
            assert idx in (4 * g + 1, 4 * g + 2)
        # one request block per target, ordered by distance
        assert zs == sorted(zs)
        assert validate_trace(inst.trace, inst.params) is None
        cc = certificate_cost(inst.trace, inst.params)
        assert cc <= inst.offline_cost_bound * (1 + 1e-6)

    def test_z_choice_rejected_for_general_k(self):
        with pytest.raises(InputError):
            gen_thm3(3, 16, z_choice=0)

    def test_seeded_choice_is_deterministic(self):
        a = gen_thm3(2, 16, seed=5)
        b = gen_thm3(2, 16, seed=5)
        assert a.choices == b.choices
        assert a.trace.requests == b.trace.requests
        assert a.choices["Z"][0] in (-12.0, -4.0, 4.0, 12.0)


class TestThm4:
    def test_walk_phase_step_count(self):
        inst = gen_thm4(2, 64, ms=1.0, mc=8.0, z_choice=3)  # Z = 48
        walk = inst.trace.requests[64:64 + 6]
        assert walk == [(8.0,), (16.0,), (24.0,), (32.0,), (40.0,), (48.0,)]
        assert inst.trace.requests[70] == (48.0,)
        assert inst.choices["final_start"] == 71

    def test_trace_valid_under_own_locality(self):
        for mc in (1.0, 3.0, 8.0):
            inst = gen_thm4(2, 64, ms=1.0, mc=mc, z_choice=1)
            assert validate_trace(inst.trace, inst.params) is None

    def test_certificate_bound_value(self):
        inst = gen_thm4(2, 64, ms=1.0, mc=8.0, D=1.0, z_choice=0)
        assert inst.offline_cost_bound == 64.0 + 4096.0 / 16.0
        cc = certificate_cost(inst.trace, inst.params)
        assert cc <= inst.offline_cost_bound * (1 + 1e-6)

    def test_requires_mc_at_least_ms(self):
        with pytest.raises(InputError):
            gen_thm4(2, 64, ms=2.0, mc=1.0)

    def test_general_k(self):
        inst = gen_thm4(3, 16, ms=1.0, mc=4.0, seed=2)
        assert validate_trace(inst.trace, inst.params) is None
        cc = certificate_cost(inst.trace, inst.params)
        assert cc <= inst.offline_cost_bound * (1 + 1e-6)
        seg = 16.0
        for g, z in enumerate(inst.choices["Z"]):
            idx = z / seg - 0.5
            assert idx in (5 * g + 1, 5 * g + 3)


class TestSimpleCounterexample:
    def test_trace_shape(self):
        inst = gen_simple_counterexample(100, 10, ms=1.0)
        assert len(inst.trace) == 190
        assert inst.trace.requests[-1] == (90.0,)
        assert inst.trace.requests[99] == (100.0,)
        assert validate_trace(inst.trace, inst.params) is None

    def test_certificate_cost(self):
        inst = gen_simple_counterexample(100, 10, ms=1.0)
        assert abs(certificate_cost(inst.trace, inst.params) - 110.0) < 1e-9
        assert inst.offline_cost_bound == 110.0

    def test_lower_bound_formula(self):
        inst = gen_simple_counterexample(400, 20)
        assert inst.online_cost_lower_bound == 400 + (400 - 3 * 20) * 20 == 7200

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            gen_simple_counterexample(100, 25)
        with pytest.raises(InputError):
            gen_simple_counterexample(100, 0)


class TestLocalWalk:
    def test_step_scale_zero_is_constant(self):
        reqs = local_walk_requests(10, 2, 1.0, 0.0, seed=3)
        assert all(r == reqs[0] for r in reqs)

    def test_output_always_valid(self):
        for dim in (1, 2, 3):
            params = ProblemParams(k=2, ms=1.0, mc=0.7, delta=0.0, D=1.0, dim=dim)
            inst = gen_local_walk(50, params, 1.0, seed=dim)
            assert validate_trace(inst.trace, inst.params) is None

    def test_seed_determinism_bytes(self, tmp_path):
        from kmobile.core import write_trace

        params = ProblemParams(k=1, ms=1.0, mc=1.0, delta=0.0, D=1.0, dim=2)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            inst = gen_local_walk(40, params, 0.8, seed=123)
            write_trace(str(path), inst.trace, inst.params)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        r1 = local_walk_requests(20, 1, 1.0, 1.0, seed=1)
        r2 = local_walk_requests(20, 1, 1.0, 1.0, seed=2)
        assert r1 != r2

    def test_step_scale_bounds(self):
        with pytest.raises(InputError):
            local_walk_requests(5, 1, 1.0, 1.5, seed=0)


def reference_certificate(start, targets, ms, n):
    """The certificate follower with move_toward called for every server."""
    confs, cur = [], list(start)
    for _ in range(n):
        cur = [move_toward(p, tgt, ms) for p, tgt in zip(cur, targets)]
        confs.append(tuple(cur))
    return confs


class TestCheckedOnce:
    """The generators and certificate_cost check dimensions once, then use math.dist."""

    def instances(self, ms=0.75):
        for k in (2, 3, 4, 8):
            for seed in (0, 1):
                yield gen_thm3(k, 16, ms=ms, seed=seed)
                yield gen_thm4(k, 16, ms=ms, mc=2.0, seed=seed)

    def test_certificates_equal_the_move_toward_reference(self):
        # 0.3 divides none of the distances, so the last step of each path is a short one.
        for ms in (0.75, 0.3):
            for inst in self.instances(ms):
                cert = inst.trace.certificate
                targets = [(0.0,)] + [(z,) for z in inst.choices["Z"]]
                want = reference_certificate(inst.trace.start_config, targets, ms, len(cert))
                assert repr(cert) == repr(want)
                # A step in which no server moves is the last configuration object.
                assert all((b is a) == all(map(is_, a, b)) for a, b in zip(cert, cert[1:]))
                assert any(b is a for a, b in zip(cert, cert[1:]))

    def test_a_negative_speed_keeps_its_message(self):
        message = r"^ms must be positive and finite, got -1\.0$"
        for gen in (lambda k: gen_thm3(k, 16, ms=-1.0), lambda k: gen_thm4(k, 16, -1.0, 2.0)):
            for k in (2, 4):
                with pytest.raises(InputError, match=message):
                    gen(k)

    def test_jumps_and_certificate_costs_equal_the_checked_distance(self):
        for inst in self.instances():
            req, cert, p = inst.trace.requests, inst.trace.certificate, inst.params
            jump = max(math.dist(a, b) for a, b in zip(req, req[1:]))
            if inst.construction == "thm3":
                assert p.mc.hex() == max(jump, p.ms).hex()
            cost, prev = 0.0, inst.trace.start_config
            for conf, r in zip(cert, req):
                cost += p.D * total(math.dist(prev[i], conf[i]) for i in range(p.k))
                cost += min(math.dist(q, r) for q in conf)
                prev = conf
            assert certificate_cost(inst.trace, p).hex() == cost.hex()

    def test_a_dimension_mismatch_is_an_input_error(self):
        p = ProblemParams(k=1, ms=1.0, mc=1.0, delta=0.0)
        for trace in (Trace([(0.0,)], ((0.0,),), [((0.0, 1.0),)]),
                      Trace([(0.0, 1.0)], ((0.0,),), [((0.0,),)]),
                      Trace([(0.0,)], ((0.0, 1.0),), [((0.0,),)])):
            with pytest.raises(InputError, match="dimension"):
                certificate_cost(trace, p)


def reference_jump_setup(k, x, ms, seed, z_choice):
    """The jump constructions' checks, rng, origin, start and k=2 target, as written
    before gen_thm3 and gen_thm4 shared one body."""
    if k < 2:
        raise InputError("construction needs k >= 2")
    if x <= 0 or x % 8 != 0:
        raise InputError("x must be a positive multiple of 8")
    rng = random.Random(seed if seed is not None else 0)
    origin = (0.0,)
    start = tuple(origin for _ in range(k))
    if k != 2:
        if z_choice is not None:
            raise InputError("z_choice enumeration is only defined for k=2")
        return rng, origin, start, None, None
    if z_choice is not None and not 0 <= z_choice < 4:
        raise InputError("z_choice must be in 0..3")
    idx = z_choice if z_choice is not None else rng.randrange(4)
    z = (-0.75 * x * ms, -0.25 * x * ms, 0.25 * x * ms, 0.75 * x * ms)[idx]
    return rng, origin, start, [z], {"z_index": idx}


def reference_thm3(k, x, D=1.0, ms=1.0, *, seed=None, z_choice=None, delta=0.5):
    """gen_thm3 as written on its own, with the reference certificate."""
    rng, origin, start, zs, choice = reference_jump_setup(k, x, ms, seed, z_choice)
    positive(ms, "ms")
    if k == 2:
        z = zs[0]
        phase1 = x
        requests = [origin] * phase1 + [(z,)] * (x // 8)
        cert = reference_certificate(start, [origin, (z,)], ms, len(requests))
        bound = D * x * ms
        lower = x * x * ms / 264.0
        choices = dict(choice, Z=[z], phase1_len=phase1, phase2_start=phase1 + 1)
    else:
        seg = x * ms
        zs = []
        for g in range(k - 1):
            inner = 4 * g + 1 + rng.randrange(2)
            zs.append((inner + 0.5) * seg)
        block = x // 4
        phase1 = max(k * x,
                     max(math.ceil(abs(z) / ms) - g * block for g, z in enumerate(zs)))
        requests = [origin] * phase1
        for z in zs:
            requests.extend([(z,)] * block)
        targets = [origin] + [(z,) for z in zs]
        cert = reference_certificate(start, targets, ms, len(requests))
        bound = D * total(abs(z) for z in zs)
        lower = None
        choices = {"Z": zs, "phase1_len": phase1, "phase2_start": phase1 + 1}
    mc = max(max(map(math.dist, requests, requests[1:]), default=0.0), ms)
    params = ProblemParams(k=k, ms=ms, mc=mc, delta=delta, D=D, dim=1)
    trace = Trace(requests=requests, start_config=start, certificate=cert)
    return GeneratedInstance("thm3", trace, params, bound, lower, choices)


def reference_thm4(k, x, ms, mc, D=1.0, *, seed=None, z_choice=None, delta=0.5):
    """gen_thm4 as written on its own, with the reference certificate."""
    if mc < ms:
        raise InputError("needs mc >= ms")
    rng, origin, start, zs, choice = reference_jump_setup(k, x, ms, seed, z_choice)
    positive(ms, "ms")

    def walk(frm, to):
        out = []
        pos = frm
        while pos != to:
            pos = move_toward((pos,), (to,), mc)[0]
            out.append((pos,))
        return out

    if k == 2:
        z = zs[0]
        phase1 = x
        walk_steps = walk(0.0, z)
        requests = [origin] * phase1 + walk_steps + [(z,)] * (x // 8)
        cert = reference_certificate(start, [origin, (z,)], ms, len(requests))
        bound = D * x * ms + x * x * ms * ms / (2.0 * mc)
        choices = dict(choice, Z=[z], phase1_len=phase1, walk_start=phase1 + 1,
                       final_start=phase1 + len(walk_steps) + 1)
    else:
        seg = x * ms
        zs = []
        for g in range(k - 1):
            inner = 5 * g + 1 + 2 * rng.randrange(2)
            zs.append((inner + 0.5) * seg)
        block = x // 4
        offsets = []
        elapsed = 0
        prev = 0.0
        for z in zs:
            elapsed += math.ceil(abs(z - prev) / mc)
            offsets.append(elapsed)
            elapsed += block
            prev = z
        phase1 = max(k * x,
                     max(math.ceil(abs(z) / ms) - off for z, off in zip(zs, offsets)))
        requests = [origin] * phase1
        prev = 0.0
        for z in zs:
            requests.extend(walk(prev, z))
            requests.extend([(z,)] * block)
            prev = z
        targets = [origin] + [(z,) for z in zs]
        cert = reference_certificate(start, targets, ms, len(requests))
        bound = None
        choices = {"Z": zs, "phase1_len": phase1, "phase2_start": phase1 + 1}
    params = ProblemParams(k=k, ms=ms, mc=mc, delta=delta, D=D, dim=1)
    trace = Trace(requests=requests, start_config=start, certificate=cert)
    if bound is None:
        bound = certificate_cost(trace, params)
    return GeneratedInstance("thm4", trace, params, bound, None, choices)


def outcome(gen, *args, **kwargs):
    """The repr of every field of an instance and of its requests' identity pattern,
    or the message of the InputError it raises."""
    try:
        inst = gen(*args, **kwargs)
    except InputError as exc:
        return f"InputError: {exc}"
    req = inst.trace.requests
    return repr((inst.construction, req, inst.trace.start_config, inst.trace.certificate,
                 inst.params, inst.offline_cost_bound, inst.online_cost_lower_bound,
                 inst.choices, [b is a for a, b in zip(req, req[1:])]))


class TestOneConstruction:
    """gen_thm3 and gen_thm4 share one body and give what each gave on its own."""

    def test_generators_equal_their_references(self):
        grid = itertools.product((1, 2, 3, 4, 8), (8, 16, 63), (0.3, 1, 1.7, -1), (1, 2.5),
                                 (None, 1), (None, 0, 5))
        errors = set()
        for k, x, ms, D, seed, z_choice in grid:
            kw = dict(seed=seed, z_choice=z_choice)
            cases = [(gen_thm3, reference_thm3, (k, x, D, ms))]
            cases += [(gen_thm4, reference_thm4, (k, x, ms, mc, D)) for mc in (0.5, 1, 3.3)]
            for gen, reference, args in cases:
                want = outcome(reference, *args, **kw)
                assert outcome(gen, *args, **kw) == want, (gen.__name__, args, kw)
                if want.startswith("InputError"):
                    errors.add(want)
        # The grid reaches every check of the parameters.
        assert errors == {"InputError: " + message for message in (
            "construction needs k >= 2", "x must be a positive multiple of 8",
            "z_choice enumeration is only defined for k=2", "z_choice must be in 0..3",
            "ms must be positive and finite, got -1", "needs mc >= ms")}

    def test_thm3_without_its_certificate_is_the_same_instance(self):
        # thm4 too: at k>2 it builds the certificate for its bound, then leaves it off.
        def stripped(gen, *args, **kw):
            inst = gen(*args, **kw)
            assert inst.trace.certificate is not None
            return dataclasses.replace(inst, trace=dataclasses.replace(inst.trace,
                                                                       certificate=None))

        for k, ms, D, seed in itertools.product((2, 4, 8), (1.0, 0.3), (1.0, 2.5), (None, 0, 7)):
            for z_choice in (None, 0, 1, 2, 3) if k == 2 else (None,):
                kw = dict(seed=seed, z_choice=z_choice)
                for gen, args in ((gen_thm3, (k, 16, D, ms)), (gen_thm4, (k, 16, ms, 2.0, D))):
                    bare, full = gen(*args, certificate=False, **kw), stripped(gen, *args, **kw)
                    assert bare.trace.certificate is None
                    assert bare.offline_cost_bound.hex() == full.offline_cost_bound.hex()
                    assert (outcome(gen, *args, certificate=False, **kw)
                            == outcome(stripped, gen, *args, **kw))
