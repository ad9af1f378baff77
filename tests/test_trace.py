import json

import pytest

from kmobile.adversary import gen_thm4
from kmobile.core import (
    InputError,
    ProblemParams,
    Trace,
    certificate_cost,
    read_trace,
    validate_trace,
    write_trace,
)
from kmobile.mobile import run
from test_mobile import record_dict


def params1(**kw):
    base = dict(k=1, ms=1.0, mc=1.0, delta=0.0, D=1.0, dim=1)
    base.update(kw)
    return ProblemParams(**base)


def test_params_validation():
    with pytest.raises(InputError):
        ProblemParams(k=0, ms=1.0, mc=1.0, delta=0.0)
    with pytest.raises(InputError):
        ProblemParams(k=1, ms=-1.0, mc=1.0, delta=0.0)
    with pytest.raises(InputError):
        ProblemParams(k=1, ms=1.0, mc=1.0, delta=1.0)
    with pytest.raises(InputError):
        ProblemParams(k=1, ms=1.0, mc=1.0, delta=0.0, D=0.5)
    for bad in (dict(ms=float("nan")), dict(mc=float("inf")), dict(D=float("nan")),
                dict(D=float("inf"))):
        with pytest.raises(InputError):
            params1(**bad)


def test_params_dict_codec():
    p = params1(k=3, ms=0.5, D=2.0, dim=2)
    assert ProblemParams.from_dict(p.to_dict()) == p
    missing = p.to_dict()
    del missing["mc"]
    with pytest.raises(InputError, match="mc"):
        ProblemParams.from_dict(missing)
    with pytest.raises(InputError, match="delta"):
        ProblemParams.from_dict(dict(p.to_dict(), delta="fast"))
    with pytest.raises(InputError, match="k"):
        ProblemParams.from_dict(dict(p.to_dict(), k=float("inf")))


def test_validate_trace_ok():
    trace = Trace(requests=[(0.0,), (1.0,), (2.0,)], start_config=((0.0,),))
    assert validate_trace(trace, params1()) is None


def test_validate_trace_locality_violation():
    trace = Trace(requests=[(0.0,), (2.0,)], start_config=((0.0,),))
    v = validate_trace(trace, params1())
    assert v is not None
    assert v.kind == "request-locality"
    assert v.index == 1
    assert v.measured == 2.0


def test_validate_trace_certificate_speed():
    trace = Trace(requests=[(0.0,), (1.0,)], start_config=((0.0,),),
                  certificate=[((0.0,),), ((3.0,),)])
    v = validate_trace(trace, params1())
    assert v is not None and v.kind == "certificate-speed" and v.index == 2


def test_validate_trace_certificate_length():
    trace = Trace(requests=[(0.0,), (1.0,)], start_config=((0.0,),),
                  certificate=[((0.0,),)])
    v = validate_trace(trace, params1())
    assert v is not None and v.kind == "certificate-length"


def test_validate_trace_dimension_error():
    trace = Trace(requests=[(0.0, 0.0)], start_config=((0.0,),))
    with pytest.raises(InputError):
        validate_trace(trace, params1())


def test_generator_output_is_valid_by_construction():
    inst = gen_thm4(2, 16, ms=1.0, mc=4.0, z_choice=2)
    assert validate_trace(inst.trace, inst.params) is None


def test_trace_file_roundtrip(tmp_path):
    inst = gen_thm4(2, 16, ms=1.0, mc=4.0, z_choice=1)
    path = tmp_path / "t.jsonl"
    write_trace(str(path), inst.trace, inst.params)
    trace, params = read_trace(str(path))
    assert params == inst.params
    assert trace.requests == inst.trace.requests
    assert trace.start_config == inst.trace.start_config
    assert trace.certificate == inst.trace.certificate
    assert abs(certificate_cost(trace, params)
               - certificate_cost(inst.trace, inst.params)) < 1e-12


def test_read_trace_shares_a_repeated_request_but_not_across_zero_signs(tmp_path):
    path = tmp_path / "repeats.jsonl"
    header = {"dim": 2, "k": 1, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
              "start": [[0.0, 0.0]]}
    points = [[0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0, 1],
              [0.5, 1.0], [0.5, 1.0], [0.5, 1.0], [0.0, 1.0]]
    # Lines out of order: requests are shared in step order, not file order.
    lines = [json.dumps({"t": t, "r": r}) for t, r in enumerate(points, 1)]
    path.write_text("\n".join([json.dumps(header)] + lines[::-1]) + "\n")
    requests = read_trace(str(path))[0].requests
    shared = [b is a for a, b in zip(requests, requests[1:])]
    assert shared == [True, False, True, False, True, False, True, True, False]
    assert [repr(r) for r in requests] == [repr(tuple(map(float, p))) for p in points]


def test_read_trace_rejects_gaps(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"dim": 1, "k": 1, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
              "start": [[0.0]]}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(json.dumps({"t": 1, "r": [0.0]}) + "\n")
        fh.write(json.dumps({"t": 3, "r": [1.0]}) + "\n")
    with pytest.raises(InputError):
        read_trace(str(path))


def test_read_trace_missing_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"t": 1, "r": [0.0]}) + "\n")
    with pytest.raises(InputError):
        read_trace(str(path))


def test_run_totals_are_step_sums():
    inst = gen_thm4(2, 16, ms=1.0, mc=2.0, D=2.0, seed=1)
    res = run(inst.trace, inst.params, algo="wms", sim="dc-line")
    serving = sum(rep.serving for rep in res.reports)
    movement = sum(rep.movement for rep in res.reports)
    assert movement > 0.0
    assert (res.serving_total, res.movement_total) == (serving, movement)
    assert res.grand_total == serving + 2.0 * movement
    assert record_dict(res)["ledger"] == {"serving_total": serving, "movement_total": movement,
                                          "grand_total": res.grand_total}
