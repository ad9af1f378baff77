import ast
import dataclasses
import functools
import itertools
import json
import math
import types
from operator import add, is_not, itemgetter
from pathlib import Path

import pytest

from kmobile import core
from kmobile.adversary import gen_local_walk, gen_thm3, gen_thm4
from kmobile.cli import main
from kmobile.core import (
    REL_TOL,
    InputError,
    ProblemParams,
    Trace,
    TraceViolation,
    certificate_cost,
    check_dims,
    read_trace,
    total,
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


def test_read_trace_refuses_a_second_header_line(tmp_path, capsys):
    # The second header would replace the first: the run would take k=2 for both requests.
    header = {"dim": 1, "k": 1, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
              "start": [[0.0]]}
    path = tmp_path / "two-headers.jsonl"
    path.write_text("\n".join([json.dumps(header), json.dumps({"t": 1, "r": [0.0]}),
                               json.dumps(dict(header, k=2, start=[[0.0], [1.0]])),
                               json.dumps({"t": 2, "r": [1.0]})]) + "\n")
    with pytest.raises(InputError, match=":3: a second header line"):
        read_trace(str(path))
    assert main(["simulate", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}:3: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("line,message", [
    ('{"t": 2, "r": [1.0]} x', "invalid JSON: Extra data: line 1 column 22 (char 21)"),
    ('{"t": 2, "r": [1.0]} {"t": 3, "r": [2.0]}',
     "invalid JSON: Extra data: line 1 column 22 (char 21)"),
    ("[1.0, 2.0]", "expected a JSON object, got [1.0, 2.0]"),
    ('{"t": 2, "r": [NaN]}', "non-finite coordinate in point (nan,)"),
    ('{"t": 2, "r": [' + "1" * 5000 + "]}",
     "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: value has "
     "5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ('{"t": 2, "r": "abc', "invalid JSON: Unterminated string starting at: line 1 column 15 "
     "(char 14)"),
    ('\ufeff{"t": 2, "r": [1.0]}', "invalid JSON: Unexpected UTF-8 BOM (decode using "
     "utf-8-sig): line 1 column 1 (char 0)"),
], ids=["trailing-garbage", "two-objects", "bare-array", "nan", "5000-digits",
        "unterminated-string", "bom"])
def test_read_trace_names_a_malformed_line_in_json_words(tmp_path, line, message):
    header = {"dim": 1, "k": 1, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
              "start": [[0.0]]}
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([json.dumps(header), json.dumps({"t": 1, "r": [0.0]}), line])
                    + "\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        read_trace(str(path))
    assert str(exc.value) == f"{path}:3: {message}"


TRACE_HEADER = {"dim": 1, "k": 1, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0, "start": [[0.0]]}


def test_read_trace_skips_blank_lines_and_keeps_counting(tmp_path):
    # "\r\n" ends a line as "\n" does, and "\x1c", at which splitlines() would end
    # one, is only blank space: the malformed line is named as the file's fifth.
    lines = [json.dumps(TRACE_HEADER), "", json.dumps({"t": 1, "r": [0.5]}), "\x1c"]
    path = tmp_path / "blank.jsonl"
    path.write_bytes("\r\n".join(lines + ["[1.0]"]).encode("utf-8"))
    with pytest.raises(InputError) as exc:
        read_trace(str(path))
    assert str(exc.value) == f"{path}:5: expected a JSON object, got [1.0]"
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    trace, params = read_trace(str(path))
    assert (trace.requests, trace.start_config, params.k) == ([(0.5,)], ((0.0,),), 1)


@pytest.mark.parametrize("lineno,line", [
    (1, dict(TRACE_HEADER, typo=3)),
    (2, {"t": 1, "r": [0.5], "o": [[0.5]]}),
    (2, {"t": 1, "r": [0.5], "typo": 3}),
    (3, {"t": 1, "o": [[0.5]], "typo": 3}),
    (2, {"r": [0.5]}),
    (2, {"t": 1}),
], ids=["header-extra-key", "request-with-configuration", "request-extra-key",
        "certificate-extra-key", "request-without-t", "t-alone"])
def test_read_trace_reads_a_line_only_by_its_exact_keys(tmp_path, capsys, lineno, line):
    lines = [TRACE_HEADER, {"t": 1, "r": [0.5]}, {"t": 1, "o": [[0.5]]}]
    lines[lineno - 1] = line
    path = tmp_path / "keys.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    assert main(["simulate", "--trace", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"input error: {path}:{lineno}: unrecognized record {sorted(line)}\n")


@pytest.mark.parametrize("lines,message", [
    ([TRACE_HEADER], "{path}: no request lines"),
    ([TRACE_HEADER, {"t": 1, "r": [0.5]}, {"t": 2, "r": [0.5]}, {"t": 2, "o": [[0.5]]}],
     "{path}: certificate steps are not contiguous 1..2"),
    ([TRACE_HEADER, {"t": 2 ** 70, "r": [0.5]}],
     f"{{path}}: request steps are not contiguous 1..{2 ** 70}"),
    ([TRACE_HEADER, {"t": 1, "r": [0.5]}, {"t": 0, "r": [0.5]}],
     "{path}: request steps are not contiguous 1..1"),
    ([TRACE_HEADER, {"t": 1, "r": [0.5]}, {"t": 2 ** 70, "o": [[0.5]]}],
     "{path}: certificate steps are not contiguous 1..1"),
    ([dict(TRACE_HEADER, k=2), {"t": 1, "r": [0.5]}],
     "{path}: start config has 1 servers, expected 2"),
    ([dict(TRACE_HEADER, dim=0), {"t": 1, "r": [0.5]}], "{path}:1: dim must be a positive integer"),
], ids=["header-only", "certificate-gap", "huge-t", "t-0", "huge-certificate-t",
        "start-short-of-k", "dim-0"])
def test_read_trace_names_a_trace_missing_steps_or_servers(tmp_path, capsys, lines, message):
    path = tmp_path / "steps.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    assert main(["simulate", "--trace", str(path)]) == 2
    assert capsys.readouterr() == ("", f"input error: {message.format(path=path)}\n")


def test_run_totals_are_step_sums():
    inst = gen_thm4(2, 16, ms=1.0, mc=2.0, D=2.0, seed=1)
    res = run(inst.trace, inst.params, algo="wms", sim="dc-line")
    serving = total(rep.serving for rep in res.reports)
    movement = total(rep.movement for rep in res.reports)
    assert movement > 0.0
    assert (res.serving_total, res.movement_total) == (serving, movement)
    assert res.grand_total == serving + 2.0 * movement
    assert record_dict(res)["ledger"] == {"serving_total": serving, "movement_total": movement,
                                          "grand_total": res.grand_total}


def test_total_is_the_left_fold_on_every_interpreter():
    # A compensated sum, as 3.12's sum() is, gives 2.0 here.
    xs = [1.0, 1e100, 1.0, -1e100]
    assert total(xs) == functools.reduce(add, xs, 0) == 0.0
    assert total([0.1] * 10, 1.0).hex() == functools.reduce(add, [0.1] * 10, 1.0).hex()


def test_total_of_nothing_is_the_int_zero_as_sum_gives():
    assert type(total([])) is int and total([]) == 0 == sum([])
    assert type(total([], 0.0)) is float


def test_total_is_the_only_float_sum_in_the_package():
    # numpy's .sum( is a method call, outside the rule; sum, fsum and reduce are not.
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom):
                assert not {a.name for a in node.names} & {"reduce", "fsum"}, where
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    assert (func.value.id, func.attr) not in (("functools", "reduce"),
                                                              ("math", "fsum")), where
                assert not (isinstance(func, ast.Name) and func.id == "sum"), where


def test_read_trace_gives_back_a_generated_certificate(tmp_path):
    for k in (2, 4, 8):
        for inst in (gen_thm3(k, 16, seed=1), gen_thm4(k, 16, ms=1.0, mc=2.0, D=2.5, seed=1)):
            path = str(tmp_path / "cert.jsonl")
            write_trace(path, inst.trace, inst.params)
            trace, params = read_trace(path)
            assert repr(trace.certificate) == repr(inst.trace.certificate)
            assert validate_trace(trace, params) is None
            assert (certificate_cost(trace, params).hex()
                    == certificate_cost(inst.trace, inst.params).hex())


def test_validate_trace_names_the_certificate_step_with_a_wrong_server_count(tmp_path):
    path = tmp_path / "cert.jsonl"
    header = {"dim": 1, "k": 1, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
              "start": [[0.0]]}
    confs = [[[0.0]], [[0.0]], [[-0.0]], [[-0.0]], [[0.0], [0.0]], [[0.0]]]
    lines = [json.dumps({"t": t, "r": [0.0]}) for t in range(1, len(confs) + 1)]
    lines += [json.dumps({"t": t, "o": conf}) for t, conf in enumerate(confs, 1)]
    path.write_text("\n".join([json.dumps(header)] + lines) + "\n")
    trace, params = read_trace(str(path))
    assert [repr(conf) for conf in trace.certificate] == [repr(tuple(map(tuple, c))) for c in confs]
    with pytest.raises(InputError, match="^certificate step 5 has 2 servers$"):
        validate_trace(trace, params)
    with pytest.raises(InputError, match="^certificate step 5 has 2 servers$"):
        certificate_cost(trace, params)


def test_certificate_cost_refuses_a_certificate_of_the_wrong_shape():
    inst = gen_thm3(2, 8, seed=0)
    assert certificate_cost(inst.trace, inst.params) == 6.0
    short = dataclasses.replace(inst.trace, certificate=inst.trace.certificate[:3])
    with pytest.raises(InputError, match="^certificate has 3 steps, the trace 9 requests$"):
        certificate_cost(short, inst.params)
    for t in (1, 6):
        cert = list(inst.trace.certificate)
        cert[t - 1] = cert[t - 1][:1]
        with pytest.raises(InputError, match=f"^certificate step {t} has 1 servers$"):
            certificate_cost(dataclasses.replace(inst.trace, certificate=cert), inst.params)
    one_server_start = dataclasses.replace(inst.trace, start_config=inst.trace.start_config[:1])
    with pytest.raises(InputError, match="^start config has 1 servers, expected 2$"):
        certificate_cost(one_server_start, inst.params)


def reference_validate_trace(trace, params):
    """validate_trace checking and measuring every request and certificate point:
    the reference for its skips of the very objects of the step before."""
    if not trace.requests:
        raise InputError("empty trace")
    if len(trace.start_config) != params.k:
        raise InputError(f"start config has {len(trace.start_config)} servers, expected {params.k}")
    check_dims(itertools.chain(trace.requests, trace.start_config), params.dim)
    slack = 1.0 + REL_TOL
    for t in range(1, len(trace.requests)):
        d = math.dist(trace.requests[t - 1], trace.requests[t])
        if d > params.mc * slack:
            return TraceViolation("request-locality", t, d, params.mc)
    cert = trace.certificate
    if cert is not None:
        if len(cert) != len(trace.requests):
            return TraceViolation("certificate-length", len(cert), float(len(cert)),
                                  float(len(trace.requests)))
        prev = trace.start_config
        for t, conf in enumerate(cert):
            if len(conf) != params.k:
                raise InputError(f"certificate step {t + 1} has {len(conf)} servers")
            check_dims(conf, params.dim)
            for i in range(params.k):
                d = math.dist(prev[i], conf[i])
                if d > params.ms * slack:
                    return TraceViolation("certificate-speed", t + 1, d, params.ms)
            prev = conf
    points = [*trace.requests, *trace.start_config, *itertools.chain.from_iterable(cert or ())]
    spans = [max(c) - min(c) for c in (list(map(itemgetter(i), points)) for i in range(params.dim))]
    if not math.isfinite(math.hypot(*spans)):
        raise InputError("the trace's points span a box whose diagonal overflows a float")
    return None


def steps_of_points(trace, moved):
    """(step, server) of each certificate point that is (moved) or is not the step before's."""
    prev = [trace.start_config, *trace.certificate]
    return [(t, i) for t, (a, b) in enumerate(zip(prev, trace.certificate))
            for i in range(len(b)) if (b[i] is not a[i]) == moved]


def with_point(trace, t, i, point):
    cert = list(trace.certificate)
    cert[t] = cert[t][:i] + (point,) + cert[t][i + 1:]
    return dataclasses.replace(trace, certificate=cert)


def tampered(trace, params):
    """Copies of a trace, each with one fault placed where the skips of repeated objects act."""
    reqs = trace.requests
    after_repeat = [t + 1 for t in range(1, len(reqs) - 1) if reqs[t] is reqs[t - 1]]
    if after_repeat:
        nan_reqs = list(reqs)
        nan_reqs[after_repeat[len(after_repeat) // 2]] = (math.nan,)
        yield dataclasses.replace(trace, requests=nan_reqs), params
    if trace.certificate is None:
        return
    t, i = steps_of_points(trace, moved=False)[-1]
    yield with_point(trace, t, i, (trace.certificate[t][i][0] + 3.0 * params.ms,)), params
    t, i = steps_of_points(trace, moved=True)[-1]
    yield with_point(trace, t, i, (trace.certificate[t][i][0], 0.0)), params
    shared = [t for t, (a, b) in enumerate(zip(trace.certificate, trace.certificate[1:]), 1)
              if b is a]
    if shared:
        cert = list(trace.certificate)
        cert[shared[0]] = cert[shared[0]][:-1]
        yield dataclasses.replace(trace, certificate=cert), params
    # A far moved point, reached at a speed the wide caps allow, with a far request
    # on the other side: only the moved point makes the box's diagonal overflow.
    wide = dataclasses.replace(params, ms=1.7e308, mc=1.7e308)
    far = with_point(trace, t, i, (1.7e308,))
    far_reqs = list(reqs)
    far_reqs[len(reqs) // 2] = (-1.7e308,)
    yield dataclasses.replace(far, requests=far_reqs), wide


def outcome(validate, trace, params):
    try:
        return repr(validate(trace, params))
    except InputError as exc:
        return f"InputError: {exc}"


def validation_cases():
    for k in (2, 4, 8):
        for seed in (0, 1):
            yield gen_thm3(k, 16, seed=seed)
            yield gen_thm4(k, 16, ms=1.0, mc=2.0, seed=seed)
    for step_scale in (1.0, 0.0):
        yield gen_local_walk(60, params1(k=2, dim=2), step_scale, seed=4)


def test_validate_trace_equals_the_reference_on_instances_and_their_faults():
    seen = set()
    for inst in validation_cases():
        cases = [(inst.trace, inst.params), *tampered(inst.trace, inst.params)]
        for trace, params in cases:
            got = outcome(validate_trace, trace, params)
            assert got == outcome(reference_validate_trace, trace, params)
            seen.add(got.split("(")[0].split(":")[0])
    assert seen == {"None", "TraceViolation", "InputError"}


def test_validate_trace_measures_only_the_points_that_changed(monkeypatch):
    inst = gen_thm3(8, 32, seed=1)
    reqs = inst.trace.requests
    changes = sum(map(is_not, reqs[1:], reqs))
    assert (changes, len(reqs)) == (7, 856)
    measured = []

    def dist(p, q):
        measured.append((p, q))
        return math.dist(p, q)

    monkeypatch.setattr(core, "math", types.SimpleNamespace(**dict(vars(math), dist=dist)))
    assert validate_trace(dataclasses.replace(inst.trace, certificate=None), inst.params) is None
    assert len(measured) == changes
