"""The benchmark's tracer swaps timing wrappers in for kmobile names; they must all exist."""
import contextlib
import importlib.util
import io
import types
from pathlib import Path

from kmobile import adversary, checks, cli, core, experiment, kserver, mobile

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
KM = types.SimpleNamespace(adversary=adversary, checks=checks, cli=cli, core=core,
                           experiment=experiment, kserver=kserver, mobile=mobile)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_times_a_sweep_and_restores(tmp_path):
    tracing = load_tracer()
    owners = list(vars(KM).values()) + [mobile.RunResult]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    restore = tracing.install(KM, tracer)
    try:
        assert [dict(vars(owner)) for owner in owners] != before
        spec = tmp_path / "thm3.spec"
        spec.write_text("construction=thm3\nx=8\nseeds=0\nsweep.k=2,3\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--spec", str(spec)]) == 0
    finally:
        restore()
    assert [dict(vars(owner)) for owner in owners] == before
    _, calls = tracer.self_times()
    for name in ("experiment.run_experiment", "experiment.run_point", "adversary.generate",
                 "mobile.run", "core.validate_trace", "core.min_weight_matching",
                 "kserver.step", "checks.audit_speed_caps", "cli.dump"):
        assert calls.get(name, 0) > 0, name
    # A repeated step appends the last report object again; the tracer still
    # counts one branch a step, and each step calls its guidance once.
    branches = sum(tracer.counts[f"mobile.branch.{b}"] for b in tracing.BRANCHES)
    assert branches == calls["kserver.step"] > 0


def test_tracer_reads_the_work_function_table_size(tmp_path):
    # The tracer finds the table by the attribute name ``values``; a renamed
    # table would leave kserver.wfa.configs at 0 without an error.
    tracing = load_tracer()
    trace = tmp_path / "planar.jsonl"
    requests = [(0.0, 0.0), (0.5, 0.2), (0.1, 0.9), (0.5, 0.2), (-0.3, 0.4)]
    params = core.ProblemParams(k=2, ms=1.0, mc=1.2, delta=0.5, dim=2)
    core.write_trace(str(trace), core.Trace(requests, (requests[0],) * 2), params)
    tracer = tracing.Tracer()
    restore = tracing.install(KM, tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--algo", "ums", "--sim", "wfa",
                             "--trace", str(trace)]) == 0
        tracer.end_job()
    finally:
        restore()
    assert tracer.maxima["kserver.wfa.configs"] > 0
