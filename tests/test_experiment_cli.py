import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kmobile
from kmobile.checks import check_fast_potential
from kmobile.cli import build_parser, main
from kmobile.core import InputError, read_trace, write_trace
from kmobile.experiment import (
    PARAM_TYPES,
    ExperimentSpec,
    RunRecord,
    _fold,
    build_instance,
    emit_ratio_table,
    parse_spec_file,
    run_experiment,
    run_point,
)
from kmobile.mobile import STEP_FIELDS, RunResult, run as run_mobile


def write_spec(tmp_path, text):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    return str(path)


class TestSpecParsing:
    def test_parse_flat_file(self, tmp_path):
        path = write_spec(tmp_path, """
# comment line
construction=thm3
algo=ums
sim=dc-line
k=2
ms=1.0
seeds=1,2
sweep.x=64,128
""")
        spec = parse_spec_file(path)
        assert spec.construction == "thm3"
        assert spec.seeds == [1, 2]
        assert spec.sweep == {"x": [64, 128]}
        assert spec.base["k"] == 2

    @pytest.mark.parametrize("text, line", [
        ("construction=thm4\nconstruction=thm3\nk=2\nx=8\n", 2),
        ("construction=thm3\nx=8\nsweep.k=2\nsweep.k=4\n", 4),
        ("construction=thm3\nx=8\nk=2\nx=16\n", 4),
        # a base key and a sweep axis of one parameter: the aggregate's base would not be run
        ("construction=thm3\nk=2\nx=8\nsweep.x=16\n", 4),
        ("construction=thm3\nk=2\nsweep.x=16\nx=8\n", 4),
        ("construction=thm3\nx=8\nsweep.k=\n", 3),
        # a setting outside its tags
        ("construction=thm3\nx=8\nalgo=fast\n", 3),
        ("construction=thm3\nx=8\nsim=dc\n", 3),
        ("construction=thm3\nx=8\nproject=sideways\n", 3),
    ])
    def test_a_bad_value_exits_2_at_its_line(self, tmp_path, capsys, text, line):
        path = write_spec(tmp_path, text)
        assert main(["sweep", "--spec", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}:{line}: ") and err.count("\n") == 1, err

    def test_validation(self):
        spec = ExperimentSpec()
        with pytest.raises(InputError):
            spec.validate()
        spec.construction = "thm3"
        spec.trace_path = "x"
        with pytest.raises(InputError):
            spec.validate()


class TestRunExperiment:
    def test_thm3_sweep_monotone_ratios(self):
        spec = ExperimentSpec(construction="thm3", algo="ums", sim="dc-line",
                              base={"k": 2, "ms": 1.0, "D": 1.0, "delta": 0.5},
                              seeds=[1], sweep={"x": [16, 32, 64]})
        records, aggregate = run_experiment(spec)
        assert len(records) == 3
        ratios = [r.ratio for r in records]
        assert ratios == sorted(ratios)
        assert aggregate["all_ok"]

    def test_stationary_walk_reports_null_ratio(self):
        spec = ExperimentSpec(construction="walk", algo="ums", sim="greedy",
                              base={"k": 1, "ms": 1.0, "mc": 1.0, "delta": 0.0,
                                    "n": 5, "step_scale": 0.0},
                              seeds=[3])
        records, _ = run_experiment(spec)
        assert records[0].cost == 0.0
        assert records[0].ratio is None

    def test_rerun_is_byte_identical(self):
        spec = ExperimentSpec(construction="thm4", algo="ums", sim="dc-line",
                              base={"k": 2, "ms": 1.0, "x": 16},
                              seeds=[1, 2], sweep={"mc": [2.0, 4.0]})
        _, agg1 = run_experiment(spec)
        _, agg2 = run_experiment(spec)
        assert json.dumps(agg1, sort_keys=True) == json.dumps(agg2, sort_keys=True)

    def test_a_thm3_sweep_builds_no_certificate(self, monkeypatch):
        # thm4 at k=2 too: its bound is closed-form there, as thm3's is at every k.
        specs = [ExperimentSpec(construction="thm3", algo="ums", sim="dc-line",
                                base={"x": 16, "ms": 1.0, "delta": 0.5}, seeds=[1, 2],
                                sweep={"k": [2, 3, 8]}),
                 ExperimentSpec(construction="thm4", algo="ums", sim="dc-line",
                                base={"k": 2, "x": 32, "ms": 1.0}, seeds=[1, 2],
                                sweep={"mc": [2.0, 4.0]})]
        wants = [json.dumps(run_experiment(spec)[1], sort_keys=True) for spec in specs]

        def refuse(*args):
            raise AssertionError("the sweep built a certificate")

        monkeypatch.setattr("kmobile.adversary._follow_certificate", refuse)
        for spec, want in zip(specs, wants):
            assert json.dumps(run_experiment(spec)[1], sort_keys=True) == want

    def test_thm4_locality_sweep_ratios_increase(self):
        spec = ExperimentSpec(construction="thm4", algo="ums", sim="dc-line",
                              base={"k": 2, "ms": 1.0, "x": 64},
                              seeds=[1], sweep={"mc": [2.0, 4.0, 8.0]})
        records, _ = run_experiment(spec)
        table = emit_ratio_table(records)
        means = [float(line.split(",")[1])
                 for line in table.strip().splitlines()[1:]]
        assert means == sorted(means)
        assert means[0] < means[-1]


    def test_trace_spec_runs_once_for_all_seeds(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--construction", "thm3", "--k", "2", "--x", "8",
                         "--out", trace]) == 0
        spec = ExperimentSpec(trace_path=trace, seeds=[0, 1, 2])
        with mock.patch("kmobile.experiment.read_trace", wraps=read_trace) as reads, \
                mock.patch("kmobile.experiment.run_mobile", wraps=run_mobile) as runs:
            records, aggregate = run_experiment(spec)
        assert (reads.call_count, runs.call_count) == (1, 1)
        assert [r.seed for r in records] == [0, 1, 2]
        assert aggregate["records"] == [asdict(run_point(spec, {}, seed)) for seed in (0, 1, 2)]

    def test_a_trace_spec_refuses_a_certificate_its_ms_forbids(self, tmp_path, capsys):
        # certificate_cost reads the certificate: one server per step, and one moved by 500
        trace = tmp_path / "thm3.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--construction", "thm3", "--k", "2", "--x", "8",
                         "--out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        one_server, far_move = list(lines), list(lines)
        for i, line in enumerate(lines):
            step = json.loads(line)
            if "o" in step:
                one_server[i] = json.dumps(dict(step, o=step["o"][:1]))
                if step["t"] == 5:
                    far_move[i] = json.dumps(dict(step, o=[[step["o"][0][0] + 500.0],
                                                           *step["o"][1:]]))
        for name, text in (("one-server.jsonl", one_server), ("far-move.jsonl", far_move)):
            (tmp_path / name).write_text("\n".join(text) + "\n")
            spec = write_spec(tmp_path, f"trace={tmp_path / name}\nseeds=0\n")
            capsys.readouterr()
            assert main(["sweep", "--spec", spec]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and err.count("\n") == 1, (name, err)

    def test_run_point_folds_each_check_to_its_worst_run(self):
        # thm4 at mc < (1+delta)*ms is fast mode; k=2 enumerates four targets.
        spec = ExperimentSpec(construction="thm4", algo="ums", sim="dc-line",
                              base={"k": 2, "ms": 1.0, "mc": 1.2, "x": 16})
        record = run_point(spec, spec.base, 0)
        runs = [run_mobile(inst.trace, inst.params, sim="dc-line")
                for inst in (build_instance("thm4", dict(spec.base, z_choice=zc), 0) for zc in range(4))]
        margins = [check_fast_potential(res).min_margin for res in runs]
        assert record.checks["fast_potential_min_margin"] == min(margins)
        # ok folds with all, a min margin with min (a negative one stays), the rest with max
        checks = [{"speed_ok": True, "fast_potential_ok": True, "fast_potential_min_margin": m,
                   "max_displacement": d} for m, d in ((0.0, 1.0), (-1e-12, 3.0), (0.5, 2.0))]
        checks.append(dict(checks[0], fast_potential_ok=False))
        with mock.patch("kmobile.experiment._run_checks", side_effect=checks):
            record = run_point(spec, spec.base, 0)
        assert record.checks == {"speed_ok": True, "fast_potential_ok": False,
                                 "fast_potential_min_margin": -1e-12, "max_displacement": 3.0}
        assert not record.ok

    def test_a_nan_min_margin_folds_to_nan_in_either_run(self):
        for old, new in ((math.nan, -1.0), (-1.0, math.nan), (math.nan, math.nan)):
            assert math.isnan(_fold("fast_potential_min_margin", old, new))
        assert _fold("fast_potential_min_margin", 0.5, -1.0) == -1.0


class TestRatioTable:
    def test_single_record_single_row(self):
        rec = RunRecord(point={"x": 64}, seed=1, cost=10.0, serving=5.0,
                        movement=5.0, reference=5.0, ratio=2.0, checks={}, ok=True)
        table = emit_ratio_table([rec])
        lines = table.strip().splitlines()
        assert lines[0] == "value,mean_ratio,min_ratio,max_ratio"
        assert len(lines) == 2
        assert lines[1].startswith("64,2,2,2")

    def test_empty_records_header_only(self):
        assert emit_ratio_table([]) == "value,mean_ratio,min_ratio,max_ratio\n"

    def test_mixed_axes_rejected(self):
        a = RunRecord(point={"x": 1, "mc": 2.0}, seed=1, cost=1, serving=1,
                      movement=0, reference=1, ratio=1.0, checks={}, ok=True)
        b = RunRecord(point={"x": 2, "mc": 3.0}, seed=1, cost=1, serving=1,
                      movement=0, reference=1, ratio=1.0, checks={}, ok=True)
        with pytest.raises(InputError):
            emit_ratio_table([a, b])

    def test_seventeen_digit_formatting(self):
        rec = RunRecord(point={"x": 1}, seed=1, cost=1, serving=1, movement=0,
                        reference=3.0, ratio=1.0 / 3.0, checks={}, ok=True)
        table = emit_ratio_table([rec])
        assert "0.33333333333333331" in table


RECORD_PROPERTIES = ("fast-potential", "slow-potential", "helper-invariants",
                     "projection-bound")


class TestCli:
    def test_generate_simulate_verify_roundtrip(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["generate", "--construction", "walk", "--k", "2", "--n", "30",
                     "--ms", "1.0", "--mc", "0.5", "--delta", "0", "--dim", "1",
                     "--seed", "5", "--out", trace]) == 0
        meta = json.loads((tmp_path / "t.jsonl.meta.json").read_text())
        assert meta["construction"] == "walk"
        run_path = str(tmp_path / "run.json")
        csv_path = str(tmp_path / "steps.csv")
        assert main(["simulate", "--algo", "ums", "--sim", "dc-line",
                     "--trace", trace, "--out", run_path, "--csv", csv_path]) == 0
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["mode"] == "fast"
        assert record["speed_audit"]["ok"]
        header = (tmp_path / "steps.csv").read_text().splitlines()[0]
        assert header == "t,serving,movement,psi"
        assert main(["verify", "--property", "fast-potential", "--run", run_path]) == 0

    def test_verify_detects_corruption(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        main(["generate", "--construction", "walk", "--k", "1", "--n", "20",
              "--ms", "1.0", "--mc", "0.5", "--delta", "0", "--dim", "1",
              "--seed", "1", "--out", trace])
        run_path = tmp_path / "run.json"
        main(["simulate", "--algo", "ums", "--sim", "greedy", "--trace", trace,
              "--out", str(run_path)])
        record = json.loads(run_path.read_text())
        record["steps"][5]["matched_sum"] += 50.0
        run_path.write_text(json.dumps(record))
        assert main(["verify", "--property", "fast-potential",
                     "--run", str(run_path)]) == 1

    def test_exit_codes(self, tmp_path, capsys, monkeypatch):
        # input error: missing trace file
        assert main(["simulate", "--trace", str(tmp_path / "nope.jsonl")]) == 2
        # input error, reported on one stderr line: malformed traces and run records
        header = {"dim": 1, "k": 1, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
                  "start": [[0.0]]}
        request = json.dumps({"t": 1, "r": [0.0]})
        bad_inputs = {
            "no-t.jsonl": [json.dumps(header), json.dumps({"r": [0.0]})],
            "not-object.jsonl": [json.dumps(header), "5"],
            "start-zero.jsonl": [json.dumps(dict(header, start=0)), request],
            "nan-ms.jsonl": [json.dumps(dict(header, ms=float("nan"))), request],
            "twice-r.jsonl": [json.dumps(header), request, json.dumps({"t": 1, "r": [1.0]})],
            "twice-o.jsonl": [json.dumps(header), request] + [json.dumps({"t": 1, "o": [[0.0]]})] * 2,
            "string-r.jsonl": [json.dumps(dict(header, dim=2, start=[[0.0, 0.0]])),
                               json.dumps({"t": 1, "r": "12"})],
            "string-start.jsonl": [json.dumps(dict(header, start=["0"])), request],
            "no-params.run.json": ['{"algo": "ums"}'],
            "truncated.run.json": ['{"algo": "ums", "params"'],
            # a number read from a file must be a JSON number, an integral one where an int belongs
            "string-coordinate.jsonl": [json.dumps(header), json.dumps({"t": 1, "r": ["0.42"]})],
            "bool-coordinate.jsonl": [json.dumps(header), json.dumps({"t": 1, "r": [True]})],
            "fraction-t.jsonl": [json.dumps(header), json.dumps({"t": 1.5, "r": [0.0]})],
            "fraction-k.jsonl": [json.dumps(dict(header, k=2.7, start=[[0.0], [0.0]])), request],
            "string-ms.jsonl": [json.dumps(dict(header, ms="1.0")), request],
            "bool-dim.jsonl": [json.dumps(dict(header, dim=True)), request],
            # integers too large for a float, and too long to parse
            "huge-int.jsonl": [json.dumps(header), '{"t": 1, "r": [1' + "0" * 400 + "]}"],
            "long-int.jsonl": [json.dumps(header), '{"t": 1, "r": [1' + "0" * 5000 + "]}"],
        }
        # run records with one malformed point or configuration in their first step
        trace = str(tmp_path / "thm3.jsonl")
        record = tmp_path / "thm3.run.json"
        assert main(["generate", "--construction", "thm3", "--k", "2", "--x", "8",
                     "--out", trace]) == 0
        assert main(["simulate", "--trace", trace, "--out", str(record)]) == 0
        valid = json.loads(record.read_text())
        for name, key, value in (("string-a.run.json", "a", [["x"], ["y"]]),
                                 ("one-server-a.run.json", "a", [[0.0]]),
                                 ("string-r.run.json", "r", "12"),
                                 ("float-perm.run.json", "perm", [0.0, 1.0]),
                                 ("string-t.run.json", "t", "1"),
                                 ("fraction-mover.run.json", "mover", 0.5),
                                 ("string-serving.run.json", "serving", "0.5"),
                                 ("bool-cost.run.json", "cost", True),
                                 ("string-caps.run.json", "caps", ["1.5", "1.5"])):
            bad = copy.deepcopy(valid)
            bad["steps"][0][key] = value
            bad_inputs[name] = [json.dumps(bad)]
        for name, key, value in (("float-k.run.json", "k", 2.0),
                                 ("string-delta.run.json", "delta", "0.5")):
            bad_inputs[name] = [json.dumps(dict(valid, params=dict(valid["params"], **{key: value})))]
        # flags that are not the JSON booleans the algorithm and the audit give
        for name, key, value in (("weighted-no.run.json", "weighted", "no"),
                                 ("project-false.run.json", "project", False)):
            bad_inputs[name] = [json.dumps(dict(valid, **{key: value}))]
        capsys.readouterr()
        for name, lines in bad_inputs.items():
            path = tmp_path / name
            path.write_text("\n".join(lines) + "\n")
            if name.endswith(".run.json"):
                argvs = [["verify", "--property", prop, "--run", str(path), "--trace", trace]
                         for prop in RECORD_PROPERTIES]
            else:
                argvs = [["simulate", "--trace", str(path)]]
            for argv in argvs:
                assert main(argv) == 2, (name, argv)
                err = capsys.readouterr().err
                assert err.startswith("input error: ") and err.count("\n") == 1, (name, err)
        # input error: the record checked against a trace whose certificate has a 2-D point
        planar = tmp_path / "planar-o.thm3.jsonl"
        lines = (tmp_path / "thm3.jsonl").read_text().splitlines()
        o_line = next(i for i, line in enumerate(lines) if '"o"' in line)
        step = json.loads(lines[o_line])
        step["o"][0] = step["o"][0] + [0.0]
        lines[o_line] = json.dumps(step)
        planar.write_text("\n".join(lines) + "\n")
        for argv in (["simulate", "--trace", str(planar)],
                     ["verify", "--property", "helper-invariants", "--run", str(record),
                      "--trace", str(planar)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and err.count("\n") == 1, (argv, err)
        # input error: certificates the trace's own parameters forbid, which verify must
        # refuse as simulate does: one server per step, and one server moved by 500 at t=5
        lines = (tmp_path / "thm3.jsonl").read_text().splitlines()
        one_server, far_move = list(lines), list(lines)
        for i, line in enumerate(lines):
            step = json.loads(line)
            if "o" in step:
                one_server[i] = json.dumps(dict(step, o=step["o"][:1]))
                if step["t"] == 5:
                    far_move[i] = json.dumps(dict(step, o=[[step["o"][0][0] + 500.0],
                                                           *step["o"][1:]]))
        for name, text in (("one-server.jsonl", one_server), ("far-move.jsonl", far_move)):
            path = str(tmp_path / name)
            (tmp_path / name).write_text("\n".join(text) + "\n")
            for argv in (["simulate", "--trace", path],
                         *(["verify", "--property", prop, "--run", str(record), "--trace", path]
                           for prop in ("helper-invariants", "slow-potential"))):
                assert main(argv) == 2, (name, argv)
                err = capsys.readouterr().err
                assert err.startswith("input error: ") and err.count("\n") == 1, (argv, err)
        # input error: a slow-mode record whose delta is 0, where the potential is undefined
        (tmp_path / "delta-zero.run.json").write_text(
            json.dumps(dict(valid, params=dict(valid["params"], delta=0.0))))
        assert main(["verify", "--property", "slow-potential", "--trace", trace,
                     "--run", str(tmp_path / "delta-zero.run.json")]) == 2
        # input error: finite points whose distances overflow
        (tmp_path / "overflow.jsonl").write_text("\n".join([
            json.dumps(dict(header, ms=1e308, mc=1e308, start=[[1.7e308]])),
            json.dumps({"t": 1, "r": [-1.7e308]})]) + "\n")
        capsys.readouterr()
        assert main(["simulate", "--trace", str(tmp_path / "overflow.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        # input error: spec files, seeds and construction parameters
        good_spec = "construction=thm3\nk=2\nx=8\nseeds=0\n"
        argvs = {}
        for i, line in enumerate(("seeds=a", "x=zz", "x=8,16", "dlta=0.3", "sweep.bogus=1,2")):
            (tmp_path / f"bad{i}.spec").write_text(good_spec + line + "\n")
            argvs[line] = ["sweep", "--spec", str(tmp_path / f"bad{i}.spec")]
        argvs["--seeds a"] = ["sweep", "--spec", write_spec(tmp_path, good_spec),
                              "--seeds", "a"]
        argvs["walk without --mc"] = ["generate", "--construction", "walk",
                                      "--out", str(tmp_path / "w.jsonl")]
        # parameters the runs never read, named with the construction or the trace
        unread = {"y=5": ("construction thm3", good_spec), "n=7": ("construction thm3", good_spec),
                  "k=3": (f"trace={trace}", f"trace={trace}\nseeds=0\n"),
                  "mc=9.0": (f"trace={trace}", f"trace={trace}\nseeds=0\n")}
        for line, (_, text) in unread.items():
            (tmp_path / f"unread-{line}.spec").write_text(text + line + "\n")
            argvs[line] = ["sweep", "--spec", str(tmp_path / f"unread-{line}.spec")]
        # generate flags the construction never reads; the first in name order is named
        unread["mc=3.0"] = ("construction thm3", None)
        argvs["mc=3.0"] = ["generate", "--construction", "thm3", "--y", "5", "--n", "7",
                           "--mc", "3.0", "--out", str(tmp_path / "unread.jsonl")]
        for name, argv in argvs.items():
            assert main(argv) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and err.count("\n") == 1, (name, err)
            if name in unread:
                assert f"parameter {name.split('=')[0]} " in err, (name, err)
                assert unread[name][0] in err, (name, err)
        # input error: a negative size budget
        trace = str(tmp_path / "plane.jsonl")
        assert main(["generate", "--construction", "walk", "--k", "2", "--n", "5",
                     "--mc", "0.5", "--dim", "2", "--out", trace]) == 0
        monkeypatch.setenv("KMOB_BUDGET", "-1")
        assert main(["simulate", "--trace", trace]) == 2
        monkeypatch.delenv("KMOB_BUDGET")
        # input error: malformed construction parameters
        assert main(["generate", "--construction", "simple-cx", "--x", "10",
                     "--y", "9", "--out", str(tmp_path / "x.jsonl")]) == 2
        # resource budget: a k=3 work-function table over three start points
        # holds 10 configurations, although the requests add no point
        trace = str(tmp_path / "wfa-start.jsonl")
        start = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        (tmp_path / "wfa-start.jsonl").write_text("\n".join(
            [json.dumps(dict(header, k=3, dim=2, mc=2.0, start=start))]
            + [json.dumps({"t": t, "r": p}) for t, p in enumerate(start[1:] + start[:1], 1)]) + "\n")
        monkeypatch.setenv("KMOB_BUDGET", "5")
        assert main(["simulate", "--sim", "wfa", "--trace", trace]) == 3
        monkeypatch.setenv("KMOB_BUDGET", "10")
        assert main(["simulate", "--sim", "wfa", "--trace", trace]) == 0
        monkeypatch.delenv("KMOB_BUDGET")
        # resource budget: DP over too many steps
        trace = str(tmp_path / "long.jsonl")
        main(["generate", "--construction", "walk", "--k", "1", "--n", "40",
              "--ms", "1.0", "--mc", "1.0", "--delta", "0", "--seed", "2",
              "--out", trace])
        assert main(["optimum", "--trace", trace, "--grid", "0.5"]) == 3

    def test_dp_budget_counts_transitions_per_step(self, tmp_path, capsys, monkeypatch):
        # k=2 on a 5-point grid: (5^2)^2 = 625 transitions per step.  The DP
        # holds no such table, but the budget still counts them.
        trace = tmp_path / "line.jsonl"
        header = {"dim": 1, "k": 2, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
                  "start": [[0.0], [2.0]]}
        trace.write_text("\n".join([json.dumps(header)] + [
            json.dumps({"t": t, "r": [x]}) for t, x in enumerate((0.5, 1.5, 2.0, 1.0), 1)]) + "\n")
        argv = ["optimum", "--trace", str(trace), "--grid", "0.5"]
        monkeypatch.setenv("KMOB_BUDGET", "624")
        assert main(argv) == 3
        assert "625" in capsys.readouterr().err
        monkeypatch.setenv("KMOB_BUDGET", "625")
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["grid"]["points"] == 5

    def test_lemma_geo_cli(self):
        assert main(["verify", "--property", "lemma-geo", "--samples", "500",
                     "--delta-geo", "0.3", "--seed", "2"]) == 0

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_lemma_geo_refuses_fewer_than_one_sample(self, capsys, samples):
        # No sample would pass vacuously, with an infinite minimum margin.
        assert main(["verify", "--property", "lemma-geo", "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("args,message", [
        (["thm4", "--k", "2", "--ms", "0", "--mc", "0"], "ms must be positive and finite, got 0.0"),
        (["thm3", "--k", "4", "--ms", "nan"], "ms must be positive and finite, got nan"),
        (["thm3", "--k", "4", "--ms", "inf"], "ms must be positive and finite, got inf"),
        (["thm3", "--k", "4", "--ms", "0"], "ms must be positive and finite, got 0.0"),
        (["thm3", "--k", "4", "--ms", "1e308"], "a target Z is not finite: x * ms = 16 * 1e+308 "
                                                 "is too large"),
        (["walk", "--n", "0", "--mc", "0.5"], "n must be positive")])
    def test_generate_refuses_parameters_it_cannot_use(self, tmp_path, capsys, args, message):
        x = [] if args[0] == "walk" else ["--x", "16"]  # a walk reads no x
        assert main(["generate", "--out", str(tmp_path / "t.jsonl"), *x,
                     "--construction"] + args) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    @pytest.mark.parametrize("ms,mc,message", [
        ("1", "nan", "mc must be positive and finite, got nan"),
        ("nan", "1", "ms must be positive and finite, got nan"),
        ("-1", "0", "ms must be positive and finite, got -1.0")])
    def test_generate_refuses_a_walk_that_would_not_end(self, tmp_path, ms, mc, message):
        # These once looped forever; a separate process with a timeout fails instead.
        env = dict(os.environ, PYTHONPATH=str(Path(kmobile.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "kmobile.cli", "generate", "--construction", "thm4",
             "--k", "2", "--x", "16", "--ms", ms, "--mc", mc, "--out", str(tmp_path / "t.jsonl")],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("grid", ["0", "-1", "nan", "inf"])
    def test_optimum_refuses_a_resolution_not_positive_and_finite(self, tmp_path, capsys, grid):
        trace = tmp_path / "line.jsonl"
        header = {"dim": 1, "k": 2, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
                  "start": [[0.0], [2.0]]}
        trace.write_text("\n".join([json.dumps(header)] + [
            json.dumps({"t": t, "r": [x]}) for t, x in enumerate((0.5, 1.5, 2.0), 1)]) + "\n")
        assert main(["optimum", "--trace", str(trace), "--grid", grid]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("input error: grid resolution must be positive and finite"), err

    def test_optimum_refuses_a_grid_of_more_points_than_a_float_counts(self, tmp_path, capsys):
        # 1e-320 is positive and finite, but the span over it overflows.
        trace = tmp_path / "line.jsonl"
        header = {"dim": 1, "k": 2, "ms": 1.0, "mc": 1.0, "delta": 0.0, "D": 1.0,
                  "start": [[0.0], [2.0]]}
        trace.write_text("\n".join([json.dumps(header)] + [
            json.dumps({"t": t, "r": [x]}) for t, x in enumerate((0.5, 1.5, 2.0), 1)]) + "\n")
        assert main(["optimum", "--trace", str(trace), "--grid", "1e-320"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("resource budget exceeded: a grid of resolution 1e-320"), err

    @pytest.mark.parametrize("flag,value,prop", [
        *[("--sigma", value, prop) for value in ("0", "-1", "nan", "inf")
          for prop in ("helper-invariants", "slow-potential")],
        *[("--Y", value, "slow-potential") for value in ("0", "-1", "nan", "inf")]])
    def test_verify_refuses_a_scale_not_positive_and_finite(self, valid_records, tmp_path,
                                                            capsys, flag, value, prop):
        records, trace, _ = valid_records
        run_path = tmp_path / "slow.run.json"
        run_path.write_text(json.dumps(records[0]))
        assert main(["verify", "--property", prop, "--run", str(run_path), "--trace", trace,
                     flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"input error: {flag[2:]} must be positive and finite"), err

    @pytest.mark.parametrize("key,step,value,message", [
        ("t", 3, 4, "t must count the steps from 1, got 4"),
        ("t", 1, 0, "t must count the steps from 1, got 0"),
        ("perm", 2, [0, 0], "perm must be a permutation of 0..1, got (0, 0)"),
        ("perm", 5, [1, 2], "perm must be a permutation of 0..1, got (1, 2)"),
        ("mover", 4, 2, "the mover must be null or a server 0..1, got 2"),
        ("mover", 6, -1, "the mover must be null or a server 0..1, got -1"),
        ("caps", 7, [1.5, -0.5], "caps holds a negative entry, got -0.5"),
        ("disp", 8, [-1e-300, 0.0], "disp holds a negative entry, got -1e-300"),
        *[(key, 4, -100.0, f"{key} holds a negative cost, got -100.0") for key in (
            "serving", "movement", "cost", "sim_serving", "sim_movement", "sim_cost",
            "matched_sum")]])
    def test_verify_refuses_structurally_impossible_steps(self, valid_records, tmp_path, capsys,
                                                          key, step, value, message):
        record = copy.deepcopy(valid_records[0][1])
        record["steps"][step - 1][key] = value
        run_path = tmp_path / "fast.run.json"
        run_path.write_text(json.dumps(record))
        assert main(["verify", "--property", "fast-potential", "--run", str(run_path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"input error: run record step {step}: {message}\n")

    def test_verify_refuses_a_record_without_steps(self, valid_records, tmp_path, capsys):
        run_path = tmp_path / "fast.run.json"
        empty = replace(RunResult.from_dict(valid_records[0][1]), reports=[])
        run_path.write_text(empty.to_json({}))
        assert main(["verify", "--property", "fast-potential", "--run", str(run_path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"input error: {run_path}: the run record has no steps\n")

    @pytest.mark.parametrize("shape,message", [
        ("array", "run record must be a JSON object, got list"),
        ("null-steps", "run record steps must be a list, got NoneType"),
        ("object-steps", "run record steps must be a list, got dict"),
        ("list-params", "parameters must be a JSON object, got [2]"),
        ("400-digit-cost", "malformed run record: int too large to convert to float"),
        ("simple-algo", "no fast-mode potential is defined for algorithm 'simple'"),
    ])
    def test_verify_names_a_malformed_record_shape(self, valid_records, tmp_path, capsys,
                                                   shape, message):
        record = valid_records[0][1]
        steps = copy.deepcopy(record["steps"])
        steps[0]["cost"] = 10 ** 400
        record = {"array": [record], "null-steps": dict(record, steps=None),
                  "object-steps": dict(record, steps={}), "list-params": dict(record, params=[2]),
                  "400-digit-cost": dict(record, steps=steps),
                  "simple-algo": dict(record, algo="simple")}[shape]
        run_path = tmp_path / "fast.run.json"
        run_path.write_text(json.dumps(record))
        assert main(["verify", "--property", "fast-potential", "--run", str(run_path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"input error: {message}\n")

    @pytest.mark.parametrize("field,value,message", [
        (("params", "typo"), 3, "run record params hold keys other than parameters: ['typo']"),
        (("steps", 1, "typo"), 3, "run record step 2: a step may hold no field but t, r, perm, "
                                  "branch, mover, caps, disp, serving, movement, cost, "
                                  "sim_serving, sim_movement, sim_cost, matched_sum, a, c, "
                                  "got ['typo']"),
        (("projection", "typo"), 3, "run record projection audit must hold the numbers "
                                    "('max_hat_request_distance', 'radius_bound', 'raw_cost', "
                                    "'projected_cost', 'phase_ends')"),
        (("ledger", "grand_total"), -5.0, "run record ledger must be the steps' totals {want}, "
                                          "got {got}"),
        (("ledger", "serving_total"), "0.0", "run record ledger must be the steps' totals "
                                             "{want}, got {got}"),
        (("ledger",), None, "run record misses field 'ledger'"),
    ], ids=["params-extra-key", "step-extra-key", "audit-extra-key", "negative-grand-total",
            "string-total", "no-ledger"])
    def test_verify_holds_a_record_to_exactly_what_the_run_writes(
            self, valid_records, tmp_path, capsys, field, value, message):
        record = copy.deepcopy(valid_records[0][0])
        *path, key = field
        owner = functools.reduce(operator.getitem, path, record)
        if value is None:
            del owner[key]
        else:
            owner[key] = value
        want, got = (json.dumps(obj.get("ledger"), sort_keys=True)
                     for obj in (valid_records[0][0], record))
        run_path = tmp_path / "slow.run.json"
        run_path.write_text(json.dumps(record))
        assert main(["verify", "--property", "projection-bound", "--run", str(run_path)]) == 2
        assert capsys.readouterr() == ("", f"input error: {message.format(want=want, got=got)}\n")

    def test_verify_names_a_step_missing_a_field(self, valid_records, tmp_path, capsys):
        record = copy.deepcopy(valid_records[0][1])
        del record["steps"][2]["t"]
        run_path = tmp_path / "fast.run.json"
        run_path.write_text(json.dumps(record))
        assert main(["verify", "--property", "fast-potential", "--run", str(run_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("input error: run record step 3: a step needs the field 't', got {")

    @pytest.mark.parametrize("field", list(STEP_FIELDS))
    def test_verify_names_any_field_a_golden_step_misses(self, tmp_path, capsys, field):
        golden = Path(__file__).resolve().parent / "golden" / "walk-fast-ums.run.json"
        record = json.loads(golden.read_text(encoding="utf-8"))
        middle = len(record["steps"]) // 2
        del record["steps"][middle][field]
        run_path = tmp_path / "fast.run.json"
        run_path.write_text(json.dumps(record))
        assert main(["verify", "--property", "fast-potential", "--run", str(run_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"input error: run record step {middle + 1}: "
                              f"a step needs the field {field!r}, got {{"), err

    @pytest.mark.parametrize("command", ["simulate", "verify", "sweep", "optimum", "psi0-digits"])
    def test_input_json_cannot_read_exits_2(self, valid_records, tmp_path, capsys, command):
        # Bytes that are not UTF-8 for each command that reads a file, and a record
        # holding an integer too long for int() to convert: each error names the file.
        path = tmp_path / "bad"
        path.write_bytes(b"\xff\xfe{}\n")
        verify = ["verify", "--property", "fast-potential", "--run", str(path)]
        argv = {"simulate": ["simulate", "--trace", str(path)], "verify": verify,
                "sweep": ["sweep", "--spec", str(path)], "psi0-digits": verify,
                "optimum": ["optimum", "--trace", str(path), "--grid", "0.5"]}[command]
        if command == "psi0-digits":
            text = json.dumps(dict(valid_records[0][1], psi0_matched_sum="PSI0"))
            path.write_text(text.replace('"PSI0"', "1" * 5000))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"input error: {path}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["simulate", "optimum", "verify", "sweep"])
    @pytest.mark.parametrize("defect,message", [
        ("start-short-of-k", "{path}: start config has 1 servers, expected 2"),
        ("far-jump", "invalid trace: TraceViolation(kind='request-locality', index=1, "
                     "measured=5.0, bound=0.5)")])
    def test_each_command_checks_the_whole_trace_it_reads(self, valid_records, tmp_path, capsys,
                                                          command, defect, message):
        # The far jump's certificate lines list one server of two, which no check reaches
        # before the jump.
        header = {"dim": 1, "k": 2, "ms": 1.0, "mc": 0.5, "delta": 0.0, "D": 1.0,
                  "start": [[0.0]] if defect == "start-short-of-k" else [[0.0], [0.0]]}
        lines = [header, {"t": 1, "r": [0.0]}, {"t": 2, "r": [5.0]}]
        if defect == "far-jump":
            lines += [{"t": 1, "o": [[0.0]]}, {"t": 2, "o": [[0.0]]}]
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        run_path = tmp_path / "fast.run.json"
        run_path.write_text(json.dumps(valid_records[0][1]))
        argv = {"simulate": ["simulate", "--trace", str(path)],
                "optimum": ["optimum", "--trace", str(path), "--grid", "1"],
                "verify": ["verify", "--property", "fast-potential", "--run", str(run_path),
                           "--trace", str(path)],
                "sweep": ["sweep", "--spec", write_spec(tmp_path, f"trace={path}\n")]}[command]
        if command == "sweep" and defect == "far-jump":
            message = "certificate step 1 has 1 servers"  # certificate_cost reads it first
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"input error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("start,message", [
        ([[0.0]], "split-serve needs at least two servers"),
        ([[0.0, 0.0], [1.0, 0.0]], "split-serve requires dimension 1")])
    def test_simulate_refuses_split_serve_off_a_line_of_two_servers(self, tmp_path, capsys,
                                                                      start, message):
        header = {"dim": len(start[0]), "k": len(start), "ms": 1.0, "mc": 1.0, "delta": 0.5,
                  "D": 1.0, "start": start}
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps({"t": 1, "r": start[0]}) + "\n")
        assert main(["simulate", "--trace", str(path), "--sim", "split-serve"]) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    def test_fast_potential_counts_a_nan_margin_as_a_violation(self, valid_records, tmp_path,
                                                              capsys):
        record = copy.deepcopy(valid_records[0][1])
        record["steps"][4]["cost"] = float("nan")
        run_path = tmp_path / "fast.run.json"
        run_path.write_text(json.dumps(record))
        assert main(["verify", "--property", "fast-potential", "--run", str(run_path)]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [5]

    def test_fast_potential_reports_a_nan_min_margin_wherever_the_nan_is(self, tmp_path,
                                                                         capsys):
        trace, run_path = str(tmp_path / "walk.jsonl"), str(tmp_path / "walk.run.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--construction", "walk", "--k", "2", "--n", "40",
                         "--mc", "0.5", "--ms", "1", "--seed", "3", "--out", trace]) == 0
            assert main(["simulate", "--trace", trace, "--out", run_path]) == 0
        with open(run_path, encoding="utf-8") as fh:
            record = json.load(fh)
        record["steps"][9]["cost"] = float("nan")
        with open(run_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        assert main(["verify", "--property", "fast-potential", "--run", run_path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["violations"] == [10] and math.isnan(out["min_margin"])

    def test_slow_potential_reports_a_nan_margin_as_negative(self, tmp_path, capsys):
        trace, run_path = str(tmp_path / "thm3.jsonl"), str(tmp_path / "thm3.run.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--construction", "thm3", "--k", "2", "--x", "64",
                         "--seed", "1", "--out", trace]) == 0
            assert main(["simulate", "--trace", trace, "--out", run_path]) == 0
        verify = ["verify", "--property", "slow-potential", "--run", run_path, "--trace", trace,
                  "--sigma", "1e-3"]
        assert main(verify) == 0
        clean = json.loads(capsys.readouterr().out)
        assert clean["negative_margins"] == 0 and clean["negatives"] == []
        with open(run_path, encoding="utf-8") as fh:
            record = json.load(fh)
        record["steps"][40]["cost"] = float("nan")
        with open(run_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        assert main(verify) == 0  # a diagnostic property
        out = json.loads(capsys.readouterr().out)
        assert math.isnan(out["min_margin"]) and out["negative_margins"] == 1
        assert len(out["negatives"]) == 1 and out["negatives"][0][0] == 41
        assert math.isnan(out["negatives"][0][1])

    def test_a_wrong_dimension_request_after_settled_steps_exits_2(self, tmp_path, capsys):
        # The first steps settle; the request after them is checked all the same.
        trace = tmp_path / "line.jsonl"
        header = {"dim": 1, "k": 2, "ms": 1.0, "mc": 1.0, "delta": 0.5, "D": 1.0,
                  "start": [[0.0], [0.0]]}
        requests = [[0.0]] * 3 + [[0.0, 0.0]]
        trace.write_text("\n".join([json.dumps(header)] + [
            json.dumps({"t": t, "r": r}) for t, r in enumerate(requests, 1)]) + "\n")
        assert main(["simulate", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err

    def test_sweep_cli(self, tmp_path):
        spec = write_spec(tmp_path, """
construction=thm3
algo=ums
sim=dc-line
k=2
ms=1.0
delta=0.5
seeds=1
sweep.x=16,32
""")
        agg = str(tmp_path / "agg.json")
        csv = str(tmp_path / "ratios.csv")
        assert main(["sweep", "--spec", spec, "--out", agg, "--ratio-csv", csv]) == 0
        table = (tmp_path / "ratios.csv").read_text().splitlines()
        assert table[0] == "value,mean_ratio,min_ratio,max_ratio"
        assert len(table) == 3
        # CLI flags override spec-file values
        assert main(["sweep", "--spec", spec, "--out", agg, "--seeds", "4,5"]) == 0
        agg_data = json.loads((tmp_path / "agg.json").read_text())
        assert agg_data["spec"]["seeds"] == [4, 5]

    def test_generate_flags_are_typed_from_param_types(self):
        parser = build_parser()
        for key, conv in PARAM_TYPES.items():
            args = parser.parse_args(["generate", "--construction", "walk", "--out", "w.jsonl",
                                      "--" + key.replace("_", "-"), "3"])
            assert type(getattr(args, key)) is conv and getattr(args, key) == 3, key
        args = parser.parse_args(["simulate", "--trace", "w.jsonl", "--ms", "3", "--D", "2"])
        assert (args.ms, args.D, args.mc, args.delta) == (3.0, 2.0, None, None)
        assert type(args.ms) is float

    def test_one_parser_serves_every_call_with_its_own_defaults(self, tmp_path, capsys):
        trace = str(tmp_path / "w.jsonl")
        assert main(["generate", "--construction", "walk", "--k", "1", "--n", "10",
                     "--mc", "0.5", "--out", trace]) == 0
        assert build_parser() is build_parser()
        with mock.patch("kmobile.cli.run_mobile", wraps=run_mobile) as runs:
            assert main(["simulate", "--ms", "3", "--trace", trace]) == 0
            assert main(["simulate", "--trace", trace]) == 0
        # The second call reads the trace header's ms, not the first call's --ms.
        assert [call.args[1].ms for call in runs.call_args_list] == [3.0, 1.0]

    def test_simulate_takes_k_only_from_the_trace_header(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["generate", "--construction", "thm3", "--k", "2", "--x", "8",
                     "--out", trace]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trace", trace, "--k", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 2" in capsys.readouterr().err

    def test_record_properties_refuse_a_record_of_another_trace(self, tmp_path, capsys):
        # Every record property given a trace checks that the record is a run of
        # it; fast-potential and projection-bound read nothing else from it.
        traces = {}
        for name, extra in (("z0", ["--z-choice", "0"]), ("z3", ["--z-choice", "3"]),
                            ("k4", ["--k", "4"])):
            traces[name] = str(tmp_path / f"{name}.jsonl")
            assert main(["generate", "--construction", "thm3", "--x", "16", "--seed", "1",
                         *extra, "--out", traces[name]]) == 0
        trace, params = read_trace(traces["z0"])
        n = len(trace)
        traces["short"] = str(tmp_path / "short.jsonl")
        write_trace(traces["short"], replace(trace, requests=trace.requests[:-1],
                                             certificate=None), params)
        # At ms 16 > mc the run is in fast mode; at the header's ms it is slow, with the projection.
        fast, slow = str(tmp_path / "fast.run.json"), str(tmp_path / "slow.run.json")
        assert main(["simulate", "--trace", traces["z0"], "--ms", "16", "--out", fast]) == 0
        assert main(["simulate", "--trace", traces["z0"], "--out", slow]) == 0
        capsys.readouterr()
        for prop, record in (("fast-potential", fast), ("projection-bound", slow),
                             ("helper-invariants", slow), ("slow-potential", slow)):
            argv = ["verify", "--property", prop, "--run", record]
            alone = None
            if prop in ("fast-potential", "projection-bound"):
                assert main(argv) == 0, prop
                alone = capsys.readouterr()
            assert main(argv + ["--trace", traces["z0"]]) == 0, prop
            assert alone in (None, capsys.readouterr()), prop
            for name, err in (("z3", "run record step 17: request [-12.0] differs "
                                     "from the trace's [12.0]"),
                              ("k4", "run record k=2 is not the trace's k=4"),
                              ("short", f"run record has {n} steps, the trace {n - 1} requests")):
                assert main(argv + ["--trace", traces[name]]) == 2, (prop, name)
                assert capsys.readouterr().err == f"input error: {err}\n", (prop, name)
            assert main(argv + ["--trace", str(tmp_path / "nonexistent.jsonl")]) == 2, prop
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and err.count("\n") == 1, (prop, err)
            assert "nonexistent.jsonl" in err, (prop, err)

    def test_helper_invariants_cli(self, tmp_path):
        trace = str(tmp_path / "t4.jsonl")
        main(["generate", "--construction", "thm4", "--x", "32", "--k", "2",
              "--ms", "1.0", "--mc", "4.0", "--z-choice", "2", "--out", trace])
        run_path = str(tmp_path / "run.json")
        main(["simulate", "--algo", "ums", "--sim", "dc-line", "--trace", trace,
              "--out", run_path])
        assert main(["verify", "--property", "helper-invariants", "--run", run_path,
                     "--trace", trace, "--sigma", "0.001"]) == 0
        assert main(["verify", "--property", "slow-potential", "--run", run_path,
                     "--trace", trace, "--sigma", "0.001"]) == 0


class TestCliBranches:
    """Flags and refusals of each command, one branch a test."""

    def test_sweep_flags_override_the_spec(self, tmp_path, capsys):
        # A construction on the command line replaces the spec's trace, which is never read.
        spec = write_spec(tmp_path, "trace=absent.jsonl\nalgo=wms\nsim=pm-counter\n"
                                    "project=on\nseeds=0\n")
        out = tmp_path / "agg.json"
        assert main(["sweep", "--spec", spec, "--construction", "thm3", "--algo", "ums",
                     "--sim", "dc-line", "--project", "off", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["spec"] == {
            "construction": "thm3", "trace": None, "algo": "ums", "sim": "dc-line",
            "project": "off", "base": {}, "seeds": [0], "sweep": {}}

    def test_optimum_writes_its_trajectory_and_prints_the_cost(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["generate", "--construction", "walk", "--k", "1", "--n", "10",
                     "--mc", "0.5", "--seed", "2", "--out", trace]) == 0
        capsys.readouterr()
        out = tmp_path / "opt.json"
        assert main(["optimum", "--trace", trace, "--grid", "0.5", "--with-trajectory",
                     "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert json.loads(capsys.readouterr().out) == {"cost": written["cost"]}
        assert len(written["trajectory"]) == 10
        assert all(len(conf) == 1 and len(conf[0]) == 1 for conf in written["trajectory"])

    def test_record_properties_refuse_a_missing_input(self, valid_records, tmp_path, capsys):
        _, trace, _ = valid_records
        walk = str(tmp_path / "walk.jsonl")
        assert main(["generate", "--construction", "walk", "--k", "2", "--n", "10",
                     "--mc", "0.5", "--out", walk]) == 0
        run_path = str(tmp_path / "walk.run.json")
        assert main(["simulate", "--trace", walk, "--out", run_path]) == 0
        capsys.readouterr()
        slow = ["verify", "--property", "slow-potential"]
        for argv, message in (
                (["verify", "--property", "fast-potential"],
                 "--run is required for property fast-potential"),
                (slow + ["--run", run_path],
                 "--trace with a certificate is required for slow-potential"),
                (slow + ["--run", run_path, "--trace", walk],
                 "the trace carries no offline certificate")):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", f"input error: {message}\n"), argv

    def test_a_guidance_off_the_request_is_a_violation(self, tmp_path, capsys):
        # pm-counter may serve over a distance; ums needs a server on the request.
        trace = str(tmp_path / "t.jsonl")
        assert main(["generate", "--construction", "walk", "--k", "2", "--n", "50",
                     "--mc", "0.5", "--ms", "1", "--seed", "3", "--out", trace]) == 0
        capsys.readouterr()
        assert main(["simulate", "--algo", "ums", "--sim", "pm-counter", "--trace", trace]) == 1
        assert capsys.readouterr() == (
            "", "violation: guidance left no server on the request at step 2\n")

    def test_a_line_walk_past_the_dp_caps_has_no_reference(self, tmp_path, capsys):
        # 30 steps is the longest walk the DP takes; the 31-step point has no ratio.
        spec = write_spec(tmp_path, "construction=walk\nk=1\nmc=0.5\nseeds=0\nsweep.n=30,31\n")
        out, csv = tmp_path / "agg.json", tmp_path / "ratios.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out), "--ratio-csv", str(csv)]) == 0
        at30, at31 = json.loads(out.read_text())["records"]
        assert at30["reference"] > 0.0 and at30["ratio"] > 0.0
        assert (at31["reference"], at31["ratio"]) == (None, None)
        assert csv.read_text().splitlines()[2] == "31,,,"


@pytest.fixture(scope="module")
def valid_records(tmp_path_factory):
    """A slow-mode thm3 record with the projection, a fast-mode record of the same trace, and the trace."""
    tmp = tmp_path_factory.mktemp("records")
    trace = str(tmp / "thm3.jsonl")
    slow, fast = str(tmp / "slow.run.json"), str(tmp / "fast.run.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--construction", "thm3", "--k", "2", "--x", "8",
                     "--seed", "3", "--out", trace]) == 0
        assert main(["simulate", "--trace", trace, "--out", slow]) == 0
        assert main(["simulate", "--trace", trace, "--ms", "3.0", "--out", fast]) == 0
    records = [json.loads(open(path, encoding="utf-8").read()) for path in (slow, fast)]
    return records, trace, str(tmp / "mutated.run.json")


def node_paths(node, path=()):
    """Paths to every value in a JSON document, containers included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from node_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from node_paths(value, path + (i,))


MUTATIONS = ("string", "null", "empty", "wrong-length", "nested", "nan",
             "number-string", "bool", "fraction")


def mutated(value, kind: str, text: str):
    if kind == "string":
        return text
    if kind == "number-string":
        return str(value)
    if kind == "bool":
        return True
    if kind == "fraction":
        return 0.5
    if kind == "null":
        return None
    if kind == "huge":
        return 1e308
    if kind == "negative":
        return -value if type(value) in (int, float) else value
    if kind == "empty":
        return []
    if kind == "wrong-length":
        return value[:-1] if isinstance(value, list) and len(value) > 1 else [value, value]
    if kind == "nested":
        return [value]
    return float("nan")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_survives_mutated_records(valid_records, data):
    """One field of a valid record replaced: every property exits 0, 1 or 2, never raises."""
    records, trace, path = valid_records
    record = copy.deepcopy(records[data.draw(st.sampled_from((0, 1)), label="slow 0, fast 1")])
    where = data.draw(st.sampled_from(list(node_paths(record))[1:]), label="path")
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    text = data.draw(st.text(max_size=4), label="text")
    parent = record
    for key in where[:-1]:
        parent = parent[key]
    original = parent[where[-1]]
    parent[where[-1]] = mutated(original, kind, text)
    # A number in the steps or the parameters read as a string or a bool, or an
    # integer read as 0.5, is an input error.
    must_reject = where[0] in ("steps", "params") and (
        (kind in ("number-string", "bool") and type(original) in (int, float))
        or (kind == "fraction" and type(original) is int))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for prop in RECORD_PROPERTIES:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", "--property", prop, "--run", path, "--trace", trace])
        assert code in (0, 1, 2), (prop, where, kind)
        assert code == 2 or not must_reject, (prop, where, kind)
        if code == 2:
            assert err.getvalue().startswith("input error: "), (prop, where, kind)
            assert err.getvalue().count("\n") == 1, (prop, where, kind)


def run_cli(argv):
    """Exit code and standard error of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


SPEC = ("construction=thm3", "algo=ums", "sim=dc-line", "k=2", "x=8", "seeds=0", "sweep.delta=0.5")
TRACE_SPEC = ("trace={trace}", "algo=ums", "seeds=0")
SPEC_TOKENS = ("", "0", "-1", "1", "2.5", "1e400", "-0.0", "nan", "inf", "true", "1,2", ",",
               "=", "#", "ums", "wms", "wfa", "greedy", "thm4", "walk", "0x10", "1_0", "sweep.",
               "sweep.k", "sweep.seeds", "trace", "k", "x", "D", "dim", "project", "seeds")
# No digits, so a drawn value cannot ask for a large instance.
SPEC_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Nd",)), max_size=4)


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_survives_mutated_traces_and_specs(valid_records, data):
    """One value of a trace, one line of a spec: simulate and sweep exit 0-3, never raise."""
    _, trace, path = valid_records
    with open(trace, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    row = data.draw(st.integers(0, len(lines) - 1), label="trace line")
    where = data.draw(st.sampled_from(list(node_paths(lines[row]))[1:]), label="path")
    kind = data.draw(st.sampled_from(MUTATIONS + ("huge", "negative")), label="mutation")
    text = data.draw(st.text(max_size=4), label="text")
    parent = lines[row]
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = mutated(parent[where[-1]], kind, text)
    mutated_trace = path + ".jsonl"
    with open(mutated_trace, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(obj) + "\n" for obj in lines))

    spec = [entry.format(trace=trace) for entry in data.draw(
        st.sampled_from((SPEC, TRACE_SPEC)), label="spec")]
    i = data.draw(st.integers(0, len(spec) - 1), label="spec line")
    token = data.draw(st.one_of(st.sampled_from(SPEC_TOKENS), SPEC_TEXT), label="token")
    key, value = spec[i].split("=")
    how = data.draw(st.sampled_from(("value", "key", "line", "delete")), label="spec mutation")
    if how == "delete":
        del spec[i]
    else:
        spec[i] = {"value": f"{key}={token}", "key": f"{token}={value}", "line": token}[how]
    spec_path = path + ".spec"
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(spec) + "\n")

    for argv in (["simulate", "--trace", mutated_trace], ["sweep", "--spec", spec_path]):
        code, err = run_cli(argv)
        assert code in (0, 1, 2, 3), (argv[0], code, err)
        if code == 2:
            assert err.startswith("input error: ") and err.count("\n") == 1, (argv[0], err)
