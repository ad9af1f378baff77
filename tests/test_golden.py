"""Byte-for-byte golden outputs of the command line.

Each case runs kmobile commands in a fresh directory and compares every
file they write with the file of the same name under tests/golden/.
A rerun-equals-rerun test cannot see a change that is stable but
different, such as another tie-break among optimal matchings; these
files can.  They were written once by the commands below and are never
rewritten by the tests.
"""
from pathlib import Path

import pytest

from kmobile.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Sweep specs: every construction, every algorithm, and k on both sides
# of the small-matrix shortcut (k <= 2) with co-located start servers.
SWEEPS = {
    "thm3-ums": ("construction=thm3\nalgo=ums\nx=8\nms=1.0\ndelta=0.5\n"
                 "seeds=0,1\nsweep.k=2,3,4,8\n"),
    "thm4-wms": ("construction=thm4\nalgo=wms\nx=16\nms=1.0\nmc=1.25\nD=2.0\n"
                 "delta=0.5\nseeds=0,1\nsweep.k=2,3,4\n"),
    "walk-ums": ("construction=walk\nalgo=ums\ndim=2\nn=10\nms=1.0\nmc=1.2\n"
                 "delta=0.5\nseeds=0,1\nsweep.k=3,4\n"),
    "simple-cx-simple": "construction=simple-cx\nalgo=simple\nx=16\ny=2\nms=1.0\nseeds=0\n",
}

# (generate arguments, simulate arguments) of single runs whose trace,
# metadata, run record and step CSV are all compared.
RUNS = {
    "walk-fast-ums": (["--construction", "walk", "--k", "4", "--dim", "2", "--n", "40",
                       "--ms", "1.0", "--mc", "1.2", "--delta", "0.5", "--seed", "3"],
                      ["--algo", "ums", "--sim", "greedy"]),
    "thm3-slow-ums": (["--construction", "thm3", "--k", "4", "--x", "8", "--seed", "1"],
                      ["--algo", "ums"]),
    "walk-slow-wms": (["--construction", "walk", "--k", "3", "--n", "60", "--ms", "1.0",
                       "--mc", "2.0", "--D", "2.0", "--delta", "0.5", "--seed", "5"],
                      ["--algo", "wms"]),
    "thm4-slow-wms": (["--construction", "thm4", "--k", "2", "--x", "16", "--ms", "1",
                       "--mc", "2.5", "--D", "2", "--seed", "2"],
                      ["--algo", "wms"]),
}


def assert_golden(directory: Path, names) -> None:
    for name in names:
        produced = (directory / name).read_bytes()
        assert produced == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_aggregate_matches_golden(name, tmp_path, capsys):
    spec = tmp_path / f"{name}.spec"
    spec.write_text(SWEEPS[name], encoding="utf-8")
    out = f"{name}.aggregate.json"
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / out)]) == 0
    assert_golden(tmp_path, [out])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_record_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the run record keeps the trace path as given
    gen_args, sim_args = RUNS[name]
    trace, record, csv = f"{name}.jsonl", f"{name}.run.json", f"{name}.steps.csv"
    assert main(["generate", "--out", trace] + gen_args) == 0
    assert main(["simulate", "--trace", trace, "--out", record, "--csv", csv] + sim_args) == 0
    assert_golden(tmp_path, [trace, trace + ".meta.json", record, csv])
