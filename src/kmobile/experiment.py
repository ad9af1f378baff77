"""Reproducible experiment runs: sweeps, ratio tables, machine-readable records.

An experiment spec names a construction (or a trace file), an
algorithm, parameters, seeds and optional sweep axes.  Every run is
deterministic in (sweep point, seed); the aggregate output is
byte-stable across reruns.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from kmobile import checks
from kmobile.adversary import (
    TWO_SERVER_CHOICES,
    GeneratedInstance,
    gen_local_walk,
    gen_simple_counterexample,
    gen_thm3,
    gen_thm4,
)
from kmobile.core import (
    InputError,
    ProblemParams,
    ResourceBudgetError,
    certificate_cost,
    read_text,
    read_trace,
    total,
    validate_trace,
)
from kmobile.mobile import run as run_mobile
from kmobile.offline import GridSpec, dp_optimum


def fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal formatting for stable diffs."""
    return format(float(x), ".17g")


@dataclass
class ExperimentSpec:
    construction: Optional[str] = None
    trace_path: Optional[str] = None
    algo: str = "ums"
    sim: str = "auto"
    project: str = "auto"
    base: dict = field(default_factory=dict)
    seeds: list[int] = field(default_factory=lambda: [0])
    sweep: dict[str, list[float]] = field(default_factory=dict)

    def validate(self) -> None:
        if (self.construction is None) == (self.trace_path is None):
            raise InputError("spec needs exactly one of construction= or trace=")
        if not self.seeds:
            raise InputError("spec needs at least one seed")
        for axis, values in self.sweep.items():
            if not values:
                raise InputError(f"sweep axis {axis} has no values")
        # A parameter the runs never read must not appear in the aggregate as if applied;
        # build_instance refuses those a construction does not read.
        keys = sorted({**self.base, **self.sweep})
        if self.trace_path is not None and keys:
            raise InputError(f"spec parameter {keys[0]} is not read with trace={self.trace_path}: "
                             "the runs take the trace header's parameters")


@dataclass
class RunRecord:
    point: dict
    seed: int
    cost: float
    serving: float
    movement: float
    reference: Optional[float]
    ratio: Optional[float]
    checks: dict
    ok: bool


# The construction parameters a sweep point may set, and their types.
PARAM_TYPES = {"k": int, "x": int, "y": int, "n": int, "dim": int, "z_choice": int,
               "ms": float, "mc": float, "delta": float, "D": float, "step_scale": float}

# Per construction, and so the one list of construction names: the parameters its
# generator reads, passed by name, the only ones a sweep point may set; a parameter
# without a _DEFAULTS entry must be given.
_READS = {"thm3": ("k", "x", "D", "ms", "delta", "z_choice"),
          "thm4": ("k", "x", "ms", "mc", "D", "delta", "z_choice"),
          "simple-cx": ("x", "y", "ms"),
          "walk": ("k", "ms", "mc", "delta", "D", "dim", "n", "step_scale")}
_DEFAULTS = {"k": 2, "x": 64, "n": 100, "dim": 1, "ms": 1.0, "delta": 0.5, "D": 1.0,
             "step_scale": 1.0, "z_choice": None}


def _param_value(key: str, value):
    """``value`` as the PARAM_TYPES type of ``key``; anything else raises InputError."""
    conv = PARAM_TYPES.get(key)
    if conv is None:
        raise InputError(f"unknown parameter {key!r} (expected one of {', '.join(PARAM_TYPES)})")
    try:
        return conv(value)
    except (OverflowError, TypeError, ValueError) as exc:
        kind = "an integer" if conv is int else "a number"
        raise InputError(f"parameter {key} must be {kind}, got {value!r}") from exc


def parse_seeds(text: str) -> list[int]:
    """Comma-separated integer seeds."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"seeds must be comma-separated integers, got {text!r}") from exc


def parse_spec_file(path: str) -> ExperimentSpec:
    """Flat key=value file; lists are comma-separated; sweep axes use sweep.<name>."""
    spec, seen = ExperimentSpec(), {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            name = key.removeprefix("sweep.")  # a base key and its sweep axis set one value
            if seen.setdefault(name, lineno) != lineno:
                raise InputError(f"{name} is already set at line {seen[name]}")
            if key == "construction":
                spec.construction = value
            elif key == "trace":
                spec.trace_path = value
            elif key in ("algo", "sim", "project"):
                setattr(spec, key, value)
            elif key == "seeds":
                spec.seeds = parse_seeds(value)
            elif key.startswith("sweep."):
                spec.sweep[name] = [_param_value(name, v) for v in value.split(",")
                                    if v.strip()]
            else:
                spec.base[key] = _param_value(key, value)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return spec


def build_instance(construction: str, point: dict, seed: int, *,
                   certificate: bool = True) -> GeneratedInstance:
    """The construction's instance at a sweep point; the one map from construction to generator.

    With ``certificate`` False, the jump constructions (thm3, thm4) leave the offline
    trajectory off the trace; their bound is the same.
    """
    if construction not in _READS:
        raise InputError(f"unknown construction {construction!r}")
    unread = sorted(set(point) - set(_READS[construction]))
    if unread:
        raise InputError(f"parameter {unread[0]} is not read by construction {construction}")
    p = dict(_DEFAULTS)
    p.update((key, _param_value(key, value)) for key, value in point.items())
    args = {}
    for key in _READS[construction]:
        if key not in p:
            raise InputError(f"construction {construction} needs {key}")
        args[key] = p[key]
    if construction == "thm3":
        return gen_thm3(**args, seed=seed, certificate=certificate)
    if construction == "thm4":
        return gen_thm4(**args, seed=seed, certificate=certificate)
    if construction == "simple-cx":
        return gen_simple_counterexample(**args)
    n, step_scale = args.pop("n"), args.pop("step_scale")
    return gen_local_walk(n, ProblemParams(**args), step_scale, seed)


def _dp_reference(instance: GeneratedInstance) -> Optional[float]:
    """The DP optimum on the line, or None where dp_optimum's caps refuse the instance."""
    trace, params = instance.trace, instance.params
    if params.dim != 1:
        return None
    try:
        return dp_optimum(trace, params, GridSpec.from_resolution(trace, params.ms))[0]
    except ResourceBudgetError:
        return None


def _run_checks(result) -> dict:
    out: dict = {}
    speed = checks.audit_speed_caps(result)
    out["speed_ok"] = speed.ok
    out["max_displacement"] = speed.max_displacement
    if result.mode == "fast" and result.algo in ("ums", "wms"):
        rep = checks.check_fast_potential(result)
        out["fast_potential_ok"] = rep.ok
        out["fast_potential_min_margin"] = rep.min_margin
    if result.projection_audit is not None:
        proj = checks.check_projection_bound(result)
        out["projection_ok"] = proj.ok
        if proj.ratio is not None:
            out["projection_ratio"] = proj.ratio
    return out


def _fold(key: str, old, new):
    """One check's value over two runs: the worst of them."""
    if key.endswith("_ok"):
        return old and new
    return checks.nan_min((old, new)) if key.endswith("_min_margin") else max(old, new)


def run_point(spec: ExperimentSpec, point: dict, seed: int) -> RunRecord:
    """One sweep point under one seed.

    Two-server jump/walk constructions enumerate all target choices and
    report the mean cost, mirroring the expectation the constructions
    bound; other constructions use the seed directly.  Each check folds
    to its worst value over the runs.
    """
    if spec.trace_path is not None:
        trace, params = read_trace(spec.trace_path)
        violation = validate_trace(trace, params)  # certificate_cost reads the certificate
        if violation is not None:
            raise InputError(f"invalid trace: {violation}")
        runs = [(trace, params)]
        reference = certificate_cost(trace, params) if trace.certificate is not None else None
    else:
        enumerate_targets = (spec.construction in ("thm3", "thm4") and "z_choice" not in point
                             and int(point.get("k", 2)) == 2)
        points = ([dict(point, z_choice=zc) for zc in range(TWO_SERVER_CHOICES)]
                  if enumerate_targets else [point])
        insts = [build_instance(spec.construction, p, seed, certificate=False) for p in points]
        runs = [(inst.trace, inst.params) for inst in insts]
        # Every choice shares the construction's bound.
        reference = insts[-1].offline_cost_bound
        if reference is None:
            reference = _dp_reference(insts[-1])
    costs = []
    serving = movement = 0.0
    all_checks: dict = {}
    for trace, params in runs:
        result = run_mobile(trace, params, algo=spec.algo, sim=spec.sim, project=spec.project)
        run_serving, run_movement = result.serving_total, result.movement_total
        costs.append(run_serving + params.D * run_movement)  # grand_total's own sum
        serving, movement = serving + run_serving, movement + run_movement
        for key, val in _run_checks(result).items():
            all_checks[key] = _fold(key, all_checks[key], val) if key in all_checks else val
    mean_cost = total(costs) / len(costs)
    ratio = mean_cost / reference if reference else None
    ok = all(v for k, v in all_checks.items() if k.endswith("_ok"))
    return RunRecord(point=point, seed=seed, cost=mean_cost, serving=serving / len(costs),
                     movement=movement / len(costs), reference=reference, ratio=ratio,
                     checks=all_checks, ok=ok)


def sweep_points(spec: ExperimentSpec) -> list[dict]:
    points = [dict(spec.base)]
    for axis, values in sorted(spec.sweep.items()):
        points = [dict(p, **{axis: v}) for v in values for p in points]
    # Order by axis values, then stable.
    axes = sorted(spec.sweep)
    points.sort(key=lambda p: tuple(p[a] for a in axes))
    return points


def run_experiment(spec: ExperimentSpec) -> tuple[list[RunRecord], dict]:
    spec.validate()
    records = []
    for point in sweep_points(spec):
        if spec.trace_path is not None:
            # The seed does not enter a trace run: run it once, record it per seed.
            record = run_point(spec, point, spec.seeds[0])
            records.extend(replace(record, seed=seed) for seed in spec.seeds)
        else:
            records.extend(run_point(spec, point, seed) for seed in spec.seeds)
    aggregate = {
        "spec": {
            "construction": spec.construction,
            "trace": spec.trace_path,
            "algo": spec.algo,
            "sim": spec.sim,
            "project": spec.project,
            "base": spec.base,
            "seeds": spec.seeds,
            "sweep": spec.sweep,
        },
        "records": [asdict(r) for r in records],
        "all_ok": all(r.ok for r in records),
    }
    return records, aggregate


def emit_ratio_table(records: list[RunRecord]) -> str:
    """CSV of mean/min/max ratio per sweep value; stable column order."""
    header = "value,mean_ratio,min_ratio,max_ratio\n"
    if not records:
        return header
    keys = set()
    for r in records:
        keys |= set(r.point)
    varying = sorted(k for k in keys
                     if len({json.dumps(r.point.get(k)) for r in records}) > 1)
    if len(varying) > 1:
        raise InputError(f"records vary along multiple axes: {varying}")
    axis = varying[0] if varying else (sorted(keys)[0] if keys else "value")
    groups: dict[float, list[float]] = {}
    for r in records:
        if r.point and axis not in r.point:
            raise InputError(f"record point {r.point} lacks the sweep axis {axis!r}")
        groups.setdefault(r.point.get(axis, 0.0), []).append(r.ratio)
    lines = [header]
    for value in sorted(groups):
        ratios = [x for x in groups[value] if x is not None]
        if ratios:
            cells = [fmt(value), fmt(total(ratios) / len(ratios)),
                     fmt(min(ratios)), fmt(max(ratios))]
        else:
            cells = [fmt(value), "", "", ""]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)
