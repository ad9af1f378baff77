"""Command-line harness.

Subcommands: simulate, generate, optimum, verify, sweep.  Exit codes:
0 all checks pass, 1 checker violation, 2 input error, 3 resource
budget exceeded.  All randomness flows from explicit seeds.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from kmobile import checks
from kmobile.core import (
    ContractViolationError,
    InputError,
    KMobileError,
    ResourceBudgetError,
    certificate_cost,
    read_text,
    read_trace,
    validate_trace,
    write_trace,
)
from kmobile.experiment import (
    PARAM_TYPES,
    _READS,
    ExperimentSpec,
    build_instance,
    emit_ratio_table,
    parse_seeds,
    parse_spec_file,
    run_experiment,
)
from kmobile.kserver import SIM_TAGS
from kmobile.mobile import ALGO_TAGS, RunResult, run as run_mobile
from kmobile.offline import GridSpec, audit_helper, compute_helper, dp_optimum

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _dump_json(obj, path=None, extra=None):
    """Sorted, 2-space-indented JSON; a RunResult is written with ``extra``'s top-level fields."""
    if isinstance(obj, RunResult):
        text = obj.to_json(extra or {}) + "\n"
    else:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# The trace-header parameters simulate may override; k and dim come only from the header.
OVERRIDES = ("ms", "mc", "delta", "D")


def _steps_csv(result: RunResult) -> str:
    psi_f = checks.psi_factor(result)
    # "%.17g" spells every float as fmt does, nan and inf included.
    return "t,serving,movement,psi\n" + "".join([
        "%d,%.17g,%.17g,%.17g\n" % (t, rep.serving, rep.movement, psi_f * rep.matched_sum)
        for t, rep in enumerate(result.reports, 1)])


def cmd_simulate(args) -> int:
    trace, params = read_trace(args.trace)
    params = dataclasses.replace(params, **{key: getattr(args, key) for key in OVERRIDES
                                            if getattr(args, key) is not None})
    if trace.certificate is not None:  # the run checks the requests, not the certificate
        violation = validate_trace(trace, params)
        if violation is not None:
            raise InputError(f"invalid trace: {violation}")
    result = run_mobile(trace, params, algo=args.algo, sim=args.sim,
                        project=args.project)
    speed = checks.audit_speed_caps(result)
    if args.out:
        _dump_json(result, args.out, extra={
            "trace_path": args.trace,
            "seed": args.seed,
            "speed_audit": {
                "ok": speed.ok,
                "max_displacement": speed.max_displacement,
                "cap": speed.cap,
            },
        })
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(_steps_csv(result))
    summary = {
        "mode": result.mode,
        "epsilon": result.epsilon,
        "grand_total": result.grand_total,
        "serving_total": result.serving_total,
        "movement_total": result.movement_total,
        "speed_ok": speed.ok,
    }
    _dump_json(summary)
    return EXIT_OK if speed.ok else EXIT_VIOLATION


def cmd_generate(args) -> int:
    point = {key: getattr(args, key) for key in PARAM_TYPES if getattr(args, key) is not None}
    inst = build_instance(args.construction, point, args.seed)
    write_trace(args.out, inst.trace, inst.params)
    meta = {
        "construction": inst.construction,
        "offline_cost_bound": inst.offline_cost_bound,
        "online_cost_lower_bound": inst.online_cost_lower_bound,
        "choices": inst.choices,
        "n": len(inst.trace),
        "params": inst.params.to_dict(),
    }
    if inst.trace.certificate is not None:
        meta["certificate_cost"] = certificate_cost(inst.trace, inst.params)
    _dump_json(meta, args.out + ".meta.json")
    _dump_json(meta)
    return EXIT_OK


def cmd_optimum(args) -> int:
    trace, params = read_trace(args.trace)
    grid = GridSpec.from_resolution(trace, args.grid)
    cost, trajectory = dp_optimum(trace, params, grid)
    out = {
        "cost": cost,
        "grid": {"lo": grid.lo, "hi": grid.hi, "points": grid.n},
    }
    if args.with_trajectory:
        out["trajectory"] = [[list(p) for p in conf] for conf in trajectory]
    _dump_json(out, args.out)
    if args.out:
        _dump_json({"cost": cost})
    return EXIT_OK


def _load_run(path: str) -> RunResult:
    try:
        obj = json.loads(read_text(path))
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    result = RunResult.from_dict(obj)
    if not result.reports:  # every run has a step: validate_trace refuses an empty trace
        raise InputError(f"{path}: the run record has no steps")
    return result


def cmd_verify(args) -> int:
    if args.property == "lemma-geo":
        report = checks.check_lemma_geo(args.samples, args.delta_geo, args.seed)
        _dump_json({"samples": report.samples, "violations": report.violations,
                    "min_margin": report.min_margin})
        return EXIT_OK if report.violations == 0 else EXIT_VIOLATION
    if not args.run:
        raise InputError(f"--run is required for property {args.property}")
    result = _load_run(args.run)
    if args.trace:
        # Any record property given a trace checks that the record is a run of it.
        trace, params = read_trace(args.trace)
        requests = [rep.request for rep in result.reports]
        if result.params.k != params.k:
            raise InputError(f"run record k={result.params.k} is not the trace's k={params.k}")
        t = next((t for t, (r, q) in enumerate(zip(requests, trace.requests), 1) if r != q), None)
        if t is not None:
            raise InputError(f"run record step {t}: request {list(requests[t - 1])} differs "
                             f"from the trace's {list(trace.requests[t - 1])}")
        if len(requests) != len(trace.requests):
            raise InputError(f"run record has {len(requests)} steps, "
                             f"the trace {len(trace.requests)} requests")
    elif args.property in ("slow-potential", "helper-invariants"):
        raise InputError(f"--trace with a certificate is required for {args.property}")
    if args.property == "fast-potential":
        rep = checks.check_fast_potential(result)
        _dump_json({"steps": len(rep.margins), "violations": rep.violations,
                    "min_margin": rep.min_margin})
        return EXIT_OK if rep.ok else EXIT_VIOLATION
    if args.property == "projection-bound":
        rep = checks.check_projection_bound(result)
        _dump_json({"max_distance": rep.max_distance, "bound": rep.bound,
                    "ratio": rep.ratio, "ok": rep.ok})
        return EXIT_OK if rep.ok else EXIT_VIOLATION
    if args.property in ("slow-potential", "helper-invariants"):
        violation = validate_trace(trace, params)
        if violation is not None:
            raise InputError(f"invalid trace: {violation}")
        if trace.certificate is None:
            raise InputError("the trace carries no offline certificate")
        # validate_trace holds the certificate to one configuration per request.
        online = [rep.positions for rep in result.reports]
        helper = compute_helper(trace.certificate, online, requests, params,
                                sigma=args.sigma, offline_start=trace.start_config)
        if args.property == "helper-invariants":
            audit = audit_helper(helper, online, requests, params, sigma=args.sigma)
            _dump_json(dict(dataclasses.asdict(audit), diagnostics=helper.diagnostics))
            return EXIT_OK if audit.ok() else EXIT_VIOLATION
        rep = checks.check_slow_potential(result, helper, trace.start_config,
                                          y=args.Y, sigma=args.sigma)
        negatives = [list(m) for m in rep.margins if not m[1] >= 0]  # a NaN margin included
        _dump_json({
            "checked_steps": len(rep.margins),
            "vacuous_steps": rep.vacuous,
            "negative_margins": rep.negative,
            "min_margin": checks.nan_min([m for _, m in rep.margins]) if rep.margins else None,
            "boundary_gap": rep.boundary_gap,
            "phi_threshold": rep.phi_threshold,
            "negatives": negatives[:50],
        })
        return EXIT_OK  # diagnostic property
    raise InputError(f"unknown property {args.property!r}")


def cmd_sweep(args) -> int:
    spec = parse_spec_file(args.spec) if args.spec else ExperimentSpec()
    for name in ("algo", "sim", "project"):
        value = getattr(args, name)
        if value is not None:
            setattr(spec, name, value)
    if args.construction is not None:
        spec.construction = args.construction
        spec.trace_path = None
    if args.seeds:
        spec.seeds = parse_seeds(args.seeds)
    records, aggregate = run_experiment(spec)
    if args.out:
        _dump_json(aggregate, args.out)
    if args.ratio_csv:
        with open(args.ratio_csv, "w", encoding="utf-8") as fh:
            fh.write(emit_ratio_table(records))
    _dump_json({"runs": len(records), "all_ok": aggregate["all_ok"]})
    return EXIT_OK if aggregate["all_ok"] else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kmobile",
        description="k-mobile-server simulator, generators, oracle and verifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an online algorithm over a trace file")
    p_sim.add_argument("--algo", choices=ALGO_TAGS, default="ums")
    p_sim.add_argument("--sim", default="auto", choices=("auto",) + SIM_TAGS)
    p_sim.add_argument("--trace", required=True)
    p_sim.add_argument("--out", help="write the full run record (JSON)")
    p_sim.add_argument("--csv", help="write a per-step CSV (t, serving, movement, psi)")
    p_sim.add_argument("--project", choices=("auto", "on", "off"), default="auto")
    p_sim.add_argument("--seed", type=int, default=0)
    for key in OVERRIDES:
        p_sim.add_argument("--" + key, type=PARAM_TYPES[key])
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("generate", help="emit an adversarial trace plus metadata")
    p_gen.add_argument("--construction", choices=_READS, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    # Unset parameters take build_instance's defaults.
    for key, conv in PARAM_TYPES.items():
        p_gen.add_argument("--" + key.replace("_", "-"), dest=key, type=conv)
    p_gen.set_defaults(func=cmd_generate)

    p_opt = sub.add_parser("optimum", help="discretized offline optimum of a trace")
    p_opt.add_argument("--trace", required=True)
    p_opt.add_argument("--grid", type=float, required=True, help="grid resolution h")
    p_opt.add_argument("--out")
    p_opt.add_argument("--with-trajectory", action="store_true")
    p_opt.set_defaults(func=cmd_optimum)

    p_ver = sub.add_parser("verify", help="check a recorded run against its guarantees")
    p_ver.add_argument("--property", required=True,
                       choices=("fast-potential", "slow-potential", "helper-invariants",
                                "lemma-geo", "projection-bound"))
    p_ver.add_argument("--run", help="run record written by simulate --out")
    p_ver.add_argument("--trace", help="trace file (certificate needed for helper checks)")
    p_ver.add_argument("--sigma", type=float, default=1.0)
    p_ver.add_argument("--Y", type=float)
    p_ver.add_argument("--samples", type=int, default=10_000)
    p_ver.add_argument("--delta-geo", dest="delta_geo", type=float, default=0.5)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run an experiment spec's cross product")
    p_sweep.add_argument("--spec", help="flat key=value spec file")
    p_sweep.add_argument("--out", help="aggregate JSON output")
    p_sweep.add_argument("--ratio-csv", dest="ratio_csv")
    p_sweep.add_argument("--algo", choices=ALGO_TAGS)
    p_sweep.add_argument("--sim")
    p_sweep.add_argument("--project", choices=("auto", "on", "off"))
    p_sweep.add_argument("--construction", choices=_READS)
    p_sweep.add_argument("--seeds")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ContractViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except KMobileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
