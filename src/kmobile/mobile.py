"""Online algorithms for the k-mobile-server problem.

UMS follows a simulated k-server algorithm through a minimum-weight
matching and adds a greedy move of the server nearest to the request;
WMS is its weighted counterpart following a k-page-migration algorithm
with movement scaled down by the cost weight D.  The matching-only
baseline ("simple") drops the greedy move and is not competitive.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from kmobile.core import (
    Config,
    ContractViolationError,
    CostLedger,
    InputError,
    Point,
    ProblemParams,
    Trace,
    distance,
    min_weight_matching,
    move_toward,
    validate_trace,
)
from kmobile.kserver import GuidanceSimulator, default_sim_tag, make_simulator
from kmobile.projection import ProjectionWrapper, outer_radius

ALGO_TAGS = ("ums", "wms", "simple")


def derive_mode(params: ProblemParams, algo: str) -> tuple[str, Optional[float]]:
    """Mode and the derived speed-gap parameter epsilon.

    epsilon is the relative gap ((1+delta)*ms - mc)/ms.  A positive gap
    means requests move slower than the online servers ("fast" mode);
    otherwise the run is in "slow" mode and epsilon is unused.  WMS
    clamps epsilon to 1/2.
    """
    eps_raw = ((1.0 + params.delta) * params.ms - params.mc) / params.ms
    if eps_raw <= 0.0:
        return "slow", None
    if algo == "wms":
        return "fast", min(eps_raw, 0.5)
    return "fast", min(eps_raw, 1.0 - 1e-9)


@dataclass
class StepReport:
    """Everything a verifier needs to replay one step."""

    t: int
    request: Point
    perm: tuple[int, ...]
    branch: str
    mover: Optional[int]
    caps: list[float]
    displacements: list[float]
    serving: float
    movement: float
    cost: float
    sim_serving: float
    sim_movement: float
    sim_cost: float
    matched_sum: float
    positions: Config
    sim_positions: Config


@dataclass
class RunResult:
    algo: str
    sim_tag: str
    params: ProblemParams
    mode: str
    epsilon: Optional[float]
    project: bool
    weighted: bool
    ledger: CostLedger
    reports: list[StepReport]
    psi0_matched_sum: float
    projection_audit: Optional[dict] = None

    def max_displacement(self) -> float:
        return max((d for rep in self.reports for d in rep.displacements), default=0.0)

    def to_dict(self) -> dict:
        return {
            "algo": self.algo,
            "sim": self.sim_tag,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "project": self.project,
            "weighted": self.weighted,
            "params": self.params.to_dict(),
            "psi0_matched_sum": self.psi0_matched_sum,
            "ledger": {
                "serving_total": self.ledger.serving_total,
                "movement_total": self.ledger.movement_total,
                "grand_total": self.ledger.grand_total,
            },
            "projection": self.projection_audit,
            "steps": [{
                "t": r.t,
                "r": list(r.request),
                "perm": list(r.perm),
                "branch": r.branch,
                "mover": r.mover,
                "caps": r.caps,
                "disp": r.displacements,
                "serving": r.serving,
                "movement": r.movement,
                "cost": r.cost,
                "sim_serving": r.sim_serving,
                "sim_movement": r.sim_movement,
                "sim_cost": r.sim_cost,
                "matched_sum": r.matched_sum,
                "a": [list(p) for p in r.positions],
                "c": [list(p) for p in r.sim_positions],
            } for r in self.reports],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RunResult":
        """Inverse of to_dict; a missing or malformed field raises InputError."""
        try:
            params = ProblemParams.from_dict(obj["params"])
            ledger = CostLedger(D=params.D)
            reports = []
            for s in obj["steps"]:
                ledger.add(float(s["serving"]), float(s["movement"]))
                reports.append(StepReport(
                    t=int(s["t"]),
                    request=tuple(s["r"]),
                    perm=tuple(int(i) for i in s["perm"]),
                    branch=s["branch"],
                    mover=None if s["mover"] is None else int(s["mover"]),
                    caps=[float(x) for x in s["caps"]],
                    displacements=[float(x) for x in s["disp"]],
                    serving=float(s["serving"]),
                    movement=float(s["movement"]),
                    cost=float(s["cost"]),
                    sim_serving=float(s["sim_serving"]),
                    sim_movement=float(s["sim_movement"]),
                    sim_cost=float(s["sim_cost"]),
                    matched_sum=float(s["matched_sum"]),
                    positions=tuple(tuple(p) for p in s["a"]),
                    sim_positions=tuple(tuple(p) for p in s["c"]),
                ))
            return cls(algo=obj["algo"], sim_tag=obj["sim"], params=params, mode=obj["mode"],
                       epsilon=obj["epsilon"], project=bool(obj["project"]),
                       weighted=bool(obj["weighted"]), ledger=ledger, reports=reports,
                       psi0_matched_sum=float(obj["psi0_matched_sum"]),
                       projection_audit=obj.get("projection"))
        except KeyError as exc:
            raise InputError(f"run record misses field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed run record: {exc}") from exc


class MobileRun:
    """Owns the state of one online run; steps are strictly sequential."""

    def __init__(self, params: ProblemParams, algo: str, sim: GuidanceSimulator,
                 start: Config, mode: str, epsilon: Optional[float]):
        if algo not in ALGO_TAGS:
            raise InputError(f"unknown algorithm {algo!r} (expected one of {ALGO_TAGS})")
        self.params = params
        self.algo = algo
        self.sim = sim
        self.positions: Config = tuple(start)
        self.mode = mode
        self.epsilon = epsilon
        self.ledger = CostLedger(D=params.D)
        self.reports: list[StepReport] = []
        self.psi0_matched_sum = min_weight_matching(start, sim.positions).weight
        self.t = 0
        self.on_request_tol = 1e-9 * max(1.0, params.mc)

    def step(self, r: Point) -> StepReport:
        """Guidance step, matching to it, then the algorithm's caps and targets."""
        self.t += 1
        sim_step = self.sim.step(r)
        c = sim_step.positions
        perm = min_weight_matching(self.positions, c).perm
        matched = [c[j] for j in perm]
        branch, mover, caps, targets = self._POLICIES[self.algo](self, r, c, perm, matched)
        new_pos, disps = self._apply(targets, caps)
        self.positions = new_pos
        serving = min(distance(p, r) for p in new_pos)
        movement = sum(disps)
        D = self.params.D
        rep = StepReport(
            t=self.t, request=r, perm=perm, branch=branch, mover=mover,
            caps=caps, displacements=disps, serving=serving, movement=movement,
            cost=serving + D * movement,
            sim_serving=sim_step.serving, sim_movement=sim_step.movement,
            sim_cost=sim_step.serving + D * sim_step.movement,
            matched_sum=sum(distance(p, q) for p, q in zip(new_pos, matched)),
            positions=new_pos, sim_positions=c)
        self.reports.append(rep)
        self.ledger.add(serving, movement)
        return rep

    def _apply(self, targets: Sequence[Point], caps: Sequence[float]) -> tuple[Config, list[float]]:
        new_pos = tuple(move_toward(p, tgt, cap)
                        for p, tgt, cap in zip(self.positions, targets, caps))
        disps = [distance(p, q) for p, q in zip(self.positions, new_pos)]
        return new_pos, disps

    def _nearest_index(self, r: Point) -> int:
        dists = [distance(p, r) for p in self.positions]
        return dists.index(min(dists))

    # A policy gets the request, the guidance c, the matching perm and the
    # matched guidance (read-only); it returns branch, mover, caps, targets.

    def _ums_step(self, r: Point, c: Config, perm: tuple[int, ...], matched: list[Point]):
        params = self.params
        on_r = [i for i, p in enumerate(c) if distance(p, r) <= self.on_request_tol]
        if not on_r:
            raise ContractViolationError(
                f"guidance left no server on the request at step {self.t}")
        j = perm.index(on_r[0])
        cap_full = params.online_speed
        caps = [cap_full] * params.k
        if distance(self.positions[j], r) <= cap_full:
            return "matched", None, caps, matched
        mover = self._nearest_index(r)
        targets = list(matched)
        targets[mover] = r
        caps[mover] = (1.0 + params.delta / 2.0) * params.ms
        return "greedy", mover, caps, targets

    def _wms_step(self, r: Point, c: Config, perm: tuple[int, ...], matched: list[Point]):
        params = self.params
        D = params.D
        mover = self._nearest_index(r)
        d_til = distance(self.positions[mover], r)
        if self.mode == "fast":
            cap_mover = min(params.mc, (1.0 - self.epsilon) / D * d_til)
        else:
            cap_mover = min((1.0 + params.delta / 2.0) * params.ms,
                            (1.0 - params.delta / 2.0) / D * d_til)
        cap_other = min(params.online_speed, d_til / D)
        caps = [cap_other] * params.k
        caps[mover] = cap_mover
        targets = list(matched)
        targets[mover] = r
        tentative, _ = self._apply(targets, caps)
        d_mover = distance(tentative[mover], r)
        overtaken = any(distance(tentative[i], r) < d_mover
                        for i in range(params.k) if i != mover)
        if overtaken:
            return "fallback", None, [params.ms] * params.k, matched
        return "tentative", mover, caps, targets

    def _simple_step(self, r: Point, c: Config, perm: tuple[int, ...], matched: list[Point]):
        return "matching-only", None, [self.params.online_speed] * self.params.k, matched

    # Plain functions: a bound method kept on the run would be a reference
    # cycle holding every step report until the cyclic collector runs.
    _POLICIES = {"ums": _ums_step, "wms": _wms_step, "simple": _simple_step}


def run(trace: Trace, params: ProblemParams, algo: str = "ums",
        sim: Union[str, GuidanceSimulator] = "auto",
        project: str = "auto") -> RunResult:
    """Run an online algorithm over a trace.

    ``sim`` is a simulator tag, "auto" for the default selection, or a
    ready-made simulator instance.  ``project`` is "auto" (wrap the
    guidance in the projection exactly in slow mode), "on" or "off".
    """
    violation = validate_trace(trace, params)
    if violation is not None:
        raise InputError(f"invalid trace: {violation}")
    if project not in ("auto", "on", "off"):
        raise InputError(f"project must be auto/on/off, not {project!r}")
    mode, epsilon = derive_mode(params, algo)
    if algo == "wms" and params.D < 2.0:
        warnings.warn("WMS is intended for D >= 2; for smaller D the unweighted "
                      "algorithm (ums) costs at most a factor 2 more", stacklevel=2)
    if isinstance(sim, GuidanceSimulator):
        simulator = sim
        sim_tag = type(sim).__name__
    else:
        sim_tag = sim if sim != "auto" else default_sim_tag(algo, params, len(trace))
        simulator = make_simulator(sim_tag, trace.start_config, params)
    weighted = algo == "wms"
    project_on = (mode == "slow") if project == "auto" else (project == "on")
    if project_on:
        simulator = ProjectionWrapper(simulator, params, weighted)
    mrun = MobileRun(params, algo, simulator, trace.start_config, mode, epsilon)
    for r in trace.requests:
        mrun.step(r)
    audit = None
    if project_on:
        audit = {
            "max_hat_request_distance": simulator.max_request_distance,
            "radius_bound": outer_radius(params, weighted),
            "raw_cost": simulator.raw_cost(),
            "projected_cost": simulator.projected_cost(),
            "phase_ends": simulator.phase_ends,
        }
    return RunResult(algo=algo, sim_tag=sim_tag, params=params, mode=mode,
                     epsilon=epsilon, project=project_on, weighted=weighted,
                     ledger=mrun.ledger, reports=mrun.reports,
                     psi0_matched_sum=mrun.psi0_matched_sum,
                     projection_audit=audit)
