"""Online algorithms for the k-mobile-server problem.

UMS follows a simulated k-server algorithm through a minimum-weight
matching and adds a greedy move of the server nearest to the request;
WMS is its weighted counterpart following a k-page-migration algorithm
with movement scaled down by the cost weight D.  The matching-only
baseline ("simple") drops the greedy move and is not competitive.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain, compress, count, pairwise, repeat
from operator import is_, is_not
from typing import Optional, Sequence, Union

from kmobile.core import (
    NUMBER_TYPES,
    REL_TOL,
    Config,
    ContractViolationError,
    InputError,
    Point,
    ProblemParams,
    Trace,
    as_number,
    check_dims,
    min_weight_matching,
    nearest,
    total,
    validate_trace,
)
from kmobile.kserver import GuidanceSimulator, SimStep, default_sim_tag, make_simulator
from kmobile.projection import AUDIT_KEYS, ProjectionWrapper

ALGO_TAGS = ("ums", "wms", "simple")
BRANCH_TAGS = ("matched", "greedy", "tentative", "fallback", "matching-only")
PROJECT_MODES = ("auto", "on", "off")
# The run-record writer spells NaN and the infinities by replacing "nan"
# and "inf" in its text, so no tag may hold them.
assert not any("nan" in tag or "inf" in tag for tag in BRANCH_TAGS)


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


@dataclass(slots=True)
class StepReport:
    """Everything a verifier needs to replay one step; read-only, as a repeated step
    appends the same object.  A step's number is its index + 1 in the reports."""

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


# A step's record key -> (StepReport field, JSON shape).  The shapes are
# "number", "tag" (one of BRANCH_TAGS), "mover" (an int or null), "list"
# (k numbers), "point" (dim coordinates) and "config" (k points).
STEP_FIELDS = {
    "t": (None, "number"),  # no field: the report's index + 1
    "r": ("request", "point"),
    "perm": ("perm", "list"),
    "branch": ("branch", "tag"),
    "mover": ("mover", "mover"),
    "caps": ("caps", "list"),
    "disp": ("displacements", "list"),
    "serving": ("serving", "number"),
    "movement": ("movement", "number"),
    "cost": ("cost", "number"),
    "sim_serving": ("sim_serving", "number"),
    "sim_movement": ("sim_movement", "number"),
    "sim_cost": ("sim_cost", "number"),
    "matched_sum": ("matched_sum", "number"),
    "a": ("positions", "config"),
    "c": ("sim_positions", "config"),
}

@dataclass
class RunResult:
    algo: str
    sim_tag: str
    params: ProblemParams
    reports: list[StepReport]
    psi0_matched_sum: float
    projection_audit: Optional[dict] = None

    # Read-only settings with one source each: the parameters and algorithm
    # give the mode and epsilon, the algorithm the weighting, the audit the projection.
    mode = property(lambda self: derive_mode(self.params, self.algo)[0])
    epsilon = property(lambda self: derive_mode(self.params, self.algo)[1])
    weighted = property(lambda self: self.algo == "wms")
    project = property(lambda self: self.projection_audit is not None)

    # The run's totals, summed over the steps in order.
    @property
    def serving_total(self) -> float:
        return total([rep.serving for rep in self.reports])

    @property
    def movement_total(self) -> float:
        return total([rep.movement for rep in self.reports])

    @property
    def grand_total(self) -> float:
        return self.serving_total + self.params.D * self.movement_total

    # The record's ledger, which the reader holds to these folds.
    ledger = property(lambda self: {key: getattr(self, key) for key in (
        "serving_total", "movement_total", "grand_total")})

    def _head(self) -> dict:
        """The record's top-level fields other than the steps."""
        return {
            "algo": self.algo,
            "sim": self.sim_tag,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "project": self.project,
            "weighted": self.weighted,
            "params": self.params.to_dict(),
            "psi0_matched_sum": self.psi0_matched_sum,
            "ledger": self.ledger,
            "projection": self.projection_audit,
        }

    def to_dict(self) -> dict:
        """The run record as ``json.loads`` reads it back; ``from_dict`` inverts it."""
        return json.loads(self.to_json({}))

    def to_json(self, extra: dict) -> str:
        """``json.dumps(dict(record_dict(self), **extra), sort_keys=True, indent=2)``, byte for byte.

        ``record_dict``, in tests/test_mobile.py, builds the record field by field.
        """
        head = json.dumps(dict(self._head(), **extra, steps=None), sort_keys=True, indent=2)
        # A raw newline and two spaces only ever precede a top-level key:
        # json escapes every newline inside a string.
        before, _, after = head.partition('\n  "steps": null')
        return f'{before}\n  "steps": {self._steps_json()}{after}'

    def _steps_json(self) -> str:
        """The steps as json.dumps indents them at depth 1.

        The stdlib's indenting encoder is pure Python.  Here each step
        fills one %-template, which is json.dumps's own text of a
        placeholder step (NaN for each number, "%s" for the branch tag)
        with each NaN made ``%s``, from one tuple holding the step's
        leaves in sorted key order.  ``%s`` spells a float as
        ``float.__repr__`` does, which is json's spelling of a finite
        float.  json spells the others NaN, Infinity and -Infinity; one
        replace of "nan" and "inf" over the text does the same, because
        no key, branch tag or "null" holds those letters.
        """
        if not self.reports:
            return "[]"
        k, dim, nan = self.params.k, self.params.dim, math.nan
        shapes = {"number": nan, "mover": nan, "tag": "%s", "list": [nan] * k,
                  "point": [nan] * dim, "config": [[nan] * dim] * k}
        template = json.dumps({key: shapes[shape] for key, (_, shape) in STEP_FIELDS.items()},
                              sort_keys=True, indent=2).replace("NaN", "%s").replace("\n", "\n    ")
        assert "nan" not in template and "inf" not in template
        flat = chain.from_iterable
        # One % puts the brackets around the joined steps in one copy of the text.
        text = "[\n    %s\n  ]" % ",\n    ".join([template % (
            *flat(r.positions), r.branch, *flat(r.sim_positions), *r.caps, r.cost,
            *r.displacements, r.matched_sum, r.movement, "null" if r.mover is None else r.mover,
            *r.perm, *r.request, r.serving, r.sim_cost, r.sim_movement, r.sim_serving, t)
            for t, r in enumerate(self.reports, 1)])
        return text.replace("nan", "NaN").replace("inf", "Infinity")

    @classmethod
    def from_dict(cls, obj: dict) -> "RunResult":
        """Inverse of to_dict; a missing, extra or malformed field raises InputError."""
        if type(obj) is not dict:
            raise InputError(f"run record must be a JSON object, got {type(obj).__name__}")
        try:
            params = ProblemParams.from_dict(obj["params"])
            extra = sorted(set(obj["params"]).difference(params.to_dict()))
            if extra:
                raise InputError(f"run record params hold keys other than parameters: {extra}")
            reports = _read_steps(obj["steps"], params.k, params.dim)
            algo = obj["algo"]
            if algo not in ALGO_TAGS:
                raise InputError(f"run record algorithm {algo!r} is not one of {ALGO_TAGS}")
            audit = obj.get("projection")
            if audit is not None and (type(audit) is not dict or len(audit) != len(AUDIT_KEYS)
                                      or any(type(audit.get(key)) not in NUMBER_TYPES
                                             for key in AUDIT_KEYS)):
                raise InputError(f"run record projection audit must hold the numbers {AUDIT_KEYS}")
            if type(obj["sim"]) is not str:
                raise InputError(f"run record sim must be a string, got {obj['sim']!r}")
            psi0 = as_number(obj["psi0_matched_sum"], "run record psi0_matched_sum")
            if psi0 < 0.0:
                raise InputError(f"run record psi0_matched_sum is negative, got {psi0!r}")
            result = cls(algo=algo, sim_tag=obj["sim"], params=params, reports=reports,
                         psi0_matched_sum=psi0, projection_audit=audit)
            # The stored settings must be those the algorithm, the parameters and
            # the audit's presence give, as the same JSON types.
            for key in ("mode", "epsilon", "weighted", "project"):
                want = getattr(result, key)
                if obj[key] != want or type(obj[key]) is not type(want):
                    raise InputError(f"run record {key} must be {json.dumps(want)} (algorithm "
                                     f"{algo!r}, its parameters and "
                                     f"{'a' if result.project else 'no'} projection audit), "
                                     f"got {obj[key]!r}")
            # The ledger must be the steps' folds, spelled as the writer spells them.
            want, got = (json.dumps(x, sort_keys=True) for x in (result.ledger, obj["ledger"]))
            if got != want:
                raise InputError(f"run record ledger must be the steps' totals {want}, got {got}")
            return result
        except KeyError as exc:
            raise InputError(f"run record misses field {exc}") from exc
        except (OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"malformed run record: {exc}") from exc


def _read_steps(steps: list, k: int, dim: int) -> list[StepReport]:
    """A record's step reports, read one column (one key over all steps) at a time.

    Each check runs once over a column's flattened values, where each
    step's values sit side by side; only a failed check looks for the
    first bad value, to name its step.
    """
    if type(steps) is not list:
        raise InputError(f"run record steps must be a list, got {type(steps).__name__}")
    def check(ok: bool, values: list, width: int, bad, what: str) -> None:
        """Unless ``ok``, fail at the step of the first value that is ``bad``."""
        if not ok:
            i = next(i for i, v in enumerate(values) if bad(v))
            raise InputError(f"run record step {i // width + 1}: {what}, got {values[i]!r}")

    def column(key: str) -> list:
        try:
            return [s[key] for s in steps]
        except KeyError:
            check(False, steps, 1, lambda s: key not in s, f"a step needs the field {key!r}")

    def items(values: list, length: int, width: int, what: str) -> list:
        """The items of ``values`` (``width`` a step), each a list of ``length``, chained."""
        check(set(map(type, values)) <= {list} and set(map(len, values)) <= {length}, values,
              width, lambda v: type(v) is not list or len(v) != length,
              f"{what} must list {length} entries")
        return list(chain.from_iterable(values))

    def numbers(values: list, width: int, what: str, integral=False) -> list:
        types = {int} if integral else NUMBER_TYPES
        check(set(map(type, values)) <= types, values, width, lambda v: type(v) not in types,
              f"{what} must be {'an integer' if integral else 'a number'}")
        return values if integral else list(map(float, values))

    def points(values: list, per_step: int, what: str) -> zip:
        coords = numbers(items(values, dim, per_step, what), per_step * dim, "a coordinate")
        check(all(map(math.isfinite, coords)), coords, per_step * dim,
              lambda x: not math.isfinite(x), "a coordinate must be finite")
        return _chunks(coords, dim)

    def per_server(key: str, integral=False) -> list:
        return numbers(items(column(key), k, 1, key), k, key, integral)

    check(set(map(type, steps)) <= {dict}, steps, 1, lambda s: type(s) is not dict,
          "a step must be an object")
    t = numbers(column("t"), 1, "t", integral=True)
    check(t == list(range(1, len(t) + 1)), t, 1, lambda v, step=count(1): v != next(step),
          "t must count the steps from 1")
    perm, servers = list(_chunks(per_server("perm", integral=True), k)), list(range(k))
    check(all(sorted(p) == servers for p in set(perm)), perm, 1,
          lambda p: sorted(p) != servers, f"perm must be a permutation of 0..{k - 1}")
    branch, mover = column("branch"), column("mover")
    check(all(map(BRANCH_TAGS.__contains__, branch)), branch, 1,
          lambda b: b not in BRANCH_TAGS, f"the branch must be one of {BRANCH_TAGS}")
    movers = {None, *servers}
    check(set(map(type, mover)) <= {int, type(None)} and set(mover) <= movers, mover, 1,
          lambda m: m is not None and type(m) is not int or m not in movers,
          f"the mover must be null or a server 0..{k - 1}")
    caps, disp = per_server("caps"), per_server("disp")
    cost_keys = ("serving", "movement", "cost", "sim_serving", "sim_movement", "sim_cost",
                 "matched_sum")
    costs = [numbers(column(key), 1, key) for key in cost_keys]
    for key, values, width in (("caps", caps, k), ("disp", disp, k),
                               *zip(cost_keys, costs, repeat(1))):
        check(not any(map((0.0).__gt__, values)), values, width, (0.0).__gt__,
              f"{key} holds a negative {'entry' if key in ('caps', 'disp') else 'cost'}")
    r, a, c = map(column, ("r", "a", "c"))
    if not set(map(len, steps)) <= {len(STEP_FIELDS)}:  # every field is read: one is extra
        check(False, [sorted(set(s).difference(STEP_FIELDS)) for s in steps], 1, bool,
              f"a step may hold no field but {', '.join(STEP_FIELDS)}")
    return list(map(
        StepReport, points(r, 1, "r"), perm, branch, mover,
        map(list, _chunks(caps, k)), map(list, _chunks(disp, k)), *costs,
        *(_chunks(points(items(values, k, 1, key), k, f"a point of {key}"), k)
          for key, values in (("a", a), ("c", c)))))


def _chunks(values, size: int) -> zip:
    """Consecutive tuples of ``size`` items of ``values``."""
    return zip(*[iter(values)] * size)


class MobileRun:
    """Owns the state of one online run; steps are strictly sequential."""

    def __init__(self, params: ProblemParams, algo: str, sim: GuidanceSimulator, start: Config):
        if algo not in ALGO_TAGS:
            raise InputError(f"unknown algorithm {algo!r} (expected one of {ALGO_TAGS})")
        self.params = params
        self.algo = algo
        self.sim = sim
        self.positions: Config = tuple(start)
        self.mode, self.epsilon = derive_mode(params, algo)
        self.reports: list[StepReport] = []
        self.psi0_matched_sum = min_weight_matching(start, sim.positions).weight
        self.on_request_tol = REL_TOL * max(1.0, params.mc)

    def step(self, r: Point, sim_step: Optional[SimStep] = None) -> StepReport:
        """Guidance step, matching to it, then the algorithm's caps and targets.

        ``sim_step``, when given, is the guidance's step for r, taken before.  The request
        (before the guidance sees it) and the guidance are checked against the dimension.
        """
        dim, D = self.params.dim, self.params.D
        check_dims((r,), dim)
        if sim_step is None:
            sim_step = self.sim.step(r)
        c = sim_step.positions
        check_dims(c, dim)
        perm = min_weight_matching(self.positions, c).perm
        matched = [c[j] for j in perm]
        branch, mover, caps, targets, moved = self._POLICIES[self.algo](self, r, c, perm, matched)
        new_pos, disps = moved or self._apply(targets, caps)
        serving = min(math.dist(p, r) for p in new_pos)
        matched_sum = total(map(math.dist, new_pos, matched))
        self.positions = new_pos
        movement = total(disps)
        rep = StepReport(
            request=r, perm=perm, branch=branch, mover=mover,
            caps=caps, displacements=disps, serving=serving, movement=movement,
            cost=serving + D * movement,
            sim_serving=sim_step.serving, sim_movement=sim_step.movement,
            sim_cost=sim_step.serving + D * sim_step.movement,
            matched_sum=matched_sum, positions=new_pos, sim_positions=c)
        self.reports.append(rep)
        return rep

    def steps(self, r: Point, m: int) -> None:
        """m calls of ``step(r)``.  After each full step with more to come, a settled guidance
        (``GuidanceSimulator.settled``) gives the rest one free SimStep and is asked no more.  A
        step is a function of the positions, request and guidance, so once one leaves each
        server the object it was, its report stands for the rest."""
        sim_step = None
        for left in range(m - 1, -1, -1):
            before = self.positions
            rep = self.step(r, sim_step)
            if sim_step is None:
                if left and self.sim.settled(r):
                    sim_step = SimStep(self.sim.positions, 0.0, 0.0)
            elif all(map(is_, rep.positions, before)):
                self.reports += repeat(rep, left)
                return

    def _apply(self, targets: Sequence[Point], caps: Sequence[float]) -> tuple[Config, list[float]]:
        """``core.move_toward`` of each server with its target and cap, and how far it went.

        Each distance is measured once: a server that reaches its target
        went exactly that distance.
        """
        if any(map((0.0).__gt__, caps)):
            raise InputError("movement cap must be nonnegative")
        new_pos, disps = [], []
        for p, tgt, cap in zip(self.positions, targets, caps):
            d = math.dist(p, tgt)
            if not d <= cap:  # a NaN distance included, as in move_toward
                tgt = p if cap == 0.0 else tuple(pc + cap / d * (tc - pc) for pc, tc in zip(p, tgt))
                d = math.dist(p, tgt)
            new_pos.append(tgt)
            disps.append(d)
        return tuple(new_pos), disps

    # A policy gets the request, the guidance c, the matching perm and the
    # matched guidance (read-only); it returns branch, mover, caps, targets
    # and, when it has already applied them, the move that _apply gives.

    def _ums_step(self, r: Point, c: Config, perm: tuple[int, ...], matched: list[Point]):
        params = self.params
        on_r = [i for i, p in enumerate(c) if math.dist(p, r) <= self.on_request_tol]
        if not on_r:
            raise ContractViolationError(
                f"guidance left no server on the request at step {len(self.reports) + 1}")
        j = perm.index(on_r[0])
        cap_full = params.online_speed
        caps = [cap_full] * params.k
        if math.dist(self.positions[j], r) <= cap_full:
            return "matched", None, caps, matched, None
        mover = nearest(self.positions, r)[0]
        targets = list(matched)
        targets[mover] = r
        caps[mover] = (1.0 + params.delta / 2.0) * params.ms
        return "greedy", mover, caps, targets, None

    def _wms_step(self, r: Point, c: Config, perm: tuple[int, ...], matched: list[Point]):
        params = self.params
        D = params.D
        mover, d_til = nearest(self.positions, r)
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
        moved = self._apply(targets, caps)
        tentative = moved[0]
        d_mover = math.dist(tentative[mover], r)
        overtaken = any(math.dist(tentative[i], r) < d_mover
                        for i in range(params.k) if i != mover)
        if overtaken:
            return "fallback", None, [params.ms] * params.k, matched, None
        return "tentative", mover, caps, targets, moved

    def _simple_step(self, r: Point, c: Config, perm: tuple[int, ...], matched: list[Point]):
        return "matching-only", None, [self.params.online_speed] * self.params.k, matched, None

    # Plain functions: a bound method kept on the run would be a reference
    # cycle holding every step report until the cyclic collector runs.
    _POLICIES = {"ums": _ums_step, "wms": _wms_step, "simple": _simple_step}


def run(trace: Trace, params: ProblemParams, algo: str = "ums",
        sim: Union[str, GuidanceSimulator] = "auto",
        project: str = "auto") -> RunResult:
    """Run an online algorithm over a trace, checked whole first, its certificate included.

    ``sim`` is a simulator tag, "auto" for the default selection, or a
    ready-made simulator instance.  ``project`` is "auto" (wrap the
    guidance in the projection exactly in slow mode), "on" or "off".
    """
    violation = validate_trace(trace, params)
    if violation is not None:
        raise InputError(f"invalid trace: {violation}")
    if project not in PROJECT_MODES:
        raise InputError(f"project must be auto/on/off, not {project!r}")
    if algo == "wms" and params.D < 2.0:
        warnings.warn("WMS is intended for D >= 2; for smaller D the unweighted "
                      "algorithm (ums) costs at most a factor 2 more", stacklevel=2)
    if isinstance(sim, GuidanceSimulator):
        simulator = sim
        sim_tag = type(sim).__name__
    else:
        sim_tag = sim if sim != "auto" else default_sim_tag(algo, params, len(trace))
        simulator = make_simulator(sim_tag, trace.start_config, params)
    project_on = project == "on" or project == "auto" and derive_mode(params, algo)[0] == "slow"
    if project_on:
        simulator = ProjectionWrapper(simulator, params, algo == "wms")
    mrun = MobileRun(params, algo, simulator, trace.start_config)
    # Step through each block of one request object, from where it starts to the next.
    requests = trace.requests
    starts = compress(count(), map(is_not, [None, *requests], requests))
    for i, end in pairwise(chain(starts, [len(requests)])):
        mrun.steps(requests[i], end - i)
    return RunResult(algo=algo, sim_tag=sim_tag, params=params, reports=mrun.reports,
                     psi0_matched_sum=mrun.psi0_matched_sum,
                     projection_audit=simulator.audit() if project_on else None)
