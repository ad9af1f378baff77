"""Verifiers for the per-step inequalities the algorithms are designed to meet.

The fast-mode checkers are hard oracles: a negative margin beyond
floating-point slack is a failure.  The slow-mode checker is
diagnostic, because its guarantees only hold at the faithful constant
scale, which is unreachable at desk scale; it reports margins instead
of failing.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Optional, Sequence

from kmobile.core import (
    REL_TOL,
    InputError,
    Point,
    ProblemParams,
    check_dims,
    move_toward,
    positive,
)
from kmobile.mobile import RunResult
from kmobile.offline import PHI_FACTOR, HelperTrajectory


@dataclass
class PotentialReport:
    margins: list[float]
    violations: list[int] = field(default_factory=list)  # 1-based step indices

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def min_margin(self) -> float:
        return nan_min(self.margins) if self.margins else 0.0


def nan_min(values: Sequence[float]) -> float:
    """The least value, or NaN if any is NaN: min keeps a NaN only when it comes first."""
    return math.nan if any(map(math.isnan, values)) else min(values)


def potential_factors(result: RunResult) -> tuple[float, float]:
    """(psi factor, guidance-cost bound factor) for a fast-mode run."""
    eps = result.epsilon
    if result.algo == "ums":
        return 2.0 / eps, 2.0 / eps
    if result.algo == "wms":
        return math.sqrt(2.0) * 4.0 * result.params.D / eps, math.sqrt(2.0) * 11.0 / eps
    raise InputError(f"no fast-mode potential is defined for algorithm {result.algo!r}")


def psi_factor(result: RunResult, y: Optional[float] = None) -> float:
    """Weight of the matched distance sum in the potential psi.

    potential_factors' for fast-mode UMS and WMS; otherwise y*mc/(delta*ms),
    times D when weighted, with y defaulting to default_y (0 when delta is 0).
    """
    if result.mode == "fast" and result.algo in ("ums", "wms"):
        return potential_factors(result)[0]
    p = result.params
    if p.delta <= 0.0:
        return 0.0
    if y is None:
        y = default_y(p)
    return y * p.mc / (p.delta * p.ms) * (p.D if result.weighted else 1.0)


def check_fast_potential(result: RunResult) -> PotentialReport:
    """Per-step margins of the fast-mode amortized cost bound.

    With psi proportional to the matched distance sum, every step must
    satisfy cost + delta(psi) <= bound_factor * guidance cost.
    """
    if result.mode != "fast":
        raise InputError("the fast-mode potential checker needs a fast-mode run")
    psi_f, bound_f = potential_factors(result)
    margins: list[float] = []
    violations: list[int] = []
    psi_prev = psi_f * result.psi0_matched_sum
    for t, rep in enumerate(result.reports, 1):
        psi = psi_f * rep.matched_sum
        bound = bound_f * rep.sim_cost
        margin = bound - (rep.cost + psi - psi_prev)
        scale = max(1.0, bound, rep.cost, psi, psi_prev)
        margins.append(margin)
        if not -REL_TOL * scale <= margin:  # a NaN margin included
            violations.append(t)
        psi_prev = psi
    return PotentialReport(margins, violations)


def default_y(params: ProblemParams) -> float:
    """Default weight of the matching potential in the slow-mode checker."""
    return max(8.0, 8.0 * params.k / params.delta ** 2)


@dataclass
class SlowPotentialReport:
    margins: list[tuple[int, float]]    # (step, margin) where the request was in-inner
    vacuous: int
    negative: int
    boundary_gap: float
    phi_threshold: float


def _phi_quadratic(d: float, threshold: float, params: ProblemParams, weighted: bool) -> float:
    quad = 4.0 / (params.delta * params.ms) * d * d
    if weighted:
        offset = 4.0 * (threshold - threshold * threshold / (params.delta * params.ms))
        return quad + offset
    offset = 4.0 * (threshold * threshold / (params.delta * params.ms) - threshold)
    return quad - offset


def _phi(d: float, threshold: float, params: ProblemParams, weighted: bool) -> float:
    if d <= threshold:
        return 4.0 * d
    return _phi_quadratic(d, threshold, params, weighted)


def check_slow_potential(result: RunResult, helper: HelperTrajectory,
                         start_config: Sequence[Point], y: Optional[float] = None,
                         sigma: float = 1.0) -> SlowPotentialReport:
    """Diagnostic margins of the slow-mode amortized bound.

    ``start_config`` is the online servers' start configuration, needed
    for the potentials before the first step.  Margins are evaluated
    only at steps where the request lies in the inner circle of the
    optimum's serving server; other steps are counted as vacuous.
    Negative margins are reported, not failed: with sigma < 1 the
    constants sit below the regime the guarantee was derived for.
    """
    if result.mode != "slow":
        raise InputError("the slow-mode potential checker needs a slow-mode run")
    if helper is None:
        raise InputError("the slow-mode potential checker needs a helper trajectory")
    params = result.params
    if params.delta <= 0.0:
        raise InputError("the slow-mode potential checker needs delta > 0")
    positive(sigma, "sigma")
    check_dims(chain(start_config, (helper.start, *helper.positions),
                     (g.o_star_pos for g in helper.geometry)), params.dim)
    weighted = result.weighted
    threshold = PHI_FACTOR * sigma * params.k * params.mc / params.delta ** 2
    if weighted:
        threshold *= params.D
    low = _phi(threshold, threshold, params, weighted)
    high = _phi_quadratic(threshold, threshold, params, weighted)
    boundary_gap = abs(high - low) / max(1.0, abs(low))

    y = default_y(params) if y is None else positive(y, "Y")
    psi_f = psi_factor(result, y)
    bound_f = y * params.mc / (params.delta * params.ms)

    def phi_of(a_conf, o_hat):
        d = min(math.dist(a, o_hat) for a in a_conf)
        return _phi(d, threshold, params, weighted)

    margins: list[tuple[int, float]] = []
    vacuous = 0
    negative = 0
    psi_prev = psi_f * result.psi0_matched_sum
    phi_prev = phi_of(tuple(start_config), helper.start)
    for t, rep, o_hat, geo in zip(count(1), result.reports, helper.positions, helper.geometry):
        psi = psi_f * rep.matched_sum
        phi = phi_of(rep.positions, o_hat)
        if geo.in_inner:
            bound = bound_f * rep.sim_cost + 2.0 * math.dist(geo.o_star_pos, rep.request)
            margin = bound - (rep.cost + (phi - phi_prev) + (psi - psi_prev))
            margins.append((t, margin))
            scale = max(1.0, bound, rep.cost, phi, phi_prev, psi, psi_prev)
            if not margin >= -REL_TOL * scale:  # a NaN margin included
                negative += 1
        else:
            vacuous += 1
        psi_prev = psi
        phi_prev = phi
    return SlowPotentialReport(margins=margins, vacuous=vacuous, negative=negative,
                               boundary_gap=boundary_gap, phi_threshold=threshold)


@dataclass
class GeoSampleReport:
    samples: int
    violations: int
    min_margin: float


def check_lemma_geo(samples: int, delta: float, seed: int = 0) -> GeoSampleReport:
    """Sampled check of the greedy-move distance inequality.

    For a server s' within (sqrt(delta)/2) of the request-distance of
    the moved server, moving a server toward the request shrinks its
    distance to s' by at least (1+delta/4)/(1+delta/2) times the moved
    distance.  Configurations are planar without loss of generality.
    """
    if not 0.0 < delta < 1.0:
        raise InputError("delta must lie in (0, 1)")
    if samples < 1:
        raise InputError(f"lemma-geo needs at least one sample, got {samples}")
    rng = random.Random(seed)
    factor = (1.0 + delta / 4.0) / (1.0 + delta / 2.0)
    violations = 0
    min_margin = math.inf
    for _ in range(samples):
        a = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        r = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        mu = rng.uniform(0.0, math.dist(a, r))
        a2 = move_toward(a, r, mu)
        rad = math.sqrt(delta) / 2.0 * math.dist(a2, r)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rho = rng.uniform(0.0, rad)
        s = (r[0] + rho * math.cos(ang), r[1] + rho * math.sin(ang))
        lhs = math.dist(a, s) - math.dist(a2, s)
        rhs = factor * math.dist(a, a2)
        margin = lhs - rhs
        min_margin = min(min_margin, margin)
        if margin < -1e-12 * max(1.0, rhs):
            violations += 1
    return GeoSampleReport(samples=samples, violations=violations, min_margin=min_margin)


@dataclass
class SpeedAudit:
    max_displacement: float
    cap: float
    violations: list[int]           # steps exceeding the global speed cap
    cap_violations: list[int]       # steps where a server exceeded its own cap

    @property
    def ok(self) -> bool:
        return not self.violations and not self.cap_violations


def audit_speed_caps(result: RunResult) -> SpeedAudit:
    cap = result.params.online_speed
    limit = cap + REL_TOL * max(1.0, cap)
    violations: list[int] = []
    cap_violations: list[int] = []
    max_disp = 0.0
    disps = caps = own_cap = prev = None
    # "not <=" so that a NaN displacement, which compares false with
    # everything, counts as a violation.  max() keeps its first argument
    # against a NaN, so a NaN is put first here and then stays.
    for t, rep in enumerate(result.reports, 1):
        # The last verdicts repeat for the last report itself, or one with equal lists.
        if rep is not prev and (rep.displacements != disps or rep.caps != caps):
            disps, caps, over, own_over = rep.displacements, rep.caps, 0, 0
            for disp, cap_i in zip(disps, caps):
                max_disp = max(max_disp, disp)
                if not disp <= limit:
                    over += 1
                    if disp != disp:
                        max_disp = disp
                if cap_i != own_cap:
                    own_cap, own_limit = cap_i, cap_i + REL_TOL * max(1.0, cap_i)
                if not disp <= own_limit:
                    own_over += 1
        if over or own_over:
            violations += [t] * over
            cap_violations += [t] * own_over
        prev = rep
    return SpeedAudit(max_displacement=max_disp, cap=cap, violations=violations,
                      cap_violations=cap_violations)


@dataclass
class ProjectionAudit:
    max_distance: float
    bound: float
    ok: bool
    ratio: Optional[float]


def check_projection_bound(result: RunResult) -> ProjectionAudit:
    """Containment and cost overhead of a projection-enabled run."""
    audit = result.projection_audit
    if audit is None:
        raise InputError("run was executed without the projection")
    bound = audit["radius_bound"]
    ok = audit["max_hat_request_distance"] <= bound + REL_TOL * max(1.0, bound)
    raw = audit["raw_cost"]
    ratio = audit["projected_cost"] / raw if raw > 0 else None
    return ProjectionAudit(max_distance=audit["max_hat_request_distance"],
                           bound=bound, ok=ok, ratio=ratio)
