"""Adversarial instance generators with paired offline certificates.

Each construction emits a locality-valid trace together with a feasible
offline trajectory of known cost, so measured online costs can be
turned into competitive-ratio estimates; ``gen_thm3`` and ``gen_thm4``
omit the trajectory on request, as a sweep reads only their bound.
Randomized choices are either seeded or enumerated explicitly.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from kmobile.core import (
    Config,
    InputError,
    Point,
    ProblemParams,
    Trace,
    certificate_cost,
    move_toward,
    positive,
    total,
)

# Number of enumerable target choices in the two-server jump/walk
# constructions (symmetric quarter points on either side of the start).
TWO_SERVER_CHOICES = 4


@dataclass
class GeneratedInstance:
    construction: str
    trace: Trace
    params: ProblemParams
    offline_cost_bound: Optional[float]
    online_cost_lower_bound: Optional[float] = None
    choices: dict = field(default_factory=dict)


def _follow_certificate(start: Config, targets: Sequence[Point], ms: float,
                        n: int) -> list[Config]:
    """All offline servers head to their targets on the line simultaneously at speed ms
    (checked nonnegative by the caller), by ``core.move_toward``'s steps.  The steps after
    the last arrival hand on one configuration object."""
    paths = []
    for p, tgt in zip(start, targets):
        path = [p]
        while p is not tgt and len(path) <= n:
            d = math.dist(p, tgt)
            p = tgt if d <= ms else (p[0] + ms / d * (tgt[0] - p[0]),)
            path.append(p)
        paths.append(path)
    steps = max(map(len, paths))
    confs = list(zip(*[path + path[-1:] * (steps - len(path)) for path in paths]))
    return confs[1:] + confs[-1:] * (n + 1 - steps)


def _jump(k: int, x: int, ms: float, mc: Optional[float], seed: Optional[int],
          z_choice: Optional[int], certificate: bool = True) -> tuple[Trace, dict]:
    """The trace and shared choices of Theorems 3 and 4: requests wait at the origin,
    then visit each hidden target Z for a block of steps.  With ``mc`` None (thm3) the
    request jumps to each Z, else (thm4) it walks there in steps of mc."""
    if k < 2:
        raise InputError("construction needs k >= 2")
    if x <= 0 or x % 8 != 0:
        raise InputError("x must be a positive multiple of 8")
    if k != 2 and z_choice is not None:
        raise InputError("z_choice enumeration is only defined for k=2")
    if z_choice is not None and not 0 <= z_choice < TWO_SERVER_CHOICES:
        raise InputError(f"z_choice must be in 0..{TWO_SERVER_CHOICES - 1}")
    if ms < 0:
        raise InputError("movement cap must be nonnegative")
    positive(ms, "ms")
    if mc is not None:
        positive(mc, "mc")
    rng = random.Random(seed if seed is not None else 0)
    origin = (0.0,)
    start = tuple(origin for _ in range(k))
    if k == 2:
        idx = z_choice if z_choice is not None else rng.randrange(TWO_SERVER_CHOICES)
        zs = [(-0.75 * x * ms, -0.25 * x * ms, 0.25 * x * ms, 0.75 * x * ms)[idx]]
        choices = {"z_index": idx}
        block = x // 8
    else:
        # The line is split into segments grouped in fours (thm3) or fives (thm4); one
        # inner segment per group, 4g+1 or 4g+2 (thm3) or 5g+1 or 5g+3 (thm4), gets a Z.
        seg = x * ms
        zs = [((4 * g + 1 + rng.randrange(2) if mc is None
                else 5 * g + 1 + 2 * rng.randrange(2)) + 0.5) * seg for g in range(k - 1)]
        choices = {}
        block = x // 4
    if not all(map(math.isfinite, zs)):
        raise InputError(f"a target Z is not finite: x * ms = {x} * {ms!r} is too large")

    # Arrival times of the request at each Z, counted from the end of the first phase.
    offsets, elapsed = [], 0
    for z, prev in zip(zs, [0.0] + zs):
        elapsed += 0 if mc is None else math.ceil(abs(z - prev) / mc)
        offsets.append(elapsed)
        elapsed += block
    phase1 = x if k == 2 else max(
        k * x, max(math.ceil(abs(z) / ms) - off for z, off in zip(zs, offsets)))
    requests, pos = [origin] * phase1, 0.0
    for z in zs:
        while mc is not None and pos != z:  # thm4's walk toward Z
            pos = move_toward((pos,), (z,), mc)[0]
            requests.append((pos,))
        requests.extend([(z,)] * block)
        pos = z
    cert = (_follow_certificate(start, [origin] + [(z,) for z in zs], ms, len(requests))
            if certificate else None)
    trace = Trace(requests=requests, start_config=start, certificate=cert)
    return trace, dict(choices, Z=zs, phase1_len=phase1)


def gen_thm3(k: int, x: int, D: float = 1.0, ms: float = 1.0, *,
             seed: Optional[int] = None, z_choice: Optional[int] = None,
             delta: float = 0.5, certificate: bool = True) -> GeneratedInstance:
    """Two-phase jump construction on the line.

    A long block of requests at the origin is followed by a block at a
    point Z chosen among far-apart candidates unknown to the online
    algorithm; the offline solution walks one server to Z during the
    first block.  For k > 2 the line is split into 4(k-1) segments
    grouped in fours and one inner segment per group receives a Z.
    The first block is long enough for every offline server to arrive
    before its Z is requested.  The bound is closed-form and reads no
    certificate; with ``certificate`` False the trace carries none.
    """
    trace, choices = _jump(k, x, ms, None, seed, z_choice, certificate)
    zs = choices["Z"]
    mc = max(max(abs(z - p) for p, z in zip([0.0] + zs, zs)), ms)
    params = ProblemParams(k=k, ms=ms, mc=mc, delta=delta, D=D, dim=1)
    if k == 2:
        bound, lower = D * x * ms, x * x * ms / 264.0
    else:
        bound, lower = D * total(map(abs, zs)), None
    choices["phase2_start"] = choices["phase1_len"] + 1
    return GeneratedInstance("thm3", trace, params, bound, lower, choices)


def gen_thm4(k: int, x: int, ms: float, mc: float, D: float = 1.0, *,
             seed: Optional[int] = None, z_choice: Optional[int] = None,
             delta: float = 0.5, certificate: bool = True) -> GeneratedInstance:
    """Locality-respecting variant of the jump construction.

    Instead of jumping, the request walks toward each hidden target Z
    in steps of mc, so the trace is valid for the instance's own
    locality bound.  For k > 2 the line is split into 5(k-1) segments
    grouped in fives; the chosen inner segments neighbor an outer one.
    The k > 2 bound is the certificate's cost, so it is built there even
    when ``certificate`` is False, and then left off the trace.
    """
    if mc < ms:
        raise InputError("needs mc >= ms")
    trace, choices = _jump(k, x, ms, mc, seed, z_choice, certificate or k > 2)
    params = ProblemParams(k=k, ms=ms, mc=mc, delta=delta, D=D, dim=1)
    if k == 2:
        bound = D * x * ms + x * x * ms * ms / (2.0 * mc)
        choices.update(walk_start=choices["phase1_len"] + 1,
                       final_start=len(trace) - x // 8 + 1)
    else:
        bound = certificate_cost(trace, params)  # exact cost of the certificate
        choices["phase2_start"] = choices["phase1_len"] + 1
        if not certificate:
            trace.certificate = None
    return GeneratedInstance("thm4", trace, params, bound, None, choices)


def gen_simple_counterexample(x: int, y: int, ms: float = 1.0) -> GeneratedInstance:
    """Out-and-back request walk that defeats matching-only algorithms.

    The request moves right x steps, back left y steps, then stays for
    the remaining x-2y steps.  A single offline server following the
    request pays (x+y)*ms; a matching-only online algorithm paired with
    a guidance that switches serving servers at the turning point pays
    at least x*ms + (x-3y)*y*ms.
    """
    if x <= 0 or y <= 0 or y >= x / 4.0:
        raise InputError("needs 0 < y < x/4")
    requests: list[Point] = []
    for t in range(1, x + 1):
        requests.append((t * ms,))
    for j in range(1, y + 1):
        requests.append(((x - j) * ms,))
    requests.extend([((x - y) * ms,)] * (x - 2 * y))
    start = ((0.0,), (0.0,))
    cert = [((0.0,), r) for r in requests]
    params = ProblemParams(k=2, ms=ms, mc=ms, delta=0.0, D=1.0, dim=1)
    trace = Trace(requests=requests, start_config=start, certificate=cert)
    return GeneratedInstance(
        "simple-cx", trace, params,
        offline_cost_bound=(x + y) * ms,
        online_cost_lower_bound=x * ms + (x - 3 * y) * y * ms,
        choices={"x": x, "y": y})


def _unit_direction(rng: random.Random, dim: int) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(total(c * c for c in v))
        if norm > 1e-12:
            return [c / norm for c in v]


def local_walk_requests(n: int, dim: int, mc: float, step_scale: float,
                        seed: int) -> list[Point]:
    """Random walk with per-step displacement uniform in [0, step_scale*mc]."""
    if not 0.0 <= step_scale <= 1.0:
        raise InputError("step_scale must lie in [0, 1]")
    if n < 1:
        raise InputError("n must be positive")
    rng = random.Random(seed)
    cur = [0.0] * dim
    out = [tuple(cur)]
    for _ in range(n - 1):
        direction = _unit_direction(rng, dim)
        step = rng.uniform(0.0, step_scale * mc)
        cur = [c + step * d for c, d in zip(cur, direction)]
        out.append(tuple(cur))
    return out


def gen_local_walk(n: int, params: ProblemParams, step_scale: float,
                   seed: int) -> GeneratedInstance:
    """Seeded locality-respecting workload; all servers start on the first request."""
    requests = local_walk_requests(n, params.dim, params.mc, step_scale, seed)
    start = tuple(requests[0] for _ in range(params.k))
    trace = Trace(requests=requests, start_config=start, certificate=None)
    return GeneratedInstance("walk", trace, params, offline_cost_bound=None,
                             choices={"seed": seed, "step_scale": step_scale})
