"""Geometry, problem parameters, traces and matchings.

Points are plain tuples of floats; configurations are tuples of points.
Everything in this module is a pure function over immutable values, so
all of it is safe to share between concurrent runs.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass
from operator import is_not, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

Point = tuple[float, ...]
Config = tuple[Point, ...]

# The one relative slack of every floating-point bound check.
REL_TOL = 1e-9


class KMobileError(Exception):
    """Base class for library errors."""


class InputError(KMobileError):
    """Malformed input: bad parameters, invalid traces, dimension mismatches."""


class ResourceBudgetError(KMobileError):
    """An operation would exceed its configured size budget."""


class ContractViolationError(KMobileError):
    """A component broke an interface guarantee it was relied upon for."""


# A JSON number parses to an int or a float.  A bool is an int subclass
# and float() parses a string, so readers test type(), not isinstance().
NUMBER_TYPES = frozenset((int, float))


def as_number(value, what: str) -> float:
    """A number read from a JSON file, as a float; an int too large raises OverflowError."""
    if type(value) not in NUMBER_TYPES:
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def as_int(value, what: str) -> int:
    """An integer read from a JSON file: a JSON integer, not 1.0 or 1.5."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def as_point(coords) -> Point:
    """A point read from a JSON file: a non-empty list of finite numbers."""
    if type(coords) is not list or not coords:
        raise InputError(f"a point is a non-empty list of coordinates, got {coords!r}")
    p = tuple(as_number(c, "a coordinate") for c in coords)
    if not all(map(math.isfinite, p)):
        raise InputError(f"non-finite coordinate in point {p}")
    return p


def positive(value: float, what: str) -> float:
    """``value``, unless it is not a positive finite number: then InputError."""
    if not 0.0 < value < math.inf:
        raise InputError(f"{what} must be positive and finite, got {value!r}")
    return value


def check_dims(points: Iterable[Point], dim: int) -> None:
    """Raise InputError unless every point has ``dim`` coordinates.

    Code checks its points once with this and then measures them with
    ``math.dist``, which would raise ValueError on a mismatch.
    """
    for p in points:
        if len(p) != dim:
            raise InputError(f"point {p} has dimension {len(p)}, expected {dim}")


def total(xs: Iterable[float], start=0):
    """The left fold start + x1 + x2 + ...: 3.11's sum() bit for bit; 3.12's compensates."""
    for x in xs:
        start += x
    return start


def nearest(conf: Sequence[Point], p: Point) -> tuple[int, float]:
    """The index of conf's point nearest p, the lowest on ties, and its distance."""
    dists = [math.dist(q, p) for q in conf]
    d = min(dists)
    return dists.index(d), d


def move_toward(p: Point, target: Point, cap: float) -> Point:
    """Move p toward target, by at most cap.

    Returns target itself once it is within reach, so repeated moves
    terminate exactly on the target instead of oscillating around it.
    """
    if cap < 0:
        raise InputError("movement cap must be nonnegative")
    if len(p) != len(target):
        raise InputError(f"dimension mismatch: {len(p)} vs {len(target)}")
    d = math.dist(p, target)
    if d <= cap:
        return target
    if cap == 0.0:
        return p
    f = cap / d
    return tuple(pc + f * (tc - pc) for pc, tc in zip(p, target))


@dataclass(frozen=True)
class ProblemParams:
    """The quintuple (k, m_s, m_c, delta, D) plus the space dimension.

    m_s bounds the offline per-step movement, m_c the distance between
    consecutive requests, delta the speed augmentation granted to the
    online algorithm, and D the weight of movement cost.
    """

    k: int
    ms: float
    mc: float
    delta: float
    D: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be a positive integer")
        positive(self.ms, "ms")
        positive(self.mc, "mc")
        if not 0.0 <= self.delta < 1.0:
            raise InputError("delta must lie in [0, 1)")
        if not 1.0 <= self.D < math.inf:
            raise InputError(f"D must be finite and at least 1, got {self.D!r}")
        if self.dim < 1:
            raise InputError("dim must be a positive integer")

    @property
    def online_speed(self) -> float:
        return (1.0 + self.delta) * self.ms

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ProblemParams":
        """Inverse of to_dict; every field is required."""
        if not isinstance(obj, dict):
            raise InputError(f"parameters must be a JSON object, got {obj!r}")
        values = {}
        for f in dataclasses.fields(cls):
            if f.name not in obj:
                raise InputError(f"parameters miss field {f.name!r}")
            read = as_int if f.type == "int" else as_number
            values[f.name] = read(obj[f.name], f"parameter {f.name!r}")
        return cls(**values)


def read_budget(default: Optional[int] = None) -> Optional[int]:
    """The size budget set by KMOB_BUDGET, or ``default`` when it is unset or empty."""
    env = os.environ.get("KMOB_BUDGET")
    if not env:
        return default
    try:
        budget = int(env)
    except ValueError as exc:
        raise InputError(f"KMOB_BUDGET must be an integer, got {env!r}") from exc
    if budget < 0:
        raise InputError(f"KMOB_BUDGET must be nonnegative, got {budget}")
    return budget


@dataclass
class Trace:
    """A request sequence with its start configuration.

    ``certificate``, when present, is a feasible offline trajectory:
    one configuration per request, with per-server displacement at most
    m_s per step.  Generators attach certificates of known cost.
    """

    requests: list[Point]
    start_config: Config
    certificate: Optional[list[Config]] = None

    def __len__(self) -> int:
        return len(self.requests)


class TraceViolation(NamedTuple):
    kind: str  # "request-locality" | "certificate-speed" | "certificate-length"
    index: int
    measured: float
    bound: float


def validate_trace(trace: Trace, params: ProblemParams) -> Optional[TraceViolation]:
    """Check locality of requests and certificate feasibility.

    Returns None if the trace is valid, otherwise the first violation.
    Dimension mismatches raise InputError, and so do points so far apart
    that their distances overflow.  A request that is the very object of
    the step before was checked there; every certificate point is checked.
    """
    reqs, start, cert = trace.requests, trace.start_config, trace.certificate
    if not reqs:
        raise InputError("empty trace")
    if len(start) != params.k:
        raise InputError(f"start config has {len(start)} servers, expected {params.k}")
    changes = list(itertools.compress(range(1, len(reqs)), map(is_not, reqs[1:], reqs)))
    points = [reqs[0], *map(reqs.__getitem__, changes), *start]  # each new point once
    check_dims(points, params.dim)
    slack = 1.0 + REL_TOL
    for t in changes:
        d = math.dist(reqs[t - 1], reqs[t])
        if d > params.mc * slack:
            return TraceViolation("request-locality", t, d, params.mc)
    if cert is not None:
        if len(cert) != len(reqs):
            return TraceViolation("certificate-length", len(cert), float(len(cert)),
                                  float(len(reqs)))
        prev = start
        for t, conf in enumerate(cert, 1):
            if len(conf) != params.k:
                raise InputError(f"certificate step {t} has {len(conf)} servers")
            check_dims(conf, params.dim)
            for d in map(math.dist, prev, conf):
                if d > params.ms * slack:
                    return TraceViolation("certificate-speed", t, d, params.ms)
            points += conf
            prev = conf
    # No distance between the points exceeds their bounding box's diagonal.
    spans = [max(c) - min(c) for c in (list(map(itemgetter(i), points)) for i in range(params.dim))]
    if not math.isfinite(math.hypot(*spans)):
        raise InputError("the trace's points span a box whose diagonal overflows a float")
    return None


def certificate_cost(trace: Trace, params: ProblemParams) -> float:
    """Evaluated cost of the attached offline trajectory: k servers at each request."""
    cert, reqs, start = trace.certificate, trace.requests, trace.start_config
    if cert is None:
        raise InputError("trace carries no certificate")
    if len(cert) != len(reqs):
        raise InputError(f"certificate has {len(cert)} steps, the trace {len(reqs)} requests")
    if len(start) != params.k:
        raise InputError(f"start config has {len(start)} servers, expected {params.k}")
    check_dims(itertools.chain(start, reqs, *cert), params.dim)
    cost, prev = 0.0, start
    for t, (conf, r) in enumerate(zip(cert, reqs), 1):
        if len(conf) != params.k:
            raise InputError(f"certificate step {t} has {len(conf)} servers")
        cost += params.D * total(map(math.dist, prev, conf))
        cost += min(math.dist(p, r) for p in conf)
        prev = conf
    return cost


class Matching(NamedTuple):
    """perm maps index in A to its partner index in B; weight is the matched distance sum."""

    perm: tuple[int, ...]
    weight: float


def _assignment(cost: list[list[float]]) -> tuple[float, list[int]]:
    """Optimal value and one optimal column per row of a square cost matrix.

    The Hungarian method with row and column potentials u, v, in the
    shortest-augmenting-path form of Jonker & Volgenant (1987).  A row
    reduction starts it: u_i is row i's minimum, v = 0, and each row in
    turn takes its first free column of reduced cost zero.  Each row left
    over is then matched along a shortest path of reduced costs from the
    virtual column n.  The value is the cost summed in row order.
    """
    n = len(cost)
    u = [min(row) for row in cost]
    v = [0.0] * (n + 1)
    row_of = [-1] * (n + 1)          # column -> its row; -1 while free
    left = []
    for i, row in enumerate(cost):
        j = row.index(u[i])
        while j < n and (row_of[j] >= 0 or row[j] != u[i]):
            j += 1
        if j < n:
            row_of[j] = i
        else:
            left.append(i)
    for i in left:
        row_of[n], j0 = i, n
        dist = [math.inf] * n        # reduced length of the shortest path to each column
        via = [n] * n                # the column before it on that path
        unseen, seen = list(range(n)), [n]
        while row_of[j0] >= 0:
            row, base = cost[row_of[j0]], u[row_of[j0]]
            delta = math.inf
            for j in unseen:
                d = row[j] - base - v[j]
                if d < dist[j]:
                    dist[j], via[j] = d, j0
                if dist[j] < delta:
                    delta, j1 = dist[j], j
            for j in seen:
                u[row_of[j]] += delta
                v[j] -= delta
            for j in unseen:
                dist[j] -= delta
            unseen.remove(j1)
            seen.append(j1)
            j0 = j1
        while j0 != n:               # flip the path's matched and unmatched edges
            row_of[j0], j0 = row_of[via[j0]], via[j0]
    cols = sorted(range(n), key=row_of.__getitem__)
    return total([cost[i][j] for i, j in enumerate(cols)], 0.0), cols


def _non_decreasing(conf: Sequence[Point]) -> bool:
    """Whether the first coordinates never decrease; NaN makes it false."""
    prev = -math.inf
    for p in conf:
        if not prev <= p[0]:
            return False
        prev = p[0]
    return True


def min_weight_matching(a: Sequence[Point], b: Sequence[Point]) -> Matching:
    """Minimum-weight perfect matching between two equal-size configurations.

    Among all optimal assignments (within a relative 1e-12) the
    lexicographically smallest permutation is returned, so runs are
    reproducible despite the ties of co-located servers.

    On the line with both configurations sorted, the identity is an
    optimal matching (no two matched pairs need cross) and the smallest
    permutation of all.  At each row the search below first tries the
    identity's column, whose best completion is then optimal too, so the
    sum it compares with the optimum differs from it by rounding only,
    far below the tolerance: the search returns the identity, with its
    weight summed in row order.  Here that is done without a solve.

    For k = 2 the search keeps the identity when its sum is within the
    tolerance of the crossed sum; one comparison gives the same bits.

    Otherwise one assignment solve gives the optimum and a completion.
    Rows are then fixed in order; a free column preceding the
    completion's is taken when a solve of the remaining rows and columns
    still reaches the optimum, and that solve becomes the completion.
    """
    k = len(a)
    if len(b) != k:
        raise InputError(f"configuration sizes differ: {k} vs {len(b)}")
    dim = len(a[0]) if k else 1
    check_dims(a, dim)
    check_dims(b, dim)
    if dim == 1 and _non_decreasing(a) and _non_decreasing(b):
        return Matching(tuple(range(k)), total(map(math.dist, a, b), 0.0))
    if k == 2:
        c00, c01 = math.dist(a[0], b[0]), math.dist(a[0], b[1])
        c10, c11 = math.dist(a[1], b[0]), math.dist(a[1], b[1])
        crossed = c01 + c10
        if c00 + c11 <= crossed + 1e-12 * (1.0 + crossed):
            return Matching((0, 1), c00 + c11)
        return Matching((1, 0), crossed)
    cost = [[math.dist(p, q) for q in b] for p in a]
    best, completion = _assignment(cost)
    tol = 1e-12 * (1.0 + best)
    free = list(range(k))
    fixed = 0.0
    for i in range(k):
        for j in free:
            if j == completion[i]:
                break
            rest_cols = [c for c in free if c != j]
            rest, sub = _assignment([[cost[r][c] for c in rest_cols]
                                     for r in range(i + 1, k)])
            if fixed + cost[i][j] + rest <= best + tol:
                completion[i:] = [j] + [rest_cols[x] for x in sub]
                break
        free.remove(completion[i])
        fixed += cost[i][completion[i]]
    return Matching(tuple(completion), fixed)


# ---------------------------------------------------------------------------
# Trace files: one JSON object per line.  The header carries the problem
# parameters; request lines are {"t": ..., "r": [...]}; optional
# certificate lines are {"t": ..., "o": [[...], ...]}.
# ---------------------------------------------------------------------------

def write_trace(path: str, trace: Trace, params: ProblemParams) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = dict(params.to_dict(), start=[list(p) for p in trace.start_config])
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t, r in enumerate(trace.requests, start=1):
            fh.write(json.dumps({"t": t, "r": list(r)}) + "\n")
        if trace.certificate is not None:
            for t, conf in enumerate(trace.certificate, start=1):
                fh.write(json.dumps({"t": t, "o": [list(p) for p in conf]}) + "\n")


def _put_step(steps: dict, t: int, value) -> None:
    if t in steps:
        raise InputError(f"step t={t} appears twice")
    steps[t] = value


def _reuse(prev: Point, p: Point) -> Point:
    """prev when p is bit for bit prev (equal, and equal in repr, which tells 0.0
    from -0.0), as a generated repeat is that very object; else p."""
    return prev if p == prev and repr(p) == repr(prev) else p


def read_text(path: str) -> str:
    """A UTF-8 text file's contents, universal newlines read; not UTF-8 raises InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8: {exc}") from exc


def read_trace(path: str) -> tuple[Trace, ProblemParams]:
    params = start = None
    requests: dict[int, Point] = {}
    cert: dict[int, Config] = {}
    scan = json.JSONDecoder().scan_once  # json.loads's scanner, without its checks around it
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError):
            end = None
        if end != len(line):  # json.loads says what is wrong, in its words
            try:
                obj = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
                raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InputError(f"{path}:{lineno}: expected a JSON object, got {obj!r}")
        # A line is read by its exact keys: a step line has "t" and one other, and
        # the header every parameter (from_dict requires each) and "start".
        try:
            if len(obj) == 2 and "r" in obj and "t" in obj:
                _put_step(requests, as_int(obj["t"], "t"), as_point(obj["r"]))
            elif len(obj) == 2 and "o" in obj and "t" in obj:
                _put_step(cert, as_int(obj["t"], "t"), tuple(as_point(p) for p in obj["o"]))
            elif "start" in obj and len(obj) == len(dataclasses.fields(ProblemParams)) + 1:
                if params is not None:
                    raise InputError("a second header line")
                params = ProblemParams.from_dict(obj)
                start = tuple(as_point(p) for p in obj["start"])
            else:
                raise InputError(f"unrecognized record {sorted(obj)}")
        except (InputError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    if params is None:
        raise InputError(f"{path}: missing header line")
    if not requests:
        raise InputError(f"{path}: no request lines")
    n = max(requests)
    if min(requests) != 1 or len(requests) != n:  # n distinct ints from 1 to n
        raise InputError(f"{path}: request steps are not contiguous 1..{n}")
    req_list = list(itertools.accumulate(map(requests.__getitem__, range(1, n + 1)), _reuse))
    certificate = None
    if cert:
        if cert.keys() != requests.keys():
            raise InputError(f"{path}: certificate steps are not contiguous 1..{n}")
        certificate = [cert[t] for t in range(1, n + 1)]
    if len(start) != params.k:
        raise InputError(f"{path}: start config has {len(start)} servers, expected {params.k}")
    trace = Trace(requests=req_list, start_config=start, certificate=certificate)
    for p in itertools.chain(req_list, start):
        if len(p) != params.dim:
            raise InputError(f"{path}: point dimension {len(p)} != header dim {params.dim}")
    return trace, params
