"""Projection of a guidance algorithm to a bounded radius around the request.

The wrapper shadows a simulator with servers that are guaranteed to
stay within a fixed radius of the current request: inside the inner
circle the shadow copies the simulated server; outside it keeps its
last position, except at phase ends, where it is pulled onto the inner
boundary.  A phase ends once the request has drifted an inner radius
away from the phase anchor.
"""
from __future__ import annotations

import math
from typing import Optional

from kmobile.core import Point, ProblemParams, check_dims, move_toward, total
from kmobile.kserver import GuidanceSimulator, SimStep


def inner_radius(params: ProblemParams, weighted: bool) -> float:
    """Tracking radius: 4k*mc unweighted, 16kD*mc weighted."""
    if weighted:
        return 16.0 * params.k * params.D * params.mc
    return 4.0 * params.k * params.mc


def outer_radius(params: ProblemParams, weighted: bool) -> float:
    """Containment guarantee: (8k+1)*mc unweighted, (32kD+1)*mc weighted."""
    if weighted:
        return (32.0 * params.k * params.D + 1.0) * params.mc
    return (8.0 * params.k + 1.0) * params.mc


# The numbers in the projection audit of a run with the projection on.
AUDIT_KEYS = ("max_hat_request_distance", "radius_bound", "raw_cost", "projected_cost",
              "phase_ends")


class ProjectionWrapper(GuidanceSimulator):
    """Wraps a simulator; exposes the projected servers as its positions.

    Serving and movement costs of both the raw and the projected
    algorithm are accumulated, and the largest projected-server
    distance to the request is tracked for containment audits.
    """

    def __init__(self, sim: GuidanceSimulator, params: ProblemParams, weighted: bool):
        self.sim = sim
        self.params = params
        self.inner = inner_radius(params, weighted)
        self.outer = outer_radius(params, weighted)
        self.anchor: Optional[Point] = None
        self.positions = tuple(sim.positions)
        check_dims(self.positions, params.dim)
        self.raw_serving = 0.0
        self.raw_movement = 0.0
        self.proj_serving = 0.0
        self.proj_movement = 0.0
        self.max_request_distance = 0.0
        self.phase_ends = 0
        # The last step's request when that step served it for nothing, else None.
        self._free: Optional[Point] = None

    def step(self, r: Point) -> SimStep:
        raw = self.sim.step(r)
        c = raw.positions
        self.raw_serving += raw.serving
        self.raw_movement += raw.movement
        # Checked once here, then measured with math.dist.
        check_dims((r, *c), self.params.dim)
        hat = list(self.positions)
        # The first request opens the first phase; outside servers are pulled
        # to the boundary at once, so containment holds from the start.
        first = self.anchor is None
        phase_end = first or math.dist(self.anchor, r) >= self.inner
        for i, p in enumerate(c):
            if math.dist(p, r) <= self.inner:
                hat[i] = p
            elif phase_end:
                hat[i] = move_toward(r, p, self.inner)
        if phase_end:
            self.anchor = r
            self.phase_ends += not first
        movement = total(map(math.dist, self.positions, hat))
        self.positions = tuple(hat)
        dists = [math.dist(p, r) for p in hat]
        serving = min(dists)
        self.proj_serving += serving
        self.proj_movement += movement
        self.max_request_distance = max(self.max_request_distance, max(dists))
        self._free = r if serving == 0.0 else None
        return SimStep(self.positions, serving, movement)

    def settled(self, r: Point) -> bool:
        """The last request, served for nothing, under settled guidance: the anchor is r or
        within inner of it, so no phase ends; the servers inside already hold the guidance's
        unchanged points, the others stay, and nothing moves or costs."""
        return r is self._free and self.sim.settled(r)

    def audit(self) -> dict:
        """The run record's projection audit: each of AUDIT_KEYS with its number."""
        D = self.params.D
        return dict(zip(AUDIT_KEYS, (
            self.max_request_distance, self.outer, self.raw_serving + D * self.raw_movement,
            self.proj_serving + D * self.proj_movement, self.phase_ends)))
