import math
import random

from kmobile.core import ProblemParams, move_toward
from kmobile.kserver import DoubleCoverageLine, GreedyServer, ScriptedSimulator, SimStep
from kmobile.projection import ProjectionWrapper, inner_radius, outer_radius


def params(**kw):
    base = dict(k=2, ms=1.0, mc=1.0, delta=0.0, D=1.0, dim=1)
    base.update(kw)
    return ProblemParams(**base)


def test_inner_radius_values():
    assert inner_radius(params(k=2, mc=1.0), weighted=False) == 8.0
    assert inner_radius(params(k=2, mc=1.0, D=2.0), weighted=True) == 64.0
    assert inner_radius(params(k=1, mc=0.5), weighted=False) == 2.0


def test_outer_radius_values():
    assert outer_radius(params(k=2, mc=1.0), weighted=False) == 17.0
    assert outer_radius(params(k=2, mc=1.0, D=2.0), weighted=True) == 129.0


def test_boundary_point_nearest():
    # A phase end pulls an outside server onto the inner boundary by a capped move from r.
    p = move_toward((0.0, 0.0), (100.0, 0.0), 4.0)
    assert p == (4.0, 0.0)


def test_shadow_copies_inside_servers_exactly():
    pr = params(k=2)
    sim = GreedyServer([(0.0,), (1.0,)])
    wrap = ProjectionWrapper(sim, pr, weighted=False)
    rng = random.Random(0)
    r = (0.0,)
    for _ in range(40):
        r = (r[0] + rng.uniform(-1, 1),)
        step = wrap.step(r)
        for hat, c in zip(step.positions, sim.positions):
            if math.dist(c, r) <= wrap.inner:
                assert hat == c


def test_far_server_pulled_to_boundary_on_first_request():
    pr = params(k=1, mc=1.0)
    sim = ScriptedSimulator([(100.0,)], [[(100.0,)]])
    wrap = ProjectionWrapper(sim, pr, weighted=False)
    step = wrap.step((0.0,))
    # inner radius is 4, so the shadow lands on the boundary point (4.0,)
    assert step.positions == ((4.0,),)


def test_phase_ends_exactly_at_inner_radius_drift():
    pr = params(k=2, mc=1.0)  # inner radius 8
    script = [[(0.0,), (50.0,)] for _ in range(12)]
    sim = ScriptedSimulator([(0.0,), (50.0,)], script)
    wrap = ProjectionWrapper(sim, pr, weighted=False)
    drift = [(float(t),) for t in range(12)]  # 1 per step from anchor 0
    for t, r in enumerate(drift):
        wrap.step(r)
        if t < 8:
            assert wrap.phase_ends == 0
        else:
            assert wrap.phase_ends >= 1
    assert wrap.anchor == (8.0,)


def test_containment_bound_on_drift_run():
    pr = params(k=2, ms=0.4, mc=1.0, delta=0.5)
    sim = DoubleCoverageLine([(0.0,), (0.0,)])
    wrap = ProjectionWrapper(sim, pr, weighted=False)
    for t in range(300):
        wrap.step((float(t),))
    assert wrap.max_request_distance <= outer_radius(pr, False) + 1e-9
    assert wrap.phase_ends > 10
    audit = wrap.audit()
    assert audit["raw_cost"] > 0
    assert audit["projected_cost"] / audit["raw_cost"] <= 10 * pr.k


def test_weighted_radii_used_when_weighted():
    pr = params(k=1, ms=0.4, mc=1.0, delta=0.5, D=2.0)
    sim = GreedyServer([(0.0,)])
    wrap = ProjectionWrapper(sim, pr, weighted=True)
    assert wrap.inner == 32.0
    assert wrap.outer == 65.0


def test_containment_in_dimension_two():
    import math

    pr = ProblemParams(k=2, ms=0.4, mc=1.0, delta=0.5, D=1.0, dim=2)
    sim = GreedyServer([(0.0, 0.0), (0.0, 0.0)])
    wrap = ProjectionWrapper(sim, pr, weighted=False)
    for t in range(400):  # spiral drift, one unit of arc per step
        ang = 0.04 * t
        rad = 0.2 * t
        wrap.step((rad * math.cos(ang), rad * math.sin(ang)))
    assert wrap.max_request_distance <= outer_radius(pr, False) + 1e-9
    assert wrap.phase_ends > 3


def test_reentering_server_snaps_back():
    pr = params(k=1, mc=1.0)  # inner 4
    script = [[(0.0,)], [(10.0,)], [(2.0,)]]
    sim = ScriptedSimulator([(0.0,)], script)
    wrap = ProjectionWrapper(sim, pr, weighted=False)
    assert wrap.step((0.0,)).positions == ((0.0,),)
    assert wrap.step((0.0,)).positions == ((0.0,),)   # left inner: shadow stays
    assert wrap.step((0.0,)).positions == ((2.0,),)   # back inside: copied


def projection_bits(value):
    """Floats spelled by float.hex, through tuples."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(projection_bits, value))
    return value


def projection_state(wrap):
    """Everything a projection step leaves behind, floats spelled by float.hex."""
    return projection_bits((wrap.positions, wrap.anchor, wrap.raw_serving, wrap.raw_movement,
                            wrap.proj_serving, wrap.proj_movement, wrap.max_request_distance,
                            float(wrap.phase_ends)))


class HeldScript(ScriptedSimulator):
    """A script with one configuration for each block of one request object: a block's
    first step takes the next one, and its other steps hold that object.  It is settled
    once a server is on the block's request."""

    request = None

    def step(self, r):
        if r is self.request:
            return SimStep(self.positions, min(math.dist(p, r) for p in self.positions), 0.0)
        self.request = r
        return super().step(r)

    def settled(self, r):
        return r is self.request and r in self.positions


def test_repeats_equal_measured_steps():
    # Requests and guidance repeat in blocks, with servers inside and outside
    # the inner radius, on the request or beside it, phase ends, and zeros of both signs.
    rng = random.Random(5)
    pr = params(k=3, mc=1.0)  # inner radius 12
    blocks = []
    r = (0.0,)
    for _ in range(60):
        r = (0.0,) if rng.random() < 0.15 else (r[0] + rng.uniform(1.0, 8.0),)
        q = (rng.choice((-0.0, 0.0)) if r[0] == 0.0 else r[0],)  # a new tuple each block
        offset, far = rng.choice((-0.0, 3.0, 60.0)), rng.uniform(-80.0, 80.0)
        near = q if rng.random() < 0.8 else (q[0] + 0.5,)
        blocks.append((q, (near, (q[0] + offset,), (far,)), rng.randrange(1, 5)))
    script = [conf for _, conf, n in blocks for _ in range(n)]
    start = [(0.0,), (50.0,), (-50.0,)]
    wrap = ProjectionWrapper(HeldScript(start, [conf for _, conf, _ in blocks]), pr, False)
    ref = ProjectionWrapper(ScriptedSimulator(start, script), pr, weighted=False)
    settled = stepped = 0
    for q, _, n in blocks:
        assert projection_bits(wrap.step(q)) == projection_bits(ref.step(q))
        if n > 1 and wrap.settled(q):
            settled += 1
            free = projection_bits(SimStep(wrap.positions, 0.0, 0.0))
            assert all(projection_bits(ref.step(q)) == free for _ in range(n - 1))
        else:
            stepped += n > 1
            for _ in range(n - 1):
                assert projection_bits(wrap.step(q)) == projection_bits(ref.step(q))
        assert projection_state(wrap) == projection_state(ref)
    assert settled > len(blocks) / 2 and stepped > 0
    assert wrap.phase_ends > 0
