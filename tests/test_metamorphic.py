"""Metamorphic checks of the online algorithms on the line.

Translating every point leaves the total cost unchanged up to rounding.
On the walks below, whose servers all start on the first request,
reflecting the line does too.

Reflection does not hold on thm3.  All servers start at the origin, and
ties between co-located servers go to the lowest index, which a mirror
image does not preserve, so the mirrored run can move other servers:
at k=2, x=16, seed 0 the total is 25.0 and the mirrored total 22.75.
That is the tie-break, not a fault, so it is not asserted.

Scaling every coordinate, ms and mc by a factor scales the total by the
same factor: on UMS/dc-line and WMS/pm-counter walks and on 1-D thm3
(k=2, 4, slow mode with the projection).  It is asserted within 1e-12
relative; for the factors 2 and 0.5 every total came out exact, as
expected where multiplying by a power of two adds no rounding.

Reordering a start configuration in which servers share points leaves
the total unchanged: on UMS/dc-line and WMS/pm-counter walks and on
thm3 at k=4, every distinct order gave the same total bit for bit.  It
is asserted within 1e-12 relative, which a different tie-break would
exceed by far.  On thm3 the origin is also spelled (0.0,) and (-0.0,),
and reordering those spellings leaves the total unchanged as well.
"""
import dataclasses
import itertools

import pytest

from kmobile.adversary import gen_local_walk, gen_thm3
from kmobile.core import ProblemParams, Trace
from kmobile.mobile import run

REL = 1e-9


def mapped(trace, f):
    """The trace with f applied to every coordinate of every point."""
    def conf(points):
        return tuple(tuple(map(f, p)) for p in points)

    certificate = None if trace.certificate is None else list(map(conf, trace.certificate))
    return Trace(list(conf(trace.requests)), conf(trace.start_config), certificate)


def total(trace, params):
    return run(trace, params, "ums", sim="dc-line").grand_total


def walk(k, mc, delta):
    params = ProblemParams(k=k, ms=1.0, mc=mc, delta=delta)
    return gen_local_walk(200, params, 1.0, seed=k)


SHIFTS = [pytest.param(lambda x: x + 1000.0, id="+1000"),
          pytest.param(lambda x: x - 3.5, id="-3.5")]
INSTANCES = ([pytest.param(gen_thm3(k, 16, seed=k), id=f"thm3-k{k}") for k in (2, 3, 4, 8)]
             + [pytest.param(walk(k, mc, delta), id=f"walk-k{k}-mc{mc}")
                for k in (1, 2, 3) for mc, delta in ((0.8, 0.0), (1.5, 0.2))])


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("inst", INSTANCES)
def test_translation_keeps_the_total(inst, shift):
    base = total(inst.trace, inst.params)
    assert total(mapped(inst.trace, shift), inst.params) == pytest.approx(base, rel=REL)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reflecting_a_walk_keeps_the_total(k):
    inst = walk(k, 1.5, 0.2)
    base = total(inst.trace, inst.params)
    assert total(mapped(inst.trace, lambda x: -x), inst.params) == pytest.approx(base, rel=REL)


def scaled_total(inst, factor, algo, sim):
    """grand_total with every coordinate, ms and mc multiplied by factor."""
    params = dataclasses.replace(inst.params, ms=inst.params.ms * factor,
                                 mc=inst.params.mc * factor)
    return run(mapped(inst.trace, lambda x: x * factor), params, algo, sim=sim).grand_total


def weighted_walk(k, D):
    params = ProblemParams(k=k, ms=1.0, mc=1.2, delta=0.5, D=D)
    return gen_local_walk(200, params, 1.0, seed=10 + k)


SCALED = ([pytest.param(walk(k, mc, delta), "ums", "dc-line", id=f"ums-walk-k{k}-mc{mc}")
           for k in (1, 2, 3) for mc, delta in ((0.8, 0.0), (1.5, 0.2))]
          + [pytest.param(weighted_walk(k, D), "wms", "pm-counter", id=f"wms-walk-k{k}-D{D}")
             for k, D in ((1, 2.0), (2, 3.0), (3, 2.5))]
          + [pytest.param(gen_thm3(k, 16, seed=k), "ums", "dc-line", id=f"thm3-k{k}")
             for k in (2, 4)])


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("inst,algo,sim", SCALED)
def test_scaling_scales_the_total(inst, algo, sim, factor):
    base = run(inst.trace, inst.params, algo, sim=sim).grand_total
    assert base > 0.0
    assert scaled_total(inst, factor, algo, sim) == pytest.approx(factor * base, rel=1e-12)


def orders(start):
    """Every distinct order of the start configuration's servers, by spelling (-0.0 is not 0.0)."""
    return list({repr(order): order for order in itertools.permutations(start)}.values())


def clustered_walk(algo, k, start_offsets):
    """A walk whose servers start in clusters at the given offsets from its first request."""
    if algo == "wms":
        params = ProblemParams(k=k, ms=1.0, mc=1.2, delta=0.5, D=2.5)
    else:
        params = ProblemParams(k=k, ms=1.0, mc=1.5, delta=0.2)
    requests = gen_local_walk(200, params, 1.0, seed=20 + k).trace.requests
    x0 = requests[0][0]
    return Trace(requests, tuple((x0 + off,) for off in start_offsets)), params


def thm3_starts():
    inst = gen_thm3(4, 16, seed=4)
    requests, certificate = inst.trace.requests, inst.trace.certificate
    yield Trace(requests, ((0.0,), (0.0,), (5.0,), (5.0,))), inst.params
    yield Trace(requests, ((0.0,), (0.0,), (-0.0,), (-0.0,)), certificate), inst.params


REORDERED = ([pytest.param(*clustered_walk(algo, len(offsets), offsets), algo, sim,
                           id=f"{algo}-{sim}-{offsets}")
              for algo, sim in (("ums", "dc-line"), ("wms", "pm-counter"))
              for offsets in ((0.0, 0.0, 2.0), (0.0, 0.0, -3.0, -3.0), (0.0, 1.0, 1.0, 1.0))]
             + [pytest.param(trace, params, "ums", "dc-line", id=f"thm3-k4-{i}")
                for i, (trace, params) in enumerate(thm3_starts())])


@pytest.mark.parametrize("trace,params,algo,sim", REORDERED)
def test_reordering_co_located_start_servers_keeps_the_total(trace, params, algo, sim):
    starts = orders(trace.start_config)
    assert len(starts) > 1
    base = run(trace, params, algo, sim=sim).grand_total
    assert base > 0.0
    for start in starts:
        reordered = dataclasses.replace(trace, start_config=start)
        assert run(reordered, params, algo, sim=sim).grand_total == pytest.approx(base, rel=1e-12)
