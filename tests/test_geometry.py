import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmobile.core import InputError, check_dims, move_toward

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def pts(dim):
    return st.tuples(*([coord] * dim))


def test_distance_345():
    assert math.dist((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_distance_identity():
    p = (1.25, -7.5, 3.0)
    assert math.dist(p, p) == 0.0


def test_distance_sqrt2():
    assert math.dist((1.0, 1.0), (2.0, 2.0)) == 1.4142135623730951


def test_distance_dimension_mismatch():
    # Points are checked once with check_dims; math.dist would raise ValueError.
    with pytest.raises(InputError):
        check_dims([(0.0,), (0.0, 1.0)], 1)


def test_move_toward_colinear():
    assert move_toward((0.0,), (10.0,), 1.5) == (1.5,)


def test_move_toward_reaches_target():
    assert move_toward((0.0,), (1.0,), 5.0) == (1.0,)


def test_move_toward_unit_vector_scaling():
    got = move_toward((0.0, 0.0), (3.0, 4.0), 2.5)
    assert got == (1.5, 2.0)
    assert abs(math.dist((0.0, 0.0), got) - 2.5) < 1e-12


def test_move_toward_zero_cap():
    assert move_toward((2.0, 1.0), (5.0, 5.0), 0.0) == (2.0, 1.0)


def test_move_toward_negative_cap():
    with pytest.raises(InputError):
        move_toward((0.0,), (1.0,), -1.0)


@settings(max_examples=500)
@given(pts(3), pts(3), pts(3))
@example((524290.0, 1.00001, 0.0), (524290.0, 262146.0, 0.0), (524290.0, 524290.0, 0.0))
def test_triangle_inequality(a, b, c):
    # Each distance is correctly rounded to within an ulp or so, so the
    # slack scales with the right-hand side.
    rhs = math.dist(a, b) + math.dist(b, c)
    assert math.dist(a, c) <= rhs + 1e-12 * max(1.0, rhs)


@settings(max_examples=500)
@given(pts(2), pts(2), st.floats(min_value=0.0, max_value=1e6))
def test_move_toward_never_overshoots(p, target, cap):
    moved = move_toward(p, target, cap)
    want = max(0.0, math.dist(p, target) - cap)
    scale = max(1.0, math.dist(p, target))
    assert abs(math.dist(moved, target) - want) <= 1e-9 * scale
    assert math.dist(p, moved) <= cap + 1e-9 * scale


@settings(max_examples=200)
@given(pts(2), pts(2))
def test_distance_symmetry(p, q):
    assert math.dist(p, q) == math.dist(q, p)


def test_triangle_inequality_bulk():
    import random

    rng = random.Random(99)
    for _ in range(100_000):
        a, b, c = ((rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(3))
        assert math.dist(a, c) <= math.dist(a, b) + math.dist(b, c) + 1e-12


def test_move_toward_no_overshoot_bulk():
    import random

    rng = random.Random(77)
    for _ in range(100_000):
        p = (rng.uniform(-20, 20), rng.uniform(-20, 20))
        t = (rng.uniform(-20, 20), rng.uniform(-20, 20))
        cap = rng.uniform(0.0, 30.0)
        moved = move_toward(p, t, cap)
        want = max(0.0, math.dist(p, t) - cap)
        assert abs(math.dist(moved, t) - want) <= 1e-9
