import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kmobile
from kmobile.core import InputError, Matching, distance, min_weight_matching


def brute_force(a, b):
    """Independent oracle: exhaustive enumeration in lexicographic order."""
    best_w = None
    best_perm = None
    for perm in itertools.permutations(range(len(a))):
        w = sum(distance(a[i], b[j]) for i, j in enumerate(perm))
        if best_w is None or w < best_w - 1e-12:
            best_w, best_perm = w, perm
    return best_perm, best_w


def test_identity_matching():
    conf = [(0.0, 0.0), (3.0, 1.0), (-2.0, 5.0)]
    m = min_weight_matching(conf, conf)
    assert m.perm == (0, 1, 2)
    assert m.weight == 0.0


def test_line_example_no_crossing():
    m = min_weight_matching([(0.0,), (10.0,)], [(1.0,), (9.0,)])
    assert m.perm == (0, 1)
    assert m.weight == 2.0


def test_size_mismatch():
    with pytest.raises(InputError):
        min_weight_matching([(0.0,)], [(0.0,), (1.0,)])


def test_matches_brute_force_small():
    rng = random.Random(7)
    for k in range(1, 7):
        for _ in range(40):
            a = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(k)]
            b = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(k)]
            m = min_weight_matching(a, b)
            _, w = brute_force(a, b)
            assert abs(m.weight - w) < 1e-9
            assert abs(sum(distance(a[i], b[j]) for i, j in enumerate(m.perm))
                       - m.weight) < 1e-12


def test_lexicographic_tie_break():
    # Two servers on the same point: both permutations are optimal.
    a = [(0.0,), (0.0,)]
    b = [(1.0,), (2.0,)]
    assert min_weight_matching(a, b).perm == (0, 1)
    # Symmetric cross: distances all equal.
    a = [(0.0,), (2.0,)]
    b = [(1.0,), (1.0,)]
    assert min_weight_matching(a, b).perm == (0, 1)


def test_large_k_path_agrees_with_enumeration():
    # Co-located points on an integer grid make many matchings optimal;
    # for every k the lexicographically smallest of them is returned.
    rng = random.Random(3)
    for k in range(1, 8):
        for _ in range(60 if k < 7 else 15):
            dim = rng.choice((1, 2))
            shared = [tuple(float(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(2)]

            def point():
                u = rng.random()
                if u < 0.45:
                    return rng.choice(shared)
                if u < 0.9:
                    return tuple(float(rng.randint(-3, 3)) for _ in range(dim))
                return tuple(rng.uniform(-5, 5) for _ in range(dim))

            a = [point() for _ in range(k)]
            b = [point() for _ in range(k)]
            perm, w = brute_force(a, b)
            m = min_weight_matching(a, b)
            assert m.perm == perm
            assert abs(m.weight - w) < 1e-9


def test_empty_matching():
    assert min_weight_matching([], []) == Matching((), 0.0)


def test_k2_simulate_leaves_scipy_unimported(tmp_path):
    # Matchings of k <= 2 are settled without scipy, whose import would
    # cost more than a whole short k=2 run.
    trace = str(tmp_path / "t.jsonl")
    script = (
        "import sys\n"
        "from kmobile.cli import main\n"
        f"trace = {trace!r}\n"
        "assert main(['generate', '--construction', 'walk', '--k', '2', '--dim', '2',\n"
        "             '--n', '12', '--mc', '0.8', '--D', '2', '--out', trace]) == 0\n"
        "for algo in ('ums', 'wms', 'simple'):\n"
        "    assert main(['simulate', '--algo', algo, '--trace', trace]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(kmobile.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
