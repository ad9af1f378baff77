import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kmobile
from kmobile import core, mobile
from kmobile.adversary import gen_thm3
from kmobile.core import InputError, Matching, _assignment, min_weight_matching, total
from test_mobile import distinct


def brute_force(a, b):
    """Independent oracle: exhaustive enumeration in lexicographic order."""
    best_w = None
    best_perm = None
    for perm in itertools.permutations(range(len(a))):
        w = sum(math.dist(a[i], b[j]) for i, j in enumerate(perm))
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
            assert abs(sum(math.dist(a[i], b[j]) for i, j in enumerate(m.perm))
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


def assert_optimal_assignment(cost, opt):
    """A permutation whose row-order sum is the returned value and an optimum."""
    value, cols = _assignment(cost)
    assert sorted(cols) == list(range(len(cost))), cols
    assert value.hex() == total([cost[i][j] for i, j in enumerate(cols)], 0.0).hex()
    assert abs(value - opt) <= 1e-12 * (1.0 + opt), (cost, cols, opt)


def test_assignment_matches_enumeration_on_ties():
    rng = random.Random(17)
    for n in range(8):
        for _ in range(30 if n < 7 else 4):
            row = [float(rng.randint(0, 4)) for _ in range(n)]
            for cost in ([[float(rng.randint(0, 3)) for _ in range(n)] for _ in range(n)],
                         [list(row) for _ in range(n)],
                         [[rng.choice((0.0, 0.5, 2.5))] * n for _ in range(n)],
                         [[2.5] * n for _ in range(n)]):
                opt = min(sum([cost[i][j] for i, j in enumerate(perm)], 0.0)
                          for perm in itertools.permutations(range(n)))
                assert_optimal_assignment(cost, opt)


def test_assignment_matches_scipy_on_geometric_costs():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = random.Random(19)
    for n in (3, 8, 16, 64):
        for trial in range(12):
            dim = rng.choice((1, 2))
            draw = lambda: tuple(rng.uniform(-5.0, 5.0) for _ in range(dim))
            if trial % 2:               # co-located servers: many optimal matchings
                sites = [draw() for _ in range(3)]
                draw = lambda: rng.choice(sites)
            a, b = [draw() for _ in range(n)], [draw() for _ in range(n)]
            cost = [[math.dist(p, q) for q in b] for p in a]
            rows, cols = linear_sum_assignment(cost)
            assert_optimal_assignment(cost, sum([cost[i][j] for i, j in zip(rows, cols)], 0.0))


def test_cli_commands_leave_scipy_unimported(tmp_path):
    # The assignment solver is in the package: a fresh process running every
    # command, with k=3, 4 and 8 matchings that reach the solver, never
    # imports scipy, whose import alone costs more than such a run.
    script = (
        "import sys\n"
        "from kmobile import core\n"
        "from kmobile.cli import main\n"
        "sizes = []\n"
        "solve = core._assignment\n"
        "core._assignment = lambda cost: sizes.append(len(cost)) or solve(cost)\n"
        f"tmp = {str(tmp_path)!r}\n"
        "walk, thm3, spec = tmp + '/walk.jsonl', tmp + '/thm3.jsonl', tmp + '/thm3.spec'\n"
        "assert main(['generate', '--construction', 'walk', '--k', '2', '--dim', '2',\n"
        "             '--n', '12', '--mc', '0.8', '--D', '2', '--out', walk]) == 0\n"
        "for algo in ('ums', 'wms', 'simple'):\n"
        "    assert main(['simulate', '--algo', algo, '--trace', walk]) == 0\n"
        "assert main(['generate', '--construction', 'thm3', '--k', '4', '--x', '32',\n"
        "             '--out', thm3]) == 0\n"
        "assert main(['simulate', '--trace', thm3, '--out', tmp + '/run.json']) == 0\n"
        "assert main(['verify', '--property', 'slow-potential', '--run', tmp + '/run.json',\n"
        "             '--trace', thm3]) == 0\n"
        "with open(spec, 'w') as fh:\n"
        "    fh.write('construction=thm3\\nx=16\\nseeds=0\\nsweep.k=3,4,8\\n')\n"
        "assert main(['sweep', '--spec', spec, '--out', tmp + '/agg.json']) == 0\n"
        "assert {3, 4, 8} <= set(sizes), sorted(set(sizes))\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(kmobile.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_only_the_wfa_and_the_dp_import_numpy(tmp_path):
    # numpy is imported inside the work-function guidance and the DP oracle
    # only: a fresh process running the other commands never loads it.
    prelude = (
        "import sys\n"
        "from kmobile.cli import main\n"
        f"tmp = {str(tmp_path)!r}\n"
        "walk, thm3, spec = tmp + '/walk.jsonl', tmp + '/thm3.jsonl', tmp + '/thm3.spec'\n")
    without = prelude + (
        "assert main(['generate', '--construction', 'walk', '--k', '2', '--dim', '1',\n"
        "             '--n', '20', '--mc', '0.5', '--D', '2', '--out', walk]) == 0\n"
        "for algo, sim in (('ums', 'dc-line'), ('wms', 'pm-counter'), ('ums', 'greedy')):\n"
        "    run = f'{tmp}/{sim}.run.json'\n"
        "    assert main(['simulate', '--algo', algo, '--sim', sim, '--trace', walk,\n"
        "                 '--out', run, '--csv', f'{tmp}/{sim}.csv']) == 0\n"
        "    assert main(['verify', '--property', 'fast-potential', '--run', run,\n"
        "                 '--trace', walk]) == 0\n"
        "assert main(['generate', '--construction', 'thm3', '--k', '2', '--x', '16',\n"
        "             '--out', thm3]) == 0\n"
        "assert main(['simulate', '--trace', thm3, '--out', tmp + '/thm3.run.json']) == 0\n"
        "for prop in ('projection-bound', 'slow-potential', 'helper-invariants'):\n"
        "    assert main(['verify', '--property', prop, '--run', tmp + '/thm3.run.json',\n"
        "                 '--trace', thm3, '--sigma', '1e-3']) == 0, prop\n"
        "with open(spec, 'w') as fh:\n"
        "    fh.write('construction=thm3\\nx=16\\nseeds=0,1\\nsweep.k=2,4\\n')\n"
        "assert main(['sweep', '--spec', spec, '--out', tmp + '/agg.json']) == 0\n"
        # A line walk beyond the DP's 30 steps gets no DP reference.
        "with open(spec, 'w') as fh:\n"
        "    fh.write('construction=walk\\nn=40\\nmc=0.5\\nseeds=0\\n')\n"
        "assert main(['sweep', '--spec', spec]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    # Each positive control runs in its own process, after the numpy-free one
    # wrote its trace, so that neither can pass on the other's import.
    controls = [
        "assert main(['optimum', '--trace', walk, '--grid', '0.5']) == 0\n",
        "assert main(['simulate', '--sim', 'wfa', '--trace', walk]) == 0\n",
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(kmobile.__file__).resolve().parents[1]))
    for script in [without] + [prelude + "assert 'numpy' not in sys.modules\n" + tail +
                               "assert 'numpy' in sys.modules, 'numpy was not imported'\n"
                               for tail in controls]:
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def reference_matching(a, b):
    """The matching without the sorted-line shortcut: one solve, then row fixing."""
    k = len(a)
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
    return tuple(completion), fixed


def assert_same_as_reference(a, b):
    m = min_weight_matching(a, b)
    perm, weight = reference_matching(a, b)
    assert (m.perm, m.weight.hex()) == (perm, weight.hex()), (a, b)


def is_sorted_line(conf):
    return all(len(p) == 1 for p in conf) and all(
        conf[i][0] <= conf[i + 1][0] for i in range(len(conf) - 1))


def line_coordinates(rng, k):
    """k coordinates of one of four kinds, with runs of co-located points."""
    kind = rng.randrange(4)
    if kind == 0:
        xs = [float(rng.randint(-4, 4)) for _ in range(k)]
    elif kind == 1:
        xs = [rng.choice((-1e15, 1e15)) + rng.uniform(-50.0, 50.0) for _ in range(k)]
    elif kind == 2:
        xs = [rng.choice((0.0, -0.0, 1.0, -1.0, 0.1)) for _ in range(k)]
    else:
        xs = [rng.uniform(-10.0, 10.0) for _ in range(k)]
    for _ in range(rng.randrange(k)):
        i = rng.randrange(k)
        xs[i] = xs[rng.randrange(k)]     # co-located runs once sorted
    return xs


def test_sorted_line_shortcut_matches_reference():
    # Bits, not values: the shortcut must return what the search returns.
    rng = random.Random(11)
    shortcut = general = 0
    for k in range(1, 13):
        for _ in range(40):
            xa, xb = line_coordinates(rng, k), line_coordinates(rng, k)
            for a, b in (([(x,) for x in sorted(xa)], [(x,) for x in sorted(xb)]),
                         ([(x,) for x in xa], [(x,) for x in xb])):
                shortcut += is_sorted_line(a) and is_sorted_line(b)
                general += not (is_sorted_line(a) and is_sorted_line(b))
                assert_same_as_reference(a, b)
    assert shortcut > 400 and general > 300


def two_server_inputs(rng):
    """Two k=2 configurations in dimension 1 or 2: grid points with many
    ties, co-located pairs, or mirror pairs whose straight sum is nudged
    above the crossed sum, inside and outside the tolerance."""
    dim = rng.choice((1, 2))
    kind = rng.randrange(3)
    if kind == 0:
        draw = lambda: tuple(float(rng.randint(-2, 2)) for _ in range(dim))
        return [draw(), draw()], [draw(), draw()]
    if kind == 1:
        p, q = (tuple(rng.uniform(-5, 5) for _ in range(dim)) for _ in range(2))
        return rng.choice(([p, p], [p, q], [q, p])), rng.choice(([p, p], [q, q], [q, p]))
    # The straight sum exceeds the crossed one by 2 * nudge: within the
    # tolerance for the two smaller nudges, beyond it for the largest.
    x = rng.uniform(0.5, 3.0)
    nudge = rng.choice((0.0, 1e-14, 1e-13, 1e-11))
    pad = (0.0,) * (dim - 1)
    return [(-x,) + pad, (x,) + pad], [(nudge,) + pad, (0.0,) + pad]


def test_two_server_matching_matches_reference_without_a_solve(monkeypatch):
    solves = []

    def count_solve(cost):
        solves.append(len(cost))
        return _assignment(cost)

    rng = random.Random(13)
    cases = [two_server_inputs(rng) for _ in range(3000)]
    monkeypatch.setattr(core, "_assignment", count_solve)
    perms = [min_weight_matching(a, b).perm for a, b in cases]
    assert solves == []
    monkeypatch.undo()
    for a, b in cases:
        assert_same_as_reference(a, b)
    crossed_within_tol = sum(
        math.dist(a[0], b[0]) + math.dist(a[1], b[1])
        > math.dist(a[0], b[1]) + math.dist(a[1], b[0]) and perm == (0, 1)
        for (a, b), perm in zip(cases, perms))
    assert perms.count((1, 0)) > 300 and crossed_within_tol > 100


def test_planar_matching_matches_reference():
    rng = random.Random(12)
    for k in range(1, 10):
        for _ in range(15):
            a = [(float(rng.randint(-3, 3)), rng.uniform(-1e15, 1e15)) for _ in range(k)]
            b = [(float(rng.randint(-3, 3)), rng.choice((0.0, -0.0))) for _ in range(k)]
            assert_same_as_reference(a, b)


def test_sorted_line_matchings_skip_the_solve(monkeypatch):
    # A k=8 thm3 run under double coverage keeps both configurations sorted
    # nearly always; only the other matchings may reach the assignment solve.
    inputs = []
    solves = []

    def record_matching(a, b):
        inputs.append((tuple(a), tuple(b)))
        return min_weight_matching(a, b)

    def count_solve(cost):
        solves.append(len(cost))
        return _assignment(cost)

    monkeypatch.setattr(mobile, "min_weight_matching", record_matching)
    monkeypatch.setattr(core, "_assignment", count_solve)
    inst = gen_thm3(8, 16, seed=4)
    res = mobile.run(inst.trace, inst.params, "ums", sim="dc-line")
    unsorted = sum(not (is_sorted_line(a) and is_sorted_line(b)) for a, b in inputs)
    # One matching for the start, and one for each report: a block's settled
    # report stands for its remaining steps.
    assert len(inputs) == distinct(res.reports) + 1 < len(inst.trace) / 4
    assert 0 < unsorted < len(inputs) / 10
    assert len(solves) == unsorted
