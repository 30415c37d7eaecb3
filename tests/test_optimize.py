"""The lockstep sign-change search against scipy's brentq and against itself one problem at a time."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import _oracles
from _oracles import illinois_array

EPS = np.finfo(float).eps


def _problems(seed: int, n: int, steepest: float = 10 ** 1.5):
    """n asymmetric increasing problems: f_i(t) = expm1(z) + c_i*z, z = s_i*(t - r_i)/(b_i - a_i).

    Brackets, roots, steepness s_i (0.1 to `steepest`) and tolerances all
    differ, so the problems stop after different numbers of steps.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 0.0, n)
    b = a + 10 ** rng.uniform(-3.0, 3.0, n)
    r = a + rng.uniform(0.02, 0.98, n) * (b - a)
    s = 10 ** rng.uniform(-1.0, math.log10(steepest), n)
    c = rng.uniform(0.0, 1.0, n)
    xtol = 10 ** rng.uniform(-12.0, -2.0, n) * (b - a)

    def scalar(i):
        def f(t):
            z = s[i] * (t - r[i]) / (b[i] - a[i])
            return math.expm1(z) + c[i] * z
        return f

    def f(t, idx):
        z = s[idx] * (t - r[idx]) / (b[idx] - a[idx])
        return np.expm1(z) + c[idx] * z
    return a, b, r, xtol, f, scalar


def test_lockstep_search_meets_brentq():
    a, b, r, xtol, f, scalar = _problems(11, 48)
    sizes = []

    def counted(t, idx):
        sizes.append(idx.size)
        return f(t, idx)

    got = illinois_array(counted, a, b, xtol)
    for i in range(a.size):
        want = brentq(scalar(i), a[i], b[i], xtol=xtol[i], rtol=4 * EPS)
        assert abs(got[i] - want) <= xtol[i] + 8 * EPS * abs(want), i
        assert abs(got[i] - r[i]) <= 0.5 * xtol[i] + 8 * EPS * abs(r[i]), i
        # each problem takes the steps it would take alone
        assert illinois_array(lambda t, idx: f(t, idx + i), a[i:i + 1], b[i:i + 1],
                              xtol[i:i + 1])[0] == got[i]
    # the first call holds both ends of every problem; problems then drop out
    # over many steps, fewer than bisection needs on the hardest of them
    assert sizes[0] == 2 * a.size
    assert len(set(sizes[1:])) > 10
    assert len(sizes) - 1 < np.log2((b - a) / xtol).max()


def test_steep_problems_fall_back_to_bisection():
    # f spans up to e^630 across a bracket, so halving the far end's f alone
    # would take hundreds of steps; the bisection fallback halves the bracket
    # at least once in every three steps
    a, b, r, xtol, f, scalar = _problems(11, 48, steepest=10 ** 2.8)
    sizes = []

    def counted(t, idx):
        sizes.append(idx.size)
        return f(t, idx)

    got = illinois_array(counted, a, b, xtol)
    for i in range(a.size):
        want = brentq(scalar(i), a[i], b[i], xtol=xtol[i], rtol=4 * EPS)
        assert abs(got[i] - want) <= xtol[i] + 8 * EPS * abs(want), i
    assert len(sizes) - 1 <= 3 * np.log2((b - a) / xtol).max()


def test_a_slope_of_exactly_zero_ends_the_search_there():
    calls = []

    def f(t, idx):
        calls.append(t.copy())
        return t - 0.25

    # the first secant root of this symmetric bracket is the root itself
    assert illinois_array(f, [-0.75], [1.25], 1e-12)[0] == 0.25
    assert len(calls) == 2
    # an end where the slope is 0 or of the wrong sign is returned unsearched
    calls.clear()
    got = illinois_array(f, [0.25, 0.5, -2.0], [1.0, 1.0, 0.0], 1e-12)
    assert got.tolist() == [0.25, 0.5, 0.0]
    assert len(calls) == 1


def test_a_bracket_finer_than_its_ulp_stops_at_adjacent_doubles():
    # at 1e20 one ulp is 16384, far above xtol = 1: the bracket cannot
    # narrow to xtol, so the search stops once no double lies inside it
    a = 1e20
    ulp = np.spacing(a)
    root = a + 3.5 * ulp

    def f(t, idx):
        return (t - a) - 3.5 * ulp

    calls = []

    def counted(t, idx):
        calls.append(t.copy())
        return f(t, idx)

    got = illinois_array(counted, [a], [a + 8 * ulp], 1.0)[0]
    assert got in (a + 3 * ulp, a + 4 * ulp)
    assert len(calls) < 12
    want = brentq(lambda t: (t - a) - 3.5 * ulp, a, a + 8 * ulp, xtol=1.0)
    assert abs(got - want) <= ulp and abs(got - root) <= ulp


def test_problems_still_live_at_the_cap_return_their_bracket_midpoint(monkeypatch):
    a, b, r, xtol, f, _ = _problems(12, 40)
    free = illinois_array(f, a, b, xtol)
    steps = []

    def counted(t, idx):
        steps.append(idx.copy())
        return f(t, idx)

    monkeypatch.setattr(_oracles, "_MAX_ITER", 8)
    capped = illinois_array(counted, a, b, xtol)
    assert len(steps) == 1 + 8
    live = steps[-1]
    assert 0 < live.size < a.size
    # a problem that ended within the cap is untouched by it; the others stop
    # at the midpoint of their last bracket, the one each reaches alone
    ended = np.setdiff1d(np.arange(a.size), live)
    assert np.array_equal(capped[ended], free[ended])
    assert np.count_nonzero(capped[live] != free[live]) > live.size // 2
    for i in live:
        assert a[i] < capped[i] < b[i]
        assert illinois_array(lambda t, idx: f(t, idx + i), a[i:i + 1], b[i:i + 1],
                              xtol[i:i + 1])[0] == capped[i]


def test_search_rejects_bad_brackets():
    with pytest.raises(ValueError, match="bracket"):
        illinois_array(lambda t, i: t, [0.0, 1.0], [1.0, 0.5], 1e-3)
    with pytest.raises(ValueError, match="bracket"):
        illinois_array(lambda t, i: t, [0.0], [math.inf], 1e-3)
    with pytest.raises(ValueError, match="xtol"):
        illinois_array(lambda t, i: t, [0.0], [1.0], 0.0)
