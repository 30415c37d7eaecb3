"""Golden-section search: the lockstep array form against the scalar oracle."""
import numpy as np
import pytest

from _oracles import golden_section
from qillum.optimize import _MAX_ITER, golden_section_array


def test_array_search_takes_each_problems_scalar_steps():
    # brackets, minimizers and tolerances differ per problem, so the problems
    # stop after different numbers of iterations; the results must be the
    # scalar search's to the bit
    rng = np.random.default_rng(11)
    a = rng.uniform(-5.0, 0.0, 40)
    b = a + 10 ** rng.uniform(-3.0, 3.0, 40)
    centre = a + rng.uniform(0.0, 1.0, 40) * (b - a)
    xtol = 10 ** rng.uniform(-12.0, -1.0, 40) * (b - a)
    xtol[:3] = 2.0 * (b[:3] - a[:3])  # already converged: no evaluation at all
    calls = []

    def f(t, idx):
        calls.append(len(idx))
        u = t - centre[idx]
        return u * u

    got = golden_section_array(f, a, b, xtol)
    for i in range(40):
        want = golden_section(lambda t: (t - centre[i]) * (t - centre[i]), a[i], b[i],
                              xtol=xtol[i])
        assert got[i] == want
    assert max(calls) == 2 * 37


def test_problems_still_live_at_max_iter_return_the_scalar_midpoint():
    # xtol = 1e-300 is below any bracket's last ulp, so problems 0-4 step
    # until _MAX_ITER while problems 5-9 finish early and leave the live set
    rng = np.random.default_rng(12)
    a = rng.uniform(-5.0, 0.0, 10)
    b = a + rng.uniform(1.0, 10.0, 10)
    centre = a + rng.uniform(0.0, 1.0, 10) * (b - a)
    xtol = np.concatenate((np.full(5, 1e-300), 1e-9 * (b[5:] - a[5:])))
    calls = []

    def f(t, idx):
        calls.append(idx.copy())
        u = t - centre[idx]
        return u * u

    got = golden_section_array(f, a, b, xtol)
    assert len(calls) == 1 + _MAX_ITER
    assert set(calls[-1]) == set(range(5))
    for i in range(10):
        want = golden_section(lambda t: (t - centre[i]) * (t - centre[i]), a[i], b[i],
                              xtol=xtol[i])
        assert got[i] == want


def test_array_search_rejects_bad_brackets():
    with pytest.raises(ValueError, match="bracket"):
        golden_section_array(lambda t, i: t, [0.0, 1.0], [1.0, 0.5], 1e-3)
    with pytest.raises(ValueError, match="xtol"):
        golden_section_array(lambda t, i: t, [0.0], [1.0], 0.0)
