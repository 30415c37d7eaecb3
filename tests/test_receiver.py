"""Receiver-chain statistics, error probabilities, and asymptotics."""
import argparse
import importlib.util
import math
import re
import shlex
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (ErrorProbabilities, _mp_model_entries, check_cs_hom_rows,
                      check_midpoint_optimum, check_receiver_stats, checked_compute_sweep,
                      checked_min_error, homodyne_errors, mp_log_erfc, pc_transform,
                      scalar_half_exp, snr_from_moments, ulp_error)

from qillum import _erfc
from qillum.cli import (RECEIVER_ORDER, ScenarioParams, SweepSpec, _build_parser,
                        _parse_m_values, _scenario_from, compute_sweep)
from qillum.receiver import (
    RECEIVERS,
    Scenario,
    ReceiverStats,
    asymptotic_snr,
    beamsplitter_moments,
    LN_HALF,
    _erfc_column,
    _erfc_columns,
    _exp_columns,
    _two_product,
    half_erfc,
    half_exp,
    homodyne_min_error,
    homodyne_rate,
    log_erfc,
    snr_pc,
    sweep_points,
)
from qillum.states import (
    ChannelParams,
    GaussianState,
    NoiseParams,
    SourceParams,
    c_quantum,
    conditional_states,
    make_source,
)
from qillum.symplectic import CovMatrix

REF_SRC = make_source(0.01, 0.01, "quantum")
REF_CH = ChannelParams(reflectivity=0.01, n_background=20.0)

SNR_QI_PC = 2.3575929806957360e-06
SNR_QI_CAL_PC = 2.3027656169736765e-06
SNR_QI_HET_PC = 1.1627852893770358e-06


PC_LABELS = tuple(label for label, rx in RECEIVERS.items() if rx.added_noise is not None)


def _pc_stats(sc: Scenario, label: str) -> ReceiverStats:
    """snr_pc at the scenario's noise plus what the PC receiver label adds, as its rate reads it."""
    added = RECEIVERS[label].added_noise
    return snr_pc(sc.src, sc.ch, NoiseParams(eps_return=sc.noise.eps_return + added.eps_return,
                                             eps_idler=sc.noise.eps_idler + added.eps_idler))


def _erfc_points(rate: float, ms) -> tuple[np.ndarray, np.ndarray]:
    """The (p, ln p) columns of p = (1/2)erfc(sqrt(m*rate)) over ms: _erfc_columns' one-rate case."""
    (p,), (log_p,) = _erfc_columns((rate,), ms)
    return p, log_p


def cs_hom_points(n_signal: float, ch: ChannelParams, ms) -> list[tuple[float, float]]:
    """(p_error, ln p_error) at each m of the CS+Hom row, qi sweep's route.

    The row is held to mpmath by check_cs_hom_rows, which raises AssertionError.
    """
    (rate,), (p,), (log_p,) = sweep_points([RECEIVERS["CS+Hom"]],
                                           Scenario(SourceParams(n_signal, 0.0), ch), ms)
    check_cs_hom_rows(n_signal, ch, ms, rate, p, log_p)
    return list(zip(p.tolist(), log_p.tolist()))


def _threshold_sweep_scenarios(monkeypatch, seed: int) -> tuple[list, tuple]:
    """The Scenarios of perfbench's threshold_sweep at seed, as its workload draws them, and its M."""
    root = Path(__file__).resolve().parents[1] / "perfbench"

    def load(name, alias):
        spec = importlib.util.spec_from_file_location(alias, root / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    # workloads.py imports its sibling receivers.py by that name
    monkeypatch.setitem(sys.modules, "receivers", load("receivers", "receivers"))
    workloads = load("workloads", "perfbench_workloads")
    scenarios = [Scenario(*params.resolve())
                 for params in workloads.draw_scenarios(seed, "threshold_sweep",
                                                        workloads.THRESHOLD_SCENARIOS)]
    return scenarios, workloads.THRESHOLD_M


def _rejected(n_signal: float, ch: ChannelParams, ms, rate: float, p, log_p) -> set:
    """The pulse counts that check_cs_hom_rows names, as strings."""
    try:
        check_cs_hom_rows(n_signal, ch, ms, rate, p, log_p)
    except AssertionError as failure:
        return set(re.findall(r"M=(\d+) \(", str(failure)))
    return set()


class TestErfc:
    def test_basic_values(self):
        assert half_erfc(0.0) == 0.5
        assert half_erfc(1.0) == pytest.approx(0.5 * 0.15729920705028513, rel=1e-14)

    def test_reflection_identity(self):
        for x in [0.1, 0.7, 2.3, 5.0]:
            assert half_erfc(-x) == pytest.approx(1.0 - half_erfc(x), rel=1e-14)

    def test_against_high_precision_reference(self):
        mpmath.mp.dps = 40
        for x in np.linspace(-6.0, 30.0, 61):
            ref = float(mpmath.erfc(mpmath.mpf(float(x))) / 2)
            assert half_erfc(float(x)) == pytest.approx(ref, rel=1e-12)

    def test_log_variant_deep_tail(self):
        mpmath.mp.dps = 60
        for x in [0.0, 0.5, 1.0, 5.0, 8.0, 12.0, 26.5, 50.0, 120.0, -3.0]:
            ref = float(mpmath.log(mpmath.erfc(mpmath.mpf(x))))
            assert log_erfc(x) == pytest.approx(ref, rel=1e-13)
            assert type(log_erfc(x)) is float

    def test_log_erfc_within_two_ulps_of_mpmath(self):
        # Small x is where ln 2 + log_ndtr(-sqrt(2) x) used to cancel (about
        # 20 000 ulps near 2.5e-5). The two doubles either side of erfc = 1/2
        # straddled the C library route's switch from log1p(-erf) to
        # log(erfc), and 26 its switch to the asymptotic series. The table
        # kernel holds every x to one ulp, and so does this test.
        xs = np.concatenate([
            np.linspace(-5.0, 30.0, 1401),
            np.geomspace(1e-12, 1e-3, 91),
            np.geomspace(26.0, 1e4, 301),
            [2.5e-5, 0.4769362762044699, 0.47693627620446993,
             np.nextafter(26.0, 0.0)],
        ])
        with mpmath.workdps(50):
            for x in xs:
                x = float(x)
                exact = mpmath.log(mpmath.erfc(mpmath.mpf(x)))
                assert ulp_error(log_erfc(x), exact) <= 1.0, x

    def test_half_erfc_carries_only_the_erfc_error(self):
        # half_erfc is the kernel's p = erfc(x)/2, exponentiated from ln p as
        # a double-double and rounded once, so it is within an ulp. It used
        # to scale glibc 2.36's erfc, which exceeds 2 ulps at about 1 point in
        # 1600 on [0, 26] and reaches 3.3 ulps at x = 1.23745313574309, which
        # the grid includes. Forming p as exp of ln p rounded to a double
        # costs up to |ln p| ulps: hundreds at x ~ 10.
        xs = np.concatenate([
            np.linspace(-5.0, 26.0, 1241),
            np.geomspace(1e-12, 1e-3, 46),
            [1.23745313574309],
        ])
        with mpmath.workdps(50):
            for x in xs:
                x = float(x)
                exact = mpmath.erfc(mpmath.mpf(x)) / 2
                assert ulp_error(half_erfc(x), exact) <= 1.0, x

    # ln erfc on [0, 2e4], where the CS+Hom rows' x = sqrt(M*rate) reach
    # sqrt(1e10*1e-2) = 1e4 and the midpoint u = x takes w = 2u up to 2e4
    NONNEG = np.concatenate([
        [0.0, 1e-300, 2.5e-5, 0.4769362762044699, 0.47693627620446993,
         np.nextafter(26.0, 0.0), 26.0, 2e4],
        np.geomspace(1e-12, 1e-3, 91),
        np.linspace(0.0, 30.0, 3001),
        np.geomspace(26.0, 2e4, 301),
    ])

    def test_log_erfc_nonneg_within_1e_13_of_mpmath_and_log_erfc(self):
        # the kernel's ln erfc and ln p = ln(erfc/2) within 1 ulp of mpmath on
        # the grid above, a bound far inside the 1e-13 relative of this name
        (e, log_e), (p, log_p) = _erfc_column(self.NONNEG), _erfc_column(self.NONNEG, half=True)
        assert np.array_equal(_bits(log_e), _bits([log_erfc(x) for x in self.NONNEG.tolist()]))
        with mpmath.workprec(80):
            for x, log_e_x, log_p_x, p_x in zip(self.NONNEG.tolist(), log_e.tolist(),
                                                log_p.tolist(), p.tolist()):
                exact = mp_log_erfc(x)
                assert ulp_error(log_e_x, exact) <= 1.0, x
                assert ulp_error(log_p_x, exact - mpmath.ln2) <= 1.0, x
                assert ulp_error(p_x, mpmath.exp(exact) / 2) <= 1.0, x

    def test_log_erfc_slope_within_1e_13_of_mpmath(self):
        # the slope of the equal-prior homodyne error (erfc(tau) + erfc(w - tau))/4
        # in the threshold tau, (2/sqrt(pi))(exp(-(w - tau)^2) - exp(-tau^2))/4,
        # is negative below w/2 and positive above it, so w/2 is the minimizer:
        # in mpmath at tau = w/2 -+ w*10^-k, k = 1..6, with w = 2u for each u > 0
        # of the grid above. exp(-tau^2) and exp(-(w - tau)^2) differ by a
        # relative 2 w^2 10^-k there, so the working precision follows w^2
        for u in self.NONNEG[self.NONNEG > 0.0].tolist():
            digits = 20 + max(0, math.ceil(6.0 - math.log10(8.0) - 2.0 * math.log10(u)))
            with mpmath.workdps(digits):
                w = 2 * mpmath.mpf(u)
                for k in range(1, 7):
                    for tau, sign in ((w / 2 - w / 10 ** k, -1), (w / 2 + w / 10 ** k, 1)):
                        slope = mpmath.exp(-(w - tau) ** 2) - mpmath.exp(-tau ** 2)
                        assert mpmath.sign(slope) == sign, (u, k)

    def test_committed_log_erfc_fit_is_the_scripts(self):
        # the kernel's ln erfc within 1 ulp of mpmath at x = 2(1 - t)/t for the
        # 260 Chebyshev nodes t = (1 + cos(pi (j + 1/2)/260))/2 on (0, 1), a
        # grid from 9e-6 to 4.3e5 dense at both ends
        t = (1.0 + np.cos(np.pi * (np.arange(260) + 0.5) / 260)) / 2.0
        xs = 2.0 * (1.0 - t) / t
        _, log_e = _erfc_column(xs)
        with mpmath.workprec(80):
            for x, log_e_x in zip(xs.tolist(), log_e.tolist()):
                assert ulp_error(log_e_x, mp_log_erfc(x)) <= 1.0, x

    def test_committed_erfc_tables_are_the_scripts(self):
        # reruns scripts/erfc_tables.py's mpmath expansions (under a second)
        path = Path(__file__).resolve().parents[1] / "scripts" / "erfc_tables.py"
        spec = importlib.util.spec_from_file_location("erfc_tables", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        committed = np.frombuffer(_erfc._TABLES, dtype="<f8")
        assert np.array_equal(_bits(script.tables()), _bits(committed))
        # the script writes the block that the module holds
        assert script.block(committed) in Path(_erfc.__file__).read_text(encoding="utf-8")
        # the kernel's layout is the script's: its index puts each centre in its
        # own interval, but for 32, where the octave-wide intervals take over
        centres = np.array(script.centres())
        index = np.arange(centres.size)
        assert np.array_equal(_erfc._index(centres)[centres != 32.0], index[centres != 32.0])
        assert _erfc._index(np.array([np.nextafter(32.0, 0.0)]))[0] == index[centres == 32.0]

    def test_exp_reduction_constants_split_ln2_over_512(self):
        # the high part has 33 significant bits, so k times it is exact for |k| < 2**20
        hi, lo = _erfc._LN2_512_HI, _erfc._LN2_512_LO
        assert math.frexp(hi)[0] * 2 ** 33 == int(math.frexp(hi)[0] * 2 ** 33)
        with mpmath.workdps(50):
            exact = mpmath.log(2) / 512
            assert abs(mpmath.mpf(hi) + mpmath.mpf(lo) - exact) <= math.ulp(lo)
            assert _erfc._INV_LN2_512 == float(1 / exact)
            assert _erfc._LN_2_SQRT_PI == float(mpmath.log(2 * mpmath.sqrt(mpmath.pi)))
            assert _erfc._LN2_HI + _erfc._LN2_LO == _erfc._LN2_HI
            assert _erfc._LN2_HI == float(mpmath.log(2))
            assert _erfc._LN2_LO == float(mpmath.log(2) - mpmath.mpf(_erfc._LN2_HI))

    def test_half_exp_within_two_ulps_of_mpmath(self):
        # exp(ln(1/2) - m*rate) was up to 43 ulps off on the golden bound rows
        rng = np.random.default_rng(5)
        with mpmath.workdps(50):
            for m, rate in zip(np.geomspace(1, 1e10, 200).round(), 10 ** rng.uniform(-12, 0, 200)):
                exact = mpmath.exp(-int(m) * mpmath.mpf(float(rate))) / 2
                if exact > 1e-300:
                    assert ulp_error(half_exp(int(m), float(rate)), exact) <= 2.0, (m, rate)

    def test_half_erfc_representable_at_exponent_700(self):
        p = half_erfc(math.sqrt(700.0))
        assert p > 0.0
        assert math.log(p) == pytest.approx(math.log(0.5) + log_erfc(math.sqrt(700.0)), rel=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            half_erfc(math.nan)
        with pytest.raises(ValueError):
            log_erfc(math.inf)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _refuse_c_library(monkeypatch) -> None:
    """Until monkeypatch.undo(), the C library's and numpy's transcendental functions raise.

    They are the C library's erfc, erf, log, log1p and exp, and numpy's exp,
    log, log1p and expm1, whose bits follow its SIMD code.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for module, names in ((math, ("erfc", "erf", "log", "log1p", "exp")),
                          (np, ("exp", "log", "log1p", "expm1"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)


def _neighbours(x: float, n: int = 3) -> list:
    """x and the n doubles on either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def _half_log(x: float) -> float:
    """ln(erfc(x)/2) from the one-element column with half."""
    return _erfc_column(np.array([x], dtype=float), half=True)[1].item()


class TestErfcColumn:
    """receiver._erfc_column against mpmath and against its one-element cases."""

    # the doubles either side of erfc = 1/2; of the kernel's interval about 0
    # (+-1/16), of its switch to octave-wide intervals (32) and of its route
    # past 2**31; where p = erfc/2 leaves the normal range (26.54) and where
    # it reaches zero (27.23); where x*x overflows (1.34e154)
    EDGES = (_neighbours(0.4769362762044699) + _neighbours(0.0625) + _neighbours(-0.0625)
             + _neighbours(26.0) + _neighbours(26.543258454250978)
             + _neighbours(27.226364135742184) + _neighbours(32.0) + _neighbours(2.0 ** 31)
             + _neighbours(math.sqrt(sys.float_info.max))
             + [0.0, -0.0, 5e-324, -5e-324, 1e-300, -6.0, -6.5, -7.0, 40.0, 1e155,
                sys.float_info.max])

    def test_kernel_equals_the_scalar_route_bit_for_bit(self):
        # log_erfc and half_erfc, one-element columns, give the bits that a
        # long column gives at the same x, whatever else the column holds: a
        # column within the tables skips the finiteness test and the clip that
        # one with x < -6.5 or x >= 2**31 takes
        rng = np.random.default_rng(17)
        xs = np.concatenate([self.EDGES, rng.uniform(-6.0, 40.0, 100_000),
                             10 ** rng.uniform(-12, 154, 5000)])
        columns = _erfc_column(xs) + _erfc_column(xs, half=True)
        for part in (xs >= 0.0, (xs >= -6.5) & (xs < 2.0 ** 31)):
            for column, whole in zip(_erfc_column(xs[part]) + _erfc_column(xs[part], half=True),
                                     columns):
                assert np.array_equal(_bits(column), _bits(whole[part]))
        # one-element calls cost ~0.1 ms: the edges and 3000 random x
        few = slice(len(self.EDGES) + 3000)
        singles = [_erfc_column(np.array([x])) + _erfc_column(np.array([x]), half=True)
                   for x in xs[few].tolist()]
        for column, single in zip(columns, zip(*singles)):
            assert np.array_equal(_bits(column[few]), _bits(np.concatenate(single)))
        assert np.array_equal(_bits(columns[1][few]), _bits([log_erfc(x) for x in xs[few]]))
        assert np.array_equal(_bits(columns[2][few]), _bits([half_erfc(x) for x in xs[few]]))

    def test_each_route_and_edge_alone(self):
        # one-element columns take each route on its own; log_erfc is that case
        with mpmath.workdps(50):
            for x in self.EDGES:
                (e,), (log_e,) = _erfc_column(np.array([x]))
                (p,), (log_p,) = _erfc_column(np.array([x]), half=True)
                if math.isinf(x * x):
                    assert log_e == log_p == -math.inf and e == p == 0.0, x
                    continue
                exact = mp_log_erfc(x)
                assert ulp_error(log_e, exact) <= 1.0, x
                assert ulp_error(e, mpmath.exp(exact)) <= 1.0, x
                assert ulp_error(p, mpmath.exp(exact) / 2) <= 1.0, x
                if x >= 0.0:
                    assert ulp_error(log_p, exact - mpmath.log(2)) <= 1.0, x
                assert _bits(log_e) == _bits(log_erfc(x)), x
                assert _bits(p) == _bits(half_erfc(x)), x
                assert type(log_erfc(x)) is type(half_erfc(x)) is float
        assert log_erfc(1e155) == -math.inf
        assert log_erfc(-0.0) == 0.0 and log_erfc(26.0) < -675.0

    def test_tail_is_finite_wherever_x_squared_is(self):
        # from 1.3407807830046643e154, 2**26 doubles below sqrt(max double),
        # Veltkamp's split of x rounded up to 2**512, whose square overflows,
        # and ln erfc(x) read -inf although x*x is finite up to sqrt(max double)
        root_max = math.sqrt(sys.float_info.max)
        rng = np.random.default_rng(19)
        xs = [x for x in _neighbours(1.3407807830046643e154) + _neighbours(root_max)
              if x <= root_max]
        xs += (root_max * (1.0 - 2.0 ** -rng.uniform(20.0, 52.0, 200))).tolist()
        with mpmath.workdps(50):
            for x in xs:
                exact = mpmath.log(mpmath.erfc(mpmath.mpf(x)))
                assert ulp_error(log_erfc(x), exact) <= 1.0, x

    def test_scaled_square_keeps_the_bits_below_that_band(self):
        # the tail squares x/4 and scales back by 16: both steps are exact, so
        # wherever the product of x itself was, hi and lo keep their bits
        rng = np.random.default_rng(21)
        x = np.concatenate((10 ** rng.uniform(math.log10(26.0), 154.1273, 20_000),
                            _neighbours(26.0), _neighbours(1.3407807830046641e154)))
        x = x[(x >= 26.0) & (x < 1.3407807830046643e154)]
        scaled = [16.0 * v for v in _two_product(0.25 * x, 0.25 * x)]
        for new, old in zip(scaled, _two_product(x, x)):
            assert np.array_equal(_bits(new), _bits(old))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_raises_the_same_error(self, bad):
        for call in (lambda: log_erfc(bad), lambda: _erfc_column(np.array([1.0, bad, 2.0]))):
            with pytest.raises(ValueError) as new:
                call()
            assert str(new.value) == f"erfc argument must be finite, got {bad}"

    def test_points_equal_the_per_row_route(self):
        # x = sqrt(m*rate) in numpy is the per-row math.sqrt(m * rate) of
        # Python's int*float, for m up to 1e308 and rates across the routes,
        # and each row is the one-element column's (p, ln p) at that x
        rng = np.random.default_rng(23)
        ms = sorted({int(m) for m in 10 ** rng.uniform(0, 308, 400)} | {1, 2 ** 53 + 1, 2 ** 64 + 1})
        for rate in (0.0, 1e-300, 2.3e-6, 0.37, 5e3, *10 ** rng.uniform(-320, -250, 5)):
            grid = [m for m in ms if math.isfinite(m * rate)]
            xs = [math.sqrt(m * rate) for m in grid]
            p, log_p = _erfc_points(rate, grid)
            assert p.dtype == log_p.dtype == np.float64
            assert np.array_equal(_bits(p), _bits([half_erfc(x) for x in xs]))
            assert np.array_equal(_bits(log_p), _bits([_half_log(x) for x in xs]))


class TestErfcAgainstMpmath:
    """The threshold rows' kernel within one ulp of mpmath: p = erfc(x)/2 and ln p."""

    # glibc 2.36's erfc was 4.126 ulps off at the first and 3.29 at the second;
    # the first is perfbench's seed-7331 scenario 8 QI+Cal+PC row at M = 305457
    GLIBC_WORST = (1.2289530360031107, 1.23745313574309)

    @staticmethod
    def worst(xs, half: bool = True) -> tuple[float, float]:
        """The largest ulp errors of the column's two values over xs, at 80 bits."""
        v, log_v = _erfc_column(np.asarray(xs, dtype=float), half=half)
        worst_v = worst_log = 0.0
        with mpmath.workprec(80):
            for x, v_x, log_v_x in zip(np.asarray(xs, dtype=float).tolist(), v.tolist(),
                                       log_v.tolist()):
                exact = mpmath.erfc(mpmath.mpf(x)) / (2 if half else 1)
                worst_v = max(worst_v, ulp_error(v_x, exact))
                worst_log = max(worst_log, ulp_error(log_v_x, mpmath.log(exact)))
        return worst_v, worst_log

    def test_p_and_ln_p_within_one_ulp_at_random_x(self):
        # 2e5 x uniform on [0, 27]: through p's subnormal range from 26.54 to
        # its underflow at 27.23; about 20 s
        xs = np.random.default_rng(41).uniform(0.0, 27.0, 200_000)
        worst_p, worst_log_p = self.worst(xs)
        assert worst_p <= 1.0 and worst_log_p <= 1.0, (worst_p, worst_log_p)

    def test_erfc_and_ln_erfc_within_one_ulp_at_random_x(self):
        # without half: on [-6, 0], where erfc is 1 to 2, and on [0, 27]
        rng = np.random.default_rng(43)
        for xs in (rng.uniform(-6.0, 0.0, 10_000), rng.uniform(0.0, 27.0, 10_000)):
            worst_e, worst_log_e = self.worst(xs, half=False)
            assert worst_e <= 1.0 and worst_log_e <= 1.0, (worst_e, worst_log_e)

    def test_p_within_one_ulp_below_zero(self):
        # p = 1 - erfc(-x)/2 is 1/2 to 1 there; ln p is held only absolutely
        xs = np.random.default_rng(47).uniform(-6.0, 0.0, 10_000)
        p, log_p = _erfc_column(xs, half=True)
        with mpmath.workprec(80):
            for x, p_x, log_p_x in zip(xs.tolist(), p.tolist(), log_p.tolist()):
                exact = mpmath.erfc(mpmath.mpf(x)) / 2
                assert ulp_error(p_x, exact) <= 1.0, x
                assert abs(log_p_x - mpmath.log(exact)) <= 1e-16, x

    def test_ln_p_within_one_ulp_at_log_spaced_x_past_the_tables(self):
        # 27 to 1e154, where p is 0: the octave-wide intervals up to 2**31,
        # then -x^2 - ln x - ln(2 sqrt(pi)) with x^2 exact
        xs = np.geomspace(27.0, 1e154, 5000)
        _, log_p = _erfc_column(xs, half=True)
        with mpmath.workdps(50):
            for x, log_p_x in zip(xs.tolist(), log_p.tolist()):
                assert ulp_error(log_p_x, mp_log_erfc(x) - mpmath.log(2)) <= 1.0, x

    def test_glibcs_worst_points(self):
        with mpmath.workdps(50):
            for x in self.GLIBC_WORST:
                exact = mpmath.erfc(mpmath.mpf(x)) / 2
                p, log_p = half_erfc(x), _half_log(x)
                assert ulp_error(p, exact) <= 1.0 and ulp_error(log_p, mpmath.log(exact)) <= 1.0
                assert ulp_error(2.0 * p, 2 * exact) <= 1.0
                assert ulp_error(log_erfc(x), mpmath.log(2 * exact)) <= 1.0

    def test_seed_7331_row_that_perfbench_failed(self):
        # perfbench's threshold_sweep at seed 7331, scenario 8: its QI+Cal+PC
        # row at M = 305457 read 4.13 ulps off when p came from glibc's erfc
        scenario = ScenarioParams(ns=0.015857495880127116, ni=0.364137933035147,
                                  c=0.26476625887100186, kappa=0.0035086226366770183,
                                  nb=1.5977480139586526, eps_r=1.0, eps_i=0.0)
        result = compute_sweep(SweepSpec(scenario, (305457,), ("QI+Cal+PC",)))
        (rate,), ((p,),), ((exponent,),) = result.per_mode_rate, result.p_error, result.exponent
        x = math.sqrt(305457 * rate)
        assert x == self.GLIBC_WORST[0]
        with mpmath.workdps(50):
            exact = mpmath.erfc(mpmath.mpf(x)) / 2
            assert ulp_error(p, exact) <= 1.0
            assert ulp_error(exponent, -mpmath.log(exact)) <= 1.0

    def test_threshold_rows_call_no_c_library_function(self, monkeypatch):
        # the kernel uses IEEE arithmetic, exact scaling and table gathers only:
        # neither the C library's erfc, erf, log and log1p nor numpy's exp,
        # log and log1p, whose bits follow its SIMD code
        rates = (0.0, 2.3e-6, 0.43, 50.0, 1e300)
        ms = [1, 10, 1000, 10 ** 6, int(1e300), int(sys.float_info.max)]
        want = _erfc_columns(rates, ms)
        _refuse_c_library(monkeypatch)
        got = _erfc_columns(rates, ms) + (half_erfc(-3.0), log_erfc(-3.0), log_erfc(1e-9))
        monkeypatch.undo()
        for column, want_column in zip(got, want):
            assert np.array_equal(_bits(column), _bits(want_column))
        assert got[2:] == (half_erfc(-3.0), log_erfc(-3.0), log_erfc(1e-9))

    def test_threshold_sweep_rows_call_no_c_library_function(self, monkeypatch):
        # the whole route of the threshold rows, not only their kernel:
        # sweep_points over the four threshold receivers, and homodyne_min_error,
        # the CS+Hom row's one-m case. A check of the CS+Hom row once ran at
        # run time on numpy's log1p, so these called the C library
        receivers = [RECEIVERS[label] for label in ("QI+PC", "QI+Cal+PC", "QI+Het+PC", "CS+Hom")]
        scenarios = [Scenario(REF_SRC, REF_CH),
                     Scenario(make_source(0.5, 0.5, "quantum"), ChannelParams(0.3, 0.2),
                              NoiseParams(1.0, 0.0)),
                     Scenario(SourceParams(8.0, 0.0), ChannelParams(1.0, 0.0))]
        ms = [1, 10, 1000, 10 ** 6, 10 ** 12, int(1e300), int(sys.float_info.max)]

        def rows():
            sweeps = [sweep_points(receivers, sc, ms) for sc in scenarios]
            optima = [homodyne_min_error(n_signal, ch, m)
                      for n_signal, ch in ((0.01, REF_CH), (8.0, ChannelParams(1.0, 0.0)))
                      for m in (10, 10 ** 6, int(1e308))]
            return sweeps, [(opt.p_error, opt.threshold, opt.log_p_error) for opt in optima]

        want = rows()
        _refuse_c_library(monkeypatch)
        got = rows()
        monkeypatch.undo()
        for got_sweep, want_sweep in zip(got[0], want[0]):
            for column, want_column in zip(got_sweep, want_sweep):
                assert np.array_equal(_bits(column), _bits(want_column))
        assert np.array_equal(_bits(got[1]), _bits(want[1]))


class TestHugePulseCounts:
    """Rows at M up to 1.8e308, against mpmath."""

    def test_half_exp_within_two_ulps_of_mpmath_at_any_m(self):
        # Veltkamp's split of m overflowed past ~1.3e300, and p was nan
        rng = np.random.default_rng(29)
        ms = [int(m) for m in 10 ** rng.uniform(290, 308, 200)]
        ms += [int(sys.float_info.max), 2 ** 1023, int(1e300), int(1e301)]
        with mpmath.workdps(50):
            for m in ms:
                for target in (1e-3, 0.7, 30.0, 700.0):
                    rate = target / m
                    exact = mpmath.exp(-mpmath.mpf(float(m)) * mpmath.mpf(rate)) / 2
                    assert ulp_error(half_exp(m, rate), exact) <= 2.0, (m, rate)

    def test_half_exp_bytes_unchanged_below_1e300(self):
        def unscaled(m, rate):
            hi, lo = _two_product(float(m), rate)
            p = 0.5 * math.exp(-hi)
            return p - p * lo

        rng = np.random.default_rng(31)
        for m, rate in zip(10 ** rng.uniform(0, 300, 2000), 10 ** rng.uniform(-300, 3, 2000)):
            m = min(int(m), int(1e300))
            assert _bits(half_exp(m, rate)) == _bits(unscaled(m, rate)), (m, rate)

    def test_half_exp_underflows_to_zero_not_nan(self):
        assert half_exp(int(1e308), 1e10) == 0.0
        assert half_exp(int(1e301), 1.0) == 0.0
        # m*rate itself overflows, with and without the scaled split
        assert half_exp(int(1e308), 1e30) == 0.0
        assert half_exp(10 ** 200, 1e200) == 0.0

    def test_homodyne_self_check_holds_at_the_largest_m(self):
        # the row up to m*(2 N_B + 1) past 1.8e308, held to mpmath (in
        # cs_hom_points) and to the midpoint optimum at each w = 2x
        ch = ChannelParams(0.01, 20.0)
        ms = [int(1e305), int(1e307), int(1e308), int(sys.float_info.max)]
        rate = homodyne_rate(1.0, ch)
        for m, (p, log_p) in zip(ms, cs_hom_points(1.0, ch, ms)):
            x = math.sqrt(m * rate)
            check_midpoint_optimum(2.0 * x)
            assert p == 0.0 and -x * x >= log_p > -math.inf, m

    def test_self_check_reads_the_closed_form_at_the_largest_m(self):
        # the mpmath check reads the ln p column it is given, not its own
        ch = ChannelParams(0.3, 0.2)
        ms = [int(1e300), int(1e308)]
        rate = homodyne_rate(0.5, ch)
        p, log_p = _erfc_points(rate, ms)
        check_cs_hom_rows(0.5, ch, ms, rate, p, log_p)
        doctored = log_p[0] * (1 + 1e-11)
        with pytest.raises(AssertionError, match=rf"at M={ms[0]} \(") as bad:
            check_cs_hom_rows(0.5, ch, ms, rate, p, [doctored, log_p[1]])
        assert f"M={ms[1]}" not in str(bad.value)
        # the values print as plain floats, not as numpy 2's np.float64(...)
        found = re.search(rf"M={ms[0]} \(x (\S+): p (\S+), log p (\S+)\)$", str(bad.value))
        assert "np.float64" not in str(bad.value)
        assert float(found[3]) == doctored
        assert float(found[1]) == math.sqrt(rate * float(ms[0]))

    def test_threshold_rows_where_m_rate_overflows_are_zero_and_minus_inf(self):
        # x = sqrt(m*rate) was inf there, and _erfc_column raised "erfc argument
        # must be finite, got inf", which named no flag; every other row is
        # the one-element column's at its x
        rates = (2.3e-6, 0.43, 50.0, 1e300)
        ms = [10, int(1e300), int(1e307), int(1e308), int(sys.float_info.max)]
        overflowed = 0
        for rate, p, log_p in zip(rates, *_erfc_columns(rates, ms)):
            for m, p_m, log_p_m in zip(ms, p, log_p):
                if math.isinf(m * rate):
                    overflowed += 1
                    assert (p_m, log_p_m) == (0.0, -math.inf)
                else:
                    x = math.sqrt(m * rate)
                    assert _bits(p_m) == _bits(half_erfc(x)), (rate, m)
                    assert _bits(log_p_m) == _bits(_half_log(x)), (rate, m)
        assert overflowed == 7

    def test_self_check_accepts_minus_inf_where_x_squared_overflows(self):
        # at N_S = 8, kappa = 1, N_B = 0 the rate is 4: at m = (x/2)^2 the row's
        # x = sqrt(4 m) is x to a few ulps. Where x*x overflows the row is
        # p = 0 and ln p = -inf, and the mpmath check (in cs_hom_points) asks
        # for just that; below it ln p is finite, down to -max double, and
        # within 1 ulp of mpmath. The row's ln erfc was -inf from 2**26
        # doubles below sqrt(max double) (Veltkamp's split of x rounded up to
        # 2**512, whose square overflows); x = sqrt(max double)*(1 - 2**-28)
        # is the middle of that band
        root_max = math.sqrt(sys.float_info.max)
        xs = sorted(_neighbours(root_max) + _neighbours(1.3407807830046643e154)
                    + [root_max * (1.0 - 2.0 ** -28)])
        overflows = [math.isinf(x * x) for x in xs]
        assert overflows == [False] * 12 + [True] * 3
        ms = [int((0.5 * x) ** 2) for x in xs]
        for x, over, (p, log_p) in zip(xs, overflows,
                                       cs_hom_points(8.0, ChannelParams(1.0, 0.0), ms)):
            assert p == 0.0
            if over:
                assert log_p == LN_HALF + log_erfc(x) == -math.inf, x
            else:
                assert -sys.float_info.max <= log_p <= -0.99 * x * x, x


class TestSweepKernel:
    """sweep_points and _exp_columns against the one-receiver and one-m routes, bit for bit."""

    def test_exp_points_and_half_exp_equal_the_scalar_route(self):
        # 1e5 (m, rate): m up to 1.8e308 (the scaled split past 1e300) and
        # integers past 2**53, rates from subnormal to 1e3 and 0, so that p
        # runs from 1/2 through underflow to 0 and m*rate overflows
        rng = np.random.default_rng(37)
        rates = [0.0, 5e-324, 1e10, *(10 ** rng.uniform(-320, 3, 997)).tolist()]
        edges = [1, 2 ** 53 + 1, 2 ** 64 + 1, int(1e300), int(1e300) + 1, int(1e301),
                 int(sys.float_info.max)]
        for rate in rates:
            ms = edges + [int(m) for m in 10 ** rng.uniform(0, 308.25, 86)]
            ms += [2 ** 53 + int(k) for k in rng.integers(1, 2 ** 62, 7)]
            want = [scalar_half_exp(m, rate) for m in ms]
            (p,), (log_p,) = _exp_columns((rate,), ms)
            assert np.array_equal(_bits(p), _bits(want)), rate
            assert np.array_equal(_bits([half_exp(m, rate) for m in ms]), _bits(want)), rate
            assert np.array_equal(_bits(log_p), _bits([LN_HALF - m * rate for m in ms])), rate
            assert p.dtype == log_p.dtype == np.float64
            assert type(half_exp(ms[0], rate)) is float

    @pytest.mark.parametrize("scenario, m_log", [
        (ScenarioParams(), "1e5,1e8,13"),
        (ScenarioParams(ns=0.5, kappa=0.3, nb=20.0), "1,1e308,600"),
    ], ids=["golden", "huge"])
    def test_one_erfc_column_call_gives_each_receivers_columns(self, monkeypatch, scenario,
                                                               m_log):
        ms = _parse_m_values(argparse.Namespace(m=None, m_log=m_log))
        sc = Scenario(*scenario.resolve())
        receivers = list(RECEIVERS.values())
        real = _erfc_column
        calls = []

        def counting(x, half=False):
            calls.append((x.size, half))
            return real(x, half)

        monkeypatch.setattr("qillum.receiver._erfc_column", counting)
        points = sweep_points(receivers, sc, ms)
        n_threshold = sum(rx.bound is None for rx in receivers)
        assert calls == [(n_threshold * len(ms), True)]
        for rx, rate, p, log_p in zip(receivers, *points):
            want_rate = rx.rate(sc) if rx.bound is None else rx.bound(sc, 0.5).exponent
            assert _bits(rate) == _bits(want_rate)
            if rx.bound is None:
                want_p, want_log_p = _erfc_points(rate, ms)
            else:
                want_p = [scalar_half_exp(m, rate) for m in ms]
                want_log_p = [LN_HALF - m * rate for m in ms]
            assert np.array_equal(_bits(p), _bits(want_p)), rx.label
            assert np.array_equal(_bits(log_p), _bits(want_log_p)), rx.label
        i = list(RECEIVERS).index("CS+Hom")
        check_cs_hom_rows(sc.src.n_signal, sc.ch, ms, points[0][i], points[1][i], points[2][i])
        # one _erfc_points call per threshold receiver
        assert len(calls) == 1 + n_threshold


class TestPcTransform:
    def test_vacuum_return_gains_one_unit(self):
        vac = GaussianState(np.zeros(4), CovMatrix(0.5 * np.eye(4)))
        out0, out1 = pc_transform((vac, vac))
        assert np.allclose(out0.cov.entries, np.diag([1.0, 1.0, 0.5, 0.5]))
        assert np.allclose(out1.cov.entries, np.diag([1.0, 1.0, 0.5, 0.5]))

    def test_reference_h1_return_block(self):
        pair = conditional_states(REF_SRC, REF_CH)
        _, out1 = pc_transform(pair)
        v = out1.cov.entries
        assert v[0, 0] == pytest.approx((41.0002 + 1.0) / 2.0, rel=1e-15)
        assert v[1, 1] == pytest.approx(21.0001, rel=1e-15)
        # cross block loses its diag(1,-1) structure: both entries positive
        cross = 0.5 * 0.1 * 0.20099751242241781
        assert v[0, 2] == pytest.approx(cross, rel=1e-14)
        assert v[1, 3] == pytest.approx(cross, rel=1e-14)
        assert v[0, 3] == 0.0 and v[1, 2] == 0.0

    def test_zero_reflectivity_makes_outputs_equal(self):
        pair = conditional_states(REF_SRC, ChannelParams(0.0, 20.0))
        out0, out1 = pc_transform(pair)
        assert np.allclose(out0.cov.entries, out1.cov.entries, atol=0)

    def test_mean_p_component_flips(self):
        state = GaussianState(np.array([0.3, 0.4, -0.2, 0.1]), CovMatrix(0.5 * np.eye(4)))
        out, _ = pc_transform((state, state))
        assert np.allclose(out.mean, [0.3, -0.4, -0.2, 0.1])

    def test_wrong_mode_count_rejected(self):
        one_mode = GaussianState(np.zeros(2), CovMatrix(0.5 * np.eye(2)))
        with pytest.raises(ValueError, match="two-mode"):
            pc_transform((one_mode, one_mode))


class TestBeamsplitterMoments:
    def test_no_target_symmetric_outputs(self):
        src = make_source(0.3, 0.3, "quantum")
        ch = ChannelParams(0.0, 5.0)
        m = beamsplitter_moments(src, ch)
        expected = (ch.omega + 1.0 + src.mu) / 4.0
        assert m.beta_plus == pytest.approx(expected, rel=1e-15)
        assert m.beta_minus == pytest.approx(expected, rel=1e-15)

    def test_reference_values(self):
        m = beamsplitter_moments(REF_SRC, REF_CH)
        assert m.gamma_star == pytest.approx((41.0002 + 1.0 - 1.02) / 4.0, rel=1e-14)
        assert m.gamma_star == pytest.approx(10.24505, rel=1e-10)
        assert m.beta_plus - m.beta_minus == pytest.approx(0.020099751242241781, rel=1e-12)
        assert m.alpha_plus == pytest.approx((41.0 + 1.0 + 1.02) / 4.0, rel=1e-15)
        assert m.alpha_minus == pytest.approx((41.0 + 1.0 - 1.02) / 4.0, rel=1e-15)

    def test_noise_replacements(self):
        clean = beamsplitter_moments(REF_SRC, REF_CH)
        noisy = beamsplitter_moments(REF_SRC, REF_CH, NoiseParams(1.0, 1.0))
        assert noisy.alpha_plus == pytest.approx(clean.alpha_plus + 0.5, rel=1e-15)
        assert noisy.gamma_star == pytest.approx(clean.gamma_star, rel=1e-15)

    def test_invariant_enforced(self):
        # alpha_plus > 0 and beta_plus >= beta_minus hold by construction, since
        # omega, mu >= 1 and 2 sqrt(kappa) c >= 0 (test_moment_route_identity_random
        # asserts both); finiteness is the check that a public call trips
        with pytest.raises(ValueError, match="beamsplitter moments must be finite"):
            beamsplitter_moments(REF_SRC, ChannelParams(0.01, 1e308))


class TestSnrPc:
    def test_reference_triple(self):
        pc = snr_pc(REF_SRC, REF_CH)
        assert pc.snr == pytest.approx(SNR_QI_PC, rel=1e-12)
        cal = snr_pc(REF_SRC, REF_CH, NoiseParams(eps_return=1.0))
        assert cal.snr == pytest.approx(SNR_QI_CAL_PC, rel=1e-12)
        het = snr_pc(REF_SRC, REF_CH, NoiseParams(1.0, 1.0))
        assert het.snr == pytest.approx(SNR_QI_HET_PC, rel=1e-12)
        for stats in (pc, cal, het):
            check_receiver_stats(stats)

    def test_zero_correlation_gives_zero_snr(self):
        src = SourceParams(0.3, 0.3, 0.0)
        stats = snr_pc(src, REF_CH)
        assert stats.snr == 0.0
        assert stats.mean_h1 == 0.0

    def test_reference_moment_fields(self):
        stats = snr_pc(REF_SRC, REF_CH)
        assert stats.mean_h0 == 0.0
        assert stats.mean_h1 == pytest.approx(0.020099751242241781, rel=1e-14)
        assert stats.var_h0 == pytest.approx(21.42, rel=1e-14)
        assert stats.var_h1 == pytest.approx(21.420304, rel=1e-14)

    def test_moment_route_agrees_at_fig2_scale(self):
        for noise in [NoiseParams(), NoiseParams(1.0, 0.0), NoiseParams(1.0, 1.0)]:
            direct = snr_pc(REF_SRC, REF_CH, noise)
            recomputed = snr_from_moments(beamsplitter_moments(REF_SRC, REF_CH, noise))
            assert recomputed.snr == pytest.approx(direct.snr, rel=1e-12)
            assert recomputed.var_h0 == pytest.approx(direct.var_h0, rel=1e-12)
            assert recomputed.var_h1 == pytest.approx(direct.var_h1, rel=1e-12)

    @given(
        ns=st.floats(0.01, 1.0),
        extra=st.floats(0.0, 1.0),
        frac=st.floats(0.1, 1.0),
        kappa=st.floats(0.01, 1.0),
        nb=st.floats(0.0, 50.0),
        eps_r=st.floats(0.0, 2.0),
        eps_i=st.floats(0.0, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_moment_route_identity_random(self, ns, extra, frac, kappa, nb, eps_r, eps_i):
        ni = ns + extra
        src = SourceParams(ns, ni, frac * 2.0 * math.sqrt(ns * (ni + 1.0)))
        ch = ChannelParams(kappa, nb)
        noise = NoiseParams(eps_r, eps_i)
        m = beamsplitter_moments(src, ch, noise)
        assert m.alpha_plus > 0.0 and m.beta_plus >= m.beta_minus
        # numerator identity (beta+ - beta-)^2 = kappa*c^2 up to cancellation noise
        diff = m.beta_plus - m.beta_minus
        exact = math.sqrt(kappa) * src.corr
        eps = np.finfo(float).eps
        assert abs(diff - exact) <= 8.0 * eps * m.beta_plus
        direct = snr_pc(src, ch, noise)
        recomputed = snr_from_moments(m)
        tol = max(1e-12, 64.0 * eps * m.beta_plus / exact)
        assert abs(recomputed.snr - direct.snr) <= tol * direct.snr

    def test_monotone_increasing_in_corr(self):
        src0 = SourceParams(0.01, 0.01)
        cq = 2.0 * math.sqrt(0.01 * 1.01)
        values = [snr_pc(SourceParams(0.01, 0.01, f * cq), REF_CH).snr
                  for f in np.linspace(0.1, 1.0, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert snr_pc(src0, REF_CH).snr == 0.0

    def test_monotone_decreasing_in_background(self):
        values = [snr_pc(REF_SRC, ChannelParams(0.01, nb)).snr
                  for nb in [1.0, 5.0, 20.0, 100.0, 1000.0]]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_noise(self):
        for field in ("eps_return", "eps_idler"):
            values = [snr_pc(REF_SRC, REF_CH, NoiseParams(**{field: e})).snr
                      for e in [0.0, 0.5, 1.0, 2.0, 4.0]]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_stats_invariant_rejects_mismatch(self):
        # the deflection form of these moments is 1/(2 (1 + 1)^2) = 1/8
        check_receiver_stats(ReceiverStats(0.0, 1.0, 1.0, 1.0, 0.125))
        with pytest.raises(AssertionError, match="inconsistent"):
            check_receiver_stats(ReceiverStats(0.0, 1.0, 1.0, 1.0, 0.5))

    @given(
        label=st.sampled_from(PC_LABELS),
        ns=st.floats(0.0, 10.0),
        ni=st.floats(0.0, 10.0),
        frac=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        nb=st.one_of(st.floats(0.0, 1e3), st.floats(1e300, 2.3e307)),
        eps_r=st.floats(0.0, 2.0),
        eps_i=st.floats(0.0, 2.0),
    )
    # the golden scenario near the overflow of the SNR's denominator, where its snr is
    # normal (N_B = 2.2e307) and subnormal, ~2.4e-312 (N_B = 2.1e307)
    @example(label="QI+PC", ns=0.01, ni=0.01, frac=1.0, kappa=0.01, nb=2.2e307, eps_r=0.0,
             eps_i=0.0)
    @example(label="QI+PC", ns=0.01, ni=0.01, frac=1.0, kappa=0.01, nb=2.1e307, eps_r=0.0,
             eps_i=0.0)
    @settings(max_examples=300, deadline=None)
    def test_stats_meet_the_deflection_rule(self, label, ns, ni, frac, kappa, nb, eps_r, eps_i):
        src = SourceParams(ns, ni, frac * c_quantum(SourceParams(ns, ni)))
        try:
            stats = _pc_stats(Scenario(src, ChannelParams(kappa, nb), NoiseParams(eps_r, eps_i)),
                              label)
        except ValueError:
            reject()  # the denominator overflows: TestPcOverflow's case
        check_receiver_stats(stats)

    @pytest.mark.parametrize("seed", [1, 2, 7331])
    def test_stats_meet_the_deflection_rule_on_perfbench_threshold_sweep(self, monkeypatch,
                                                                         seed):
        scenarios, _ = _threshold_sweep_scenarios(monkeypatch, seed)
        for sc in scenarios:
            for label in PC_LABELS:
                check_receiver_stats(_pc_stats(sc, label))

    def test_denominator_squared_by_one_multiply(self):
        # glibc 2.36's pow (Python's **) squares the denominator's root one ulp apart
        # from the IEEE product here: the rate must be the product's, the same on any libm
        src = make_source(11.52124810334315, 1.2006550160002556, "quantum")
        ch = ChannelParams(0.9767280935913945, 0.20269114904170862)
        snr = snr_pc(src, ch).snr
        assert snr.hex() == "0x1.112cf36a8625ep-2"
        with mpmath.workdps(50):
            (a0, b0, _), (a1, _, c1) = _mp_model_entries(src, ch)
            kc2 = c1 * c1
            exact = kc2 / (mpmath.sqrt(kc2 + b0 * (1 + a1)) + mpmath.sqrt(b0 * (1 + a0))) ** 2
            assert ulp_error(snr, exact) <= 2.0


class TestErrorProbPc:
    """A PC receiver's threshold rows (1/2)erfc(sqrt(m*snr)) and their logs, by _erfc_points."""

    def test_zero_snr_gives_half(self):
        assert _erfc_points(0.0, [1, 10**9])[0].tolist() == [0.5, 0.5]

    def test_unit_exponent(self):
        assert _erfc_points(1.0, [1])[0][0] == pytest.approx(0.5 * math.erfc(1.0), rel=1e-14)

    def test_reference_composition(self):
        stats = snr_pc(REF_SRC, REF_CH)
        (p,), _ = _erfc_points(stats.snr, [10**7])
        assert p == pytest.approx(0.5 * math.erfc(math.sqrt(1e7 * stats.snr)), rel=1e-12)

    def test_non_increasing_in_m(self):
        stats = snr_pc(REF_SRC, REF_CH)
        ps, _ = _erfc_points(stats.snr, [10**k for k in range(3, 9)])
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_log_value_beyond_underflow(self):
        _, (lp,) = _erfc_points(1.0, [2000])
        assert -2100.0 < lp < -1900.0

    def test_bad_pulse_count_rejected(self):
        # a sweep's pulse counts are checked once, in SweepSpec, before any row
        for bad in (0, 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                SweepSpec(ScenarioParams(), (bad,), ("QI+PC",))


def _ci_cs_hom_sweeps() -> list[str]:
    """The arguments of each qi sweep line of the CI workflow whose table has a CS+Hom row.

    Shell variables that the workflow sets to a quoted literal are expanded,
    and a pipe, --json and --out are cut off, so lines that differ only in
    those give one entry. A line whose M come from a command substitution is
    left out.
    """
    text = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text()
    env = dict(re.findall(r'^\s*(\w+)="([^"$]*)"$', text, re.MULTILINE))
    parse = _build_parser().parse_args
    found = []
    for line in re.findall(r"^\s*(?:\S*/)?qi sweep (.*?)(?: \|.*)?$", text, re.MULTILINE):
        line = re.sub(r"\$(\w+)", lambda v: env.get(v[1], v[0]), line)
        if "$" in line:
            continue
        argv = [a for a in shlex.split(line) if a != "--json"]
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        receivers = parse(["sweep", *argv]).receivers
        if receivers is None or "CS+Hom" in receivers.split(","):
            found.append(shlex.join(argv))
    return list(dict.fromkeys(found))


class TestHomodyne:
    def test_zero_threshold_false_alarm_half(self):
        res = homodyne_errors(0.01, REF_CH, 100, 0.0)
        assert res.p_false_alarm == 0.5

    def test_symmetric_threshold_balances_errors(self):
        m = 1000
        shift = m * math.sqrt(2.0 * 0.01 * 0.01)
        res = homodyne_errors(0.01, REF_CH, m, shift / 2.0)
        assert res.p_false_alarm == pytest.approx(res.p_missed_detection, rel=1e-14)

    def test_zero_reflectivity_missed_detection_majority(self):
        res = homodyne_errors(0.01, ChannelParams(0.0, 20.0), 100, 5.0)
        assert res.p_missed_detection >= 0.5

    def test_error_is_average(self):
        res = homodyne_errors(0.3, REF_CH, 50, 1.7)
        assert res.p_error == pytest.approx(
            0.5 * (res.p_false_alarm + res.p_missed_detection), abs=1e-16)

    def test_min_error_fig2_single_pulse(self):
        opt = checked_min_error(0.01, REF_CH, 1)
        arg = math.sqrt(0.01 * 0.01 / 82.0)
        assert arg == pytest.approx(0.0011043152607484655, rel=1e-12)
        assert opt.p_error == pytest.approx(0.49937695708620238, rel=1e-12)

    def test_min_error_threshold_formula(self):
        m = 10**6
        opt = checked_min_error(0.01, REF_CH, m)
        assert opt.threshold == m * math.sqrt(2.0 * 0.01 * 0.01) / 2.0
        assert opt.p_error == pytest.approx(
            0.5 * math.erfc(math.sqrt(m * 1e-4 / 82.0)), rel=1e-12)
        assert type(opt.p_error) is type(opt.log_p_error) is type(opt.threshold) is float

    def test_min_error_threshold_is_finite_wherever_it_is(self):
        # formed as 0.5*(m*sqrt(2 kappa N_S)), it read inf once m*sqrt(...) or
        # sqrt(2 kappa N_S) overflowed; m*sqrt(kappa N_S/2) differs from it
        # by exact scalings by 4 and 2, so where it was finite and normal it
        # has the same bits
        rng = np.random.default_rng(11)
        draws = zip(10 ** rng.uniform(-300.0, 300.0, 400), rng.uniform(0.0, 1.0, 400),
                    10 ** rng.uniform(-6.0, 6.0, 400), 10 ** rng.uniform(0.0, 308.0, 400))
        compared = 0
        for n_signal, kappa, n_background, m in draws:
            m = int(m)
            old = 0.5 * (m * math.sqrt(2.0 * kappa * n_signal))
            got = checked_min_error(n_signal, ChannelParams(kappa, n_background), m).threshold
            if math.isfinite(old) and old >= sys.float_info.min:
                compared += 1
                assert _bits(got) == _bits(old), (n_signal, kappa, n_background, m)
        assert compared > 200
        opt = checked_min_error(4.0, ChannelParams(1.0, 0.0), 10 ** 308)
        assert (opt.p_error, opt.log_p_error) == (0.0, -math.inf)
        assert opt.threshold == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)

    def test_min_error_beats_other_thresholds(self):
        m = 10**6
        opt = checked_min_error(0.01, REF_CH, m)
        for frac in [0.0, 0.25, 0.75, 1.3]:
            other = homodyne_errors(0.01, REF_CH, m, frac * opt.threshold)
            assert other.p_error >= opt.p_error * (1.0 - 1e-12)

    def test_self_check_names_the_m_with_a_corrupt_closed_form(self, monkeypatch):
        # ln p 1e-11 relative off at one M of the grid; the mpmath check
        # (check_cs_hom_rows) names that M and no other
        ms = [10, 10 ** 6, 10 ** 8]
        bad_x = math.sqrt(10 ** 6 * (0.01 * 0.01 / 82.0))
        real = _erfc_column

        def corrupt(x, half=False):
            e, log_e = real(x, half)
            return e, np.where(x == bad_x, log_e * (1.0 + 1e-11), log_e)

        cs_hom_points(0.01, REF_CH, ms)
        monkeypatch.setattr("qillum.receiver._erfc_column", corrupt)
        with pytest.raises(AssertionError, match=r"at M=1000000 \(") as grid:
            cs_hom_points(0.01, REF_CH, ms)
        assert "M=10 " not in str(grid.value) and "M=100000000" not in str(grid.value)
        # homodyne_min_error is the row's one-m case, held to the same check
        with pytest.raises(AssertionError, match=r"at M=1000000 \("):
            checked_min_error(0.01, REF_CH, 10 ** 6)
        checked_min_error(0.01, REF_CH, 10 ** 8)

    def test_self_check_holds_at_large_m_rate(self):
        # x = sqrt(M*rate) from 2.3e5 at M = 1e12 to 2.3e7: the row is the
        # kernel's ln p at x, held to mpmath in cs_hom_points
        ch = ChannelParams(0.3, 0.2)
        ms = [10 ** 12, 10 ** 14, 10 ** 16]
        rate = homodyne_rate(0.5, ch)
        for m, (p, log_p) in zip(ms, cs_hom_points(0.5, ch, ms)):
            assert p == 0.0
            assert log_p == _half_log(math.sqrt(m * rate))

    def test_self_check_minimum_is_the_golden_section_minimum(self):
        # the claim that w/2 is the minimizer, in mpmath: the error's log at
        # w/2 lies below it at w/2 +- w*10^-k, k = 1..6 (check_midpoint_optimum),
        # and the kernel's ln p at x = w/2 is that minimum to 1 ulp. The grid
        # runs u = w/2 from 1e-4 to 2.3e5 and takes in the scenario of
        # test_self_check_holds_at_large_m_rate at M = 1e12..1e16
        ms = np.array([1e12, 1e13, 1e14, 1e15, 1e16])
        w = np.concatenate((2.0 * np.geomspace(1e-4, 2.3e5, 61),
                            ms * math.sqrt(2.0 * 0.3 * 0.5) / np.sqrt(ms * (2.0 * 0.2 + 1.0))))
        with mpmath.workprec(80):
            for wi in w.tolist():
                check_midpoint_optimum(wi)
                assert ulp_error(_half_log(0.5 * wi), mp_log_erfc(0.5 * wi) - mpmath.ln2) <= 1.0

    def test_self_check_search_takes_few_steps(self, monkeypatch):
        # the check's cost: one mpmath ln erfc per M, on grids of 500 and 3000 M
        ch = ChannelParams(0.3, 0.2)
        real = _oracles.mp_log_erfc
        for n, top in ((500, 1e9), (3000, 1e16)):
            ms = sorted({int(m) for m in np.geomspace(1.0, top, n)})
            calls = []

            def counting(x):
                calls.append(x)
                return real(x)

            with monkeypatch.context() as patch:
                patch.setattr(_oracles, "mp_log_erfc", counting)
                cs_hom_points(0.5, ch, ms)
            assert len(calls) == len(ms)

    @pytest.mark.parametrize("seed", [1, 2, 7331])
    def test_certificate_accepts_every_m_the_search_accepts(self, monkeypatch, seed):
        # CS+Hom rows held to mpmath (check_cs_hom_rows, in cs_hom_points) on
        # random grids, and the midpoint held to be the optimum at each of
        # their w = 2x (check_midpoint_optimum). At kappa = 1 and N_B = 0 the
        # row's x = sqrt(M*rate) is sqrt(N_S/2) sqrt(M): random x from 1e-6 to
        # the doubles either side of sqrt(max double), where ln p turns -inf,
        # and random x within 2**-24 below sqrt(max double), where ln p is
        # finite but Veltkamp's split of x once overflowed (the midpoint is
        # held wherever M*rate, and so x, is finite). Then every CS+Hom row of
        # perfbench's threshold_sweep at this seed
        rng = np.random.default_rng(40 + seed)
        root_max = math.sqrt(sys.float_info.max)
        xs = _neighbours(root_max) + list(root_max * (1.0 - 2.0 ** -rng.uniform(24.0, 52.0, 200)))
        top = math.log10(sys.float_info.max / 4.0)
        for n_signal, ms in ((2e-12, 10 ** rng.uniform(0.0, 12.0, 1000)),
                             (8.0, np.concatenate((10 ** rng.uniform(0.0, top, 3000),
                                                   (0.5 * np.array(xs)) ** 2)))):
            ms = [int(m) for m in ms]
            cs_hom_points(n_signal, ChannelParams(1.0, 0.0), ms)
            with np.errstate(over="ignore"):
                x = np.sqrt(homodyne_rate(n_signal, ChannelParams(1.0, 0.0))
                            * np.array(ms, dtype=float))
            for w in 2.0 * x[np.isfinite(x)]:
                check_midpoint_optimum(float(w))
        scenarios, ms = _threshold_sweep_scenarios(monkeypatch, seed)
        for sc in scenarios:
            (rate,), (p,), (log_p,) = sweep_points([RECEIVERS["CS+Hom"]], sc, ms)
            check_cs_hom_rows(sc.src.n_signal, sc.ch, ms, rate, p, log_p)

    def test_certificate_rejects_every_ln_p_the_search_rejects(self):
        # ln p doctored by 2 to 1e3 times 1e-12 either way, relative and
        # absolute, or made non-finite, at x from 0.23 to 2.3e8: the mpmath
        # check names every M whose ln p was changed, and no other. A rate 3
        # ulps off either way fails its 2-ulp bound
        ch = ChannelParams(0.3, 0.2)
        ms = sorted({int(m) for m in np.geomspace(1.0, 1e18, 120)})
        rate = homodyne_rate(0.5, ch)
        p, log_p = _erfc_points(rate, ms)
        doctored = [log_p + d * np.maximum(1.0, np.abs(log_p)) * 1e-12
                    for d in (-1e3, -10.0, -2.0, 2.0, 10.0, 1e3)]
        doctored += [log_p * (1.0 + d * 1e-12) for d in (-10.0, -2.0, 2.0, 10.0)]
        doctored += [np.where(np.arange(log_p.size) % 3 == 0, v, log_p)
                     for v in (math.nan, math.inf, -math.inf)]
        assert not _rejected(0.5, ch, ms, rate, p, log_p)
        for column in doctored:
            assert _rejected(0.5, ch, ms, rate, p, column) == {
                str(m) for m, v, lp in zip(ms, column, log_p) if v != lp}
        for off in (rate + 3 * math.ulp(rate), rate - 3 * math.ulp(rate)):
            with pytest.raises(AssertionError, match="more than 2 ulps"):
                check_cs_hom_rows(0.5, ch, ms, off, p, log_p)

    @pytest.mark.parametrize("argv", _ci_cs_hom_sweeps())
    def test_optimum_check_holds_on_the_cs_hom_rows_of_ci_command_lines(self, argv):
        # the CS+Hom rows that CI's numpy-only step prints, read from the
        # workflow, so that a line added there is held to mpmath here too
        args = _build_parser().parse_args(["sweep", *shlex.split(argv)])
        receivers = tuple(args.receivers.split(",")) if args.receivers else RECEIVER_ORDER
        checked_compute_sweep(SweepSpec(_scenario_from(args), _parse_m_values(args), receivers))

    def test_zero_reflectivity_gives_half(self):
        opt = checked_min_error(0.01, ChannelParams(0.0, 20.0), 10)
        assert opt.p_error == 0.5
        assert opt.threshold == 0.0

    def test_non_increasing_in_m(self):
        ps = [checked_min_error(0.01, REF_CH, 10**k).p_error for k in range(1, 9)]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_deep_tail_no_silent_failure(self):
        # m chosen so m*kappa*N_S/(4N_B+2) = 700
        m = round(700.0 * 82.0 / 1e-4)
        opt = checked_min_error(0.01, REF_CH, m)
        assert opt.p_error > 0.0
        assert opt.log_p_error == pytest.approx(
            math.log(0.5) + log_erfc(math.sqrt(m * 1e-4 / 82.0)), rel=1e-12)


class TestAsymptoticSnr:
    def test_expressions(self):
        src = REF_SRC
        val = asymptotic_snr("QI+PC", src, REF_CH)
        assert val == pytest.approx(1.01 * 1e-4 / (2.0 * 20.0 * 1.02), rel=1e-14)
        assert asymptotic_snr("QI+Cal+PC", src, REF_CH) == val
        hom = asymptotic_snr("CS+Hom", src, REF_CH)
        assert hom == pytest.approx(1e-4 / 80.0, rel=1e-14)
        assert asymptotic_snr("QI+Het+PC", src, REF_CH) == hom

    def test_advantage_ratio(self):
        ratio = (asymptotic_snr("QI+PC", REF_SRC, REF_CH)
                 / asymptotic_snr("CS+Hom", REF_SRC, REF_CH))
        assert ratio == pytest.approx(2.0 * 1.01 / 1.02, rel=1e-14)

    def test_small_idler_limit(self):
        # an idler dimmer than the signal caps the correlation: c_q^2/4 = N_I*(N_S+1)
        src = make_source(0.01, 1e-9, "quantum")
        val = asymptotic_snr("QI+PC", src, REF_CH)
        assert val == pytest.approx(0.01 * 1e-9 * 1.01 / 40.0, rel=1e-6)
        bright = ChannelParams(0.01, 1e6)
        exact = snr_pc(src, bright).snr
        assert exact / asymptotic_snr("QI+PC", src, bright) == pytest.approx(
            1.0, abs=1e-3)

    def test_requires_quantum_correlation(self):
        src = SourceParams(0.01, 0.01, 0.02)
        with pytest.raises(ValueError, match="quantum bound"):
            asymptotic_snr("QI+PC", src, REF_CH)
        # the coherent benchmark ignores the source correlation
        asymptotic_snr("CS+Hom", src, REF_CH)

    def test_requires_positive_background(self):
        with pytest.raises(ValueError, match="n_background"):
            asymptotic_snr("QI+PC", REF_SRC, ChannelParams(0.01, 0.0))

    def test_exact_snr_converges_to_asymptote(self):
        ch = ChannelParams(0.01, 1e6)
        exact_pc = snr_pc(REF_SRC, ch).snr
        exact_cal = snr_pc(REF_SRC, ch, NoiseParams(eps_return=1.0)).snr
        exact_het = snr_pc(REF_SRC, ch, NoiseParams(1.0, 1.0)).snr
        assert exact_cal / exact_pc == pytest.approx(1.0, abs=1e-3)
        assert exact_pc / asymptotic_snr("QI+PC", REF_SRC, ch) == pytest.approx(1.0, abs=1e-3)
        assert exact_het / asymptotic_snr("QI+Het+PC", REF_SRC, ch) == pytest.approx(1.0, abs=1e-3)


class TestErrorProbabilitiesType:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match="p_false_alarm"):
            ErrorProbabilities(1.2, 0.1, 0.65)

    def test_average_enforced(self):
        with pytest.raises(ValueError, match="average"):
            ErrorProbabilities(0.2, 0.4, 0.5)
