"""Chernoff/Bhattacharyya bound tests against Fock-basis, quadrature and mpmath oracles.

The closed forms are also held to the generic Williamson route of
_oracles.py, which serves as their oracle and takes any pair of states; the
library's public functions take only the closed forms' pairs.
"""
import dataclasses
import math
import sys
from itertools import chain

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qillum.symplectic
from qillum.bounds import (
    MAX_BOUND_IDLER_EXCESS,
    MAX_BOUND_RETURN_EXCESS,
    MAX_BOUND_SIGNAL_EXCESS,
    MAX_COHERENT_BACKGROUND,
    S_ENDPOINT_EPS,
    _EPS,
    ClassicalDistributionPair,
    SOverlapResult,
    StandardFormDensities,
    StandardFormPair,
    _bound_at,
    _expm1_gap,
    _log1p_gap,
    _quantum_route,
    _weighted_result,
    ccb,
    cs_qcb,
    gaussian_s_overlap,
    heterodyne_distributions,
    qcb,
)
from qillum.cli import ScenarioParams, SweepSpec, compute_sweep
from qillum.receiver import RECEIVERS, Scenario, homodyne_rate, sweep_points
from qillum.errors import NumericFailure
from qillum.states import (
    ChannelParams,
    GaussianState,
    SourceParams,
    apply_noise,
    c_quantum,
    coherent_benchmark_states,
    conditional_states,
    make_source,
    NoiseParams,
)
from qillum.symplectic import CovMatrix

from _oracles import (_ClassicalOverlap, _GaussianOverlap, classical_s_overlap, cs_qcb_exponent,
                      fock_s_overlap_thermal, generic_ccb, generic_classical_s_overlap,
                      generic_qbb, generic_qcb, generic_s_overlap, half_exp, mp_coherent_log_c,
                      mp_model_exponents, mp_shifted_thermal_log_c, qbb, random_physical_cm,
                      ulp_error)

REF_SRC = make_source(0.01, 0.01, "quantum")
REF_CH = ChannelParams(reflectivity=0.01, n_background=20.0)


def thermal_state(nbar: float, mean=None) -> GaussianState:
    cov = CovMatrix((nbar + 0.5) * np.eye(2))
    return GaussianState(np.zeros(2) if mean is None else np.array(mean), cov)


def thermal_beside_vacuum(nbar: float) -> GaussianState:
    """A thermal mode of nbar photons beside a vacuum idler: a standard-form state with c = 0."""
    return GaussianState(np.zeros(4), CovMatrix(np.diag([nbar + 0.5] * 2 + [0.5] * 2)))


class TestGaussianSOverlap:
    def test_identical_states_give_one(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        for s in [0.0, 0.2, 0.5, 0.8, 1.0]:
            assert gaussian_s_overlap(h0, h0, s) == pytest.approx(1.0, abs=1e-12)
            assert gaussian_s_overlap(h1, h1, s) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_thermal_bhattacharyya(self):
        val = gaussian_s_overlap(thermal_beside_vacuum(0.0), thermal_beside_vacuum(1.0), 0.5)
        assert val == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_vacuum_vs_thermal_matches_fock_oracle(self):
        for s in [0.25, 0.5, 0.75]:
            val = gaussian_s_overlap(thermal_beside_vacuum(0.0), thermal_beside_vacuum(1.0), s)
            ref = fock_s_overlap_thermal(0.0, 1.0, s)
            assert val == pytest.approx(ref, rel=1e-10)

    def test_thermal_vs_thermal_matches_fock_oracle(self):
        val = gaussian_s_overlap(thermal_beside_vacuum(0.3), thermal_beside_vacuum(1.7), 0.3)
        assert val == pytest.approx(0.86349030176692721, rel=1e-10)
        ref = fock_s_overlap_thermal(0.3, 1.7, 0.3)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_vacuum_vs_coherent_any_s(self):
        # pure-state overlap is s-independent: |<0|alpha>|^2 = exp(-|alpha|^2)
        coh = thermal_state(0.0, mean=[math.sqrt(2.0 * 0.01), 0.0])
        for s in [0.2, 0.5, 0.9]:
            val = gaussian_s_overlap(thermal_state(0.0), coh, s)
            assert val == pytest.approx(math.exp(-0.01), rel=1e-9)

    def test_endpoints_give_unity_for_full_rank_states(self):
        a = thermal_state(0.4)
        b = thermal_state(2.0, mean=[0.7, -0.3])
        assert generic_s_overlap(a, b, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert generic_s_overlap(a, b, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v0 = random_physical_cm(rng, 2)
            v1 = random_physical_cm(rng, 2)
            a = GaussianState(rng.normal(size=4) * 0.5, CovMatrix(v0))
            b = GaussianState(rng.normal(size=4) * 0.5, CovMatrix(v1))
            s = rng.uniform(0.05, 0.95)
            lhs = generic_s_overlap(a, b, s)
            rhs = generic_s_overlap(b, a, 1.0 - s)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_s_out_of_range_rejected(self):
        a = thermal_state(0.1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gaussian_s_overlap(a, a, 1.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gaussian_s_overlap(a, a, -0.1)

    def test_mode_count_mismatch_rejected(self):
        one = thermal_state(0.1)
        two = GaussianState(np.zeros(4), CovMatrix(0.5 * np.eye(4)))
        with pytest.raises(ValueError, match="mode counts"):
            gaussian_s_overlap(one, two, 0.5)

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = GaussianState(np.zeros(4), CovMatrix(random_physical_cm(rng, 2)))
            b = GaussianState(np.zeros(4), CovMatrix(random_physical_cm(rng, 2)))
            val = generic_s_overlap(a, b, rng.uniform(0.0, 1.0))
            assert 0.0 < val <= 1.0


class TestQcb:
    def test_identical_states(self):
        h0, _ = conditional_states(REF_SRC, REF_CH)
        res = qcb(h0, h0)
        assert res.bound == pytest.approx(0.5, rel=1e-12)
        assert res.s_star == 0.5

    def test_reference_minimizer_near_half(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        res = qcb(h0, h1)
        assert abs(res.s_star - 0.5) < 2e-3
        assert 0.0 < res.bound < 0.5

    def test_coherent_benchmark_matches_closed_form(self):
        h0, h1 = coherent_benchmark_states(0.01, REF_CH)
        res = qcb(h0, h1)
        assert res.bound == pytest.approx(half_exp(1, cs_qcb_exponent(0.01, REF_CH)), rel=1e-9)

    def test_prior_weighting(self):
        h0, h1 = coherent_benchmark_states(0.3, ChannelParams(0.5, 1.0))
        res = qcb(h0, h1, prior_h0=0.7)
        assert res.prior_h0 == 0.7
        assert res.bound <= 0.3 * (1.0 + 1e-12)
        expected = 0.7 ** res.s_star * 0.3 ** (1.0 - res.s_star) * res.c_at_s_star
        assert res.bound == pytest.approx(expected, rel=1e-12)

    def test_prior_validation(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        for bad in [0.0, 1.0, -0.2, 1.3]:
            with pytest.raises(ValueError, match="prior_h0"):
                qcb(h0, h1, prior_h0=bad)

    def test_exponent_property(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        res = qcb(h0, h1)
        assert res.exponent == pytest.approx(-math.log(res.c_at_s_star), rel=1e-15)
        assert res.exponent > 0.0


# criterion 1's 75-point grid of coherent benchmarks, plus N_B = 1e6
COHERENT_GRID = [(ns, kappa, nb) for ns in (0.001, 0.01, 0.1, 1.0, 10.0)
                 for nb in (0.0, 0.1, 1.0, 20.0, 100.0, 1e6) for kappa in (0.001, 0.01, 0.1)]


class TestShiftedThermal:
    """The coherent benchmark's pair: one covariance (N_B + 1/2) I, means that differ."""

    def test_closed_form_against_mpmath(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("coherent pair on the generic Williamson route")

        monkeypatch.setattr(qillum.symplectic, "williamson", forbidden)
        for ns, kappa, nb in COHERENT_GRID:
            states = coherent_benchmark_states(ns, ChannelParams(kappa, nb))
            log_c_slope = _quantum_route(*states)
            for s in (0.1, 0.3, 0.5, 0.8):
                with mpmath.workdps(50):
                    exact = mp_shifted_thermal_log_c(*states, mpmath.mpf(s))
                assert abs(log_c_slope(s)[0] - exact) <= 1e-15 * abs(exact), (ns, kappa, nb, s)

    def test_mpmath_oracle_keeps_its_digits_through_the_cancellation(self):
        # the oracle's terms, each of size ln N_B, cancel down to the exponent
        # kappa N_S (sqrt(N_B + 1) - sqrt(N_B))^2 ~ 5e-19 here: evaluated at the
        # caller's 40 digits alone they keep only about 16 of them
        ns, ch = 1.26e-6, ChannelParams(1e-4, 6.2e7)
        with mpmath.workdps(40):
            got = -mp_coherent_log_c(ns, ch, mpmath.mpf(1) / 2)
        with mpmath.workdps(80):
            root_sum = mpmath.sqrt(mpmath.mpf(ch.n_background) + 1) + mpmath.sqrt(ch.n_background)
            exact = mpmath.mpf(ch.reflectivity) * mpmath.mpf(ns) / root_sum ** 2
            assert abs(got - exact) <= mpmath.mpf(10) ** -35 * exact

    def test_equal_priors_give_half(self):
        for ns, kappa, nb in COHERENT_GRID:
            assert qcb(*coherent_benchmark_states(ns, ChannelParams(kappa, nb))).s_star == 0.5

    @pytest.mark.parametrize("nb", [0.0, 20.0, 1e6])
    def test_slope_is_the_derivative(self, nb):
        log_c_slope = _quantum_route(*coherent_benchmark_states(0.3, ChannelParams(0.5, nb)))
        for s in (0.1, 0.5, 0.9):
            h = 1e-5
            numeric = (log_c_slope(s + h)[0] - log_c_slope(s - h)[0]) / (2.0 * h)
            assert log_c_slope(s)[1] == pytest.approx(numeric, rel=1e-6, abs=1e-12)

    def test_generic_route_within_coherent_tolerance(self):
        # perfbench's coherent_qcb_tolerance: ln C_s is a difference of terms of
        # size ln(2 N_B + 2), each good to a few ulps
        for ns, kappa, nb in COHERENT_GRID:
            states = coherent_benchmark_states(ns, ChannelParams(kappa, nb))
            generic = _weighted_result(_GaussianOverlap(*states).log_c_slope, 0.5).exponent
            with mpmath.workdps(50):
                exact = -mp_shifted_thermal_log_c(*states, mpmath.mpf(0.5))
            tol = 64.0 * math.ulp(1.0) * math.log(2.0 * nb + 2.0)
            assert abs(generic - exact) <= tol, (ns, kappa, nb)


def drawn_coherent_scenarios(rng, n):
    """n draws of (N_S, N_B, kappa), each log-uniform: [1e-6, 1e3], [1e-4, 1e8], [1e-4, 1]."""
    for _ in range(n):
        yield tuple(float(10.0 ** rng.uniform(lo, hi)) for lo, hi in ((-6, 3), (-4, 8), (-4, 0)))


class TestCsQcbBound:
    """The CS-QCB row of qi bounds: cs_qcb on N_B and kappa N_S, at any prior."""

    def test_equal_prior_exponent_within_4_ulps_of_mpmath(self):
        # the qi bounds exponent, and the qi sweep rate, which is the same double
        rx = RECEIVERS["CS-QCB"]
        bound = rx.bound
        checked = 0
        # first, where coth from libm's tanh put the exponent 4.56 ulps off
        worst_via_tanh = [(552.5667909936283, 905.2978407003908, 0.02528908249207579)]
        for ns, nb, kappa in chain(worst_via_tanh,
                                   drawn_coherent_scenarios(np.random.default_rng(2024), 20_000)):
            with mpmath.workdps(40):
                mp_ns, mp_nb = mpmath.mpf(ns), mpmath.mpf(nb)
                root_gap = mpmath.sqrt(mp_nb + 1) - mpmath.sqrt(mp_nb)
                exact = mpmath.mpf(kappa) * mp_ns * root_gap ** 2
            if exact > 700:
                continue
            sc = Scenario(make_source(ns, ns, 0.0), ChannelParams(kappa, nb))
            res = bound(sc, 0.5)
            assert res.s_star == 0.5
            assert abs(res.exponent - exact) <= 4 * math.ulp(float(exact)), (ns, nb, kappa)
            (rate,), _, _ = sweep_points([rx], sc, (1,))
            assert rate.hex() == res.exponent.hex(), (ns, nb, kappa)
            checked += 1
        assert checked >= 19_000

    def test_skewed_prior_matches_an_mpmath_minimisation(self):
        # at prior 0.3, on draws whose optimum lies inside the clamped s range
        end = mpmath.mpf(S_ENDPOINT_EPS)
        checked = 0
        eps = float(np.finfo(float).eps)
        for ns, nb, kappa in drawn_coherent_scenarios(np.random.default_rng(7), 2_000):
            ch = ChannelParams(kappa, nb)
            res = cs_qcb(ns, ch, 0.3)
            with mpmath.workdps(60):
                log_w = mpmath.log(mpmath.mpf(0.3)) - mpmath.log(mpmath.mpf(0.7))

                def weighted(s):
                    return s * log_w + mp_coherent_log_c(ns, ch, s)

                def slope(s):
                    return mpmath.diff(weighted, s)

                if not slope(end) < 0 < slope(1 - end):
                    continue
                s_star = mpmath.findroot(slope, (end, 1 - end), solver="anderson")
                minimum = weighted(s_star) + mpmath.log(mpmath.mpf(0.7))
                at_s_star = -mp_coherent_log_c(ns, ch, mpmath.mpf(res.s_star))
            assert abs(res.s_star - s_star) <= 1e-7, (ns, nb, kappa)
            # -ln C at the returned s*, and the minimised ln of the bound
            assert abs(res.exponent - at_s_star) <= 4 * eps * at_s_star, (ns, nb, kappa)
            weighted_log = (res.s_star * math.log(0.3) + (1 - res.s_star) * math.log(0.7)
                            - res.exponent)
            assert abs(weighted_log - minimum) <= 4 * eps * abs(minimum), (ns, nb, kappa)
            checked += 1
            if checked == 50:
                break
        assert checked == 50

    def test_is_the_coherent_pairs_qcb(self):
        for ns, kappa, nb in COHERENT_GRID:
            ch = ChannelParams(kappa, nb)
            for prior in (0.3, 0.5, 0.9):
                via_states = qcb(*coherent_benchmark_states(ns, ch), prior_h0=prior)
                assert cs_qcb(ns, ch, prior).exponent == pytest.approx(via_states.exponent,
                                                                      rel=1e-12, abs=1e-300)


class TestQbb:
    def test_identical_states(self):
        h0, _ = conditional_states(REF_SRC, REF_CH)
        assert qbb(h0, h0) == pytest.approx(0.5, rel=1e-12)

    def test_vacuum_vs_thermal(self):
        val = qbb(thermal_beside_vacuum(0.0), thermal_beside_vacuum(1.0))
        assert val == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-12)
        assert val == pytest.approx(0.3535534, rel=1e-6)

    def test_never_below_qcb(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        assert qcb(h0, h1).bound <= qbb(h0, h1) <= 0.5
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = GaussianState(np.zeros(4), CovMatrix(random_physical_cm(rng, 2)))
            b = GaussianState(np.zeros(4), CovMatrix(random_physical_cm(rng, 2)))
            assert generic_qcb(a, b).bound <= generic_qbb(a, b) * (1.0 + 1e-10)


class TestCsQcbClosed:
    """The coherent-probe bound (1/2)exp(-M kappa N_S (sqrt(N_B+1) - sqrt(N_B))^2) in
    closed form: half_exp of the oracle cs_qcb_exponent, the CS-QCB rows' reference."""

    def test_unit_exponent_at_dark_background(self):
        ch = ChannelParams(1.0, 0.0)
        bound = half_exp(1, cs_qcb_exponent(1.0, ch))
        assert bound == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)
        assert bound == pytest.approx(0.18393972058572116, rel=1e-14)

    def test_reference_per_mode_exponent(self):
        assert cs_qcb_exponent(0.01, REF_CH) == pytest.approx(1.2196936161606467e-06, rel=1e-12)
        assert cs_qcb_exponent(0.01, REF_CH) == pytest.approx(
            1e-4 * (math.sqrt(21.0) - math.sqrt(20.0)) ** 2, rel=1e-10)

    def test_zero_reflectivity(self):
        assert half_exp(100, cs_qcb_exponent(0.01, ChannelParams(0.0, 20.0))) == 0.5

    def test_m_scaling(self):
        per = cs_qcb_exponent(0.01, REF_CH)
        assert half_exp(10**6, cs_qcb_exponent(0.01, REF_CH)) == pytest.approx(
            0.5 * math.exp(-1e6 * per), rel=1e-12)

    def test_large_background_stable(self):
        # reciprocal form keeps precision where sqrt differencing would not
        val = cs_qcb_exponent(0.01, ChannelParams(0.01, 1e12))
        assert val == pytest.approx(1e-4 / (4.0 * 1e12), rel=1e-10)


class TestHeterodyneDistributions:
    def test_two_mode_vacuum(self):
        vac = GaussianState(np.zeros(4), CovMatrix(0.5 * np.eye(4)))
        pair = heterodyne_distributions(vac, vac)
        assert np.allclose(pair.cov_h0, np.eye(4))

    def test_reference_h0_outcome_cov(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        pair = heterodyne_distributions(h0, h1)
        assert np.allclose(pair.cov_h0, np.diag([21.0, 21.0, 1.01, 1.01]))

    def test_cross_block_unchanged(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        pair = heterodyne_distributions(h0, h1)
        assert np.allclose(pair.cov_h1[0:2, 2:4], h1.cov.entries[0:2, 2:4])

    def test_positive_definite_enforced(self):
        with pytest.raises(ValueError, match="positive definite"):
            ClassicalDistributionPair(np.eye(2), np.diag([1.0, 0.0]),
                                      np.zeros(2), np.zeros(2))


class TestClassicalSOverlap:
    def one_dim_pair(self, var0, var1, m0=0.0, m1=0.0):
        return ClassicalDistributionPair(
            np.array([[var0]]), np.array([[var1]]),
            np.array([m0]), np.array([m1]))

    def test_equal_distributions(self):
        pair = self.one_dim_pair(1.3, 1.3)
        for s in [0.0, 0.3, 0.5, 1.0]:
            assert generic_classical_s_overlap(pair, s) == pytest.approx(1.0, abs=1e-14)

    def test_one_dim_bhattacharyya_value(self):
        pair = self.one_dim_pair(1.0, 2.0)
        assert generic_classical_s_overlap(pair, 0.5) == pytest.approx(0.97098354341464684,
                                                                      rel=1e-12)

    def test_against_quadrature_oracle(self):
        def density(x, var):
            return math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        for s in [0.3, 0.5, 0.8]:
            ref, err = quad(lambda x: density(x, 1.0) ** s * density(x, 2.0) ** (1.0 - s),
                            -30.0, 30.0, epsabs=1e-13, epsrel=1e-13)
            assert err < 1e-10
            assert generic_classical_s_overlap(self.one_dim_pair(1.0, 2.0), s) == pytest.approx(
                ref, rel=1e-10)

    def test_mean_shift_equal_covariance(self):
        # closed form exp(-s(1-s) d^2 / (2 var)) for a pure mean shift
        pair = self.one_dim_pair(1.5, 1.5, 0.0, 2.0)
        for s in [0.2, 0.5, 0.7]:
            assert generic_classical_s_overlap(pair, s) == pytest.approx(
                math.exp(-s * (1.0 - s) * (4.0 / 1.5) / 2.0), rel=1e-12)

    def test_log_convex_in_s(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        pair = heterodyne_distributions(h0, h1)
        ss = np.linspace(0.05, 0.95, 19)
        logs = [math.log(classical_s_overlap(pair, s)) for s in ss]
        for i in range(1, len(ss) - 1):
            assert logs[i] <= 0.5 * (logs[i - 1] + logs[i + 1]) + 1e-12

    def test_s_validation(self):
        pair = self.one_dim_pair(1.0, 2.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            classical_s_overlap(pair, -0.2)


class TestCcb:
    def test_zero_reflectivity_exponent_vanishes(self):
        src = make_source(0.01, 0.01, "quantum")
        h0, h1 = conditional_states(src, ChannelParams(0.0, 20.0))
        res = ccb(heterodyne_distributions(h0, h1))
        assert res.exponent <= 1e-9

    def test_reference_does_not_beat_coherent_chernoff(self):
        h0, h1 = conditional_states(REF_SRC, REF_CH)
        res = ccb(heterodyne_distributions(h0, h1))
        assert res.exponent <= cs_qcb_exponent(0.01, REF_CH)
        assert res.exponent > 0.0

    def test_one_dim_example_minimizer(self):
        # for unit-vs-double variance the optimum is s = 1/ln2 - 1, slightly
        # below the s = 1/2 overlap value 0.970983...
        pair = ClassicalDistributionPair(
            np.array([[1.0]]), np.array([[2.0]]), np.zeros(1), np.zeros(1))
        res = generic_ccb(pair)
        s_exact = 1.0 / math.log(2.0) - 1.0
        exponent_exact = ((1.0 - s_exact) / 2.0) * math.log(2.0) \
            + 0.5 * math.log((1.0 + s_exact) / 2.0)
        assert res.s_star == pytest.approx(s_exact, abs=1e-7)
        assert res.exponent == pytest.approx(exponent_exact, rel=1e-10)
        assert res.exponent >= -math.log(0.97098354341464684)

    def test_exponent_increases_with_reflectivity(self):
        exps = []
        for kappa in [0.001, 0.005, 0.01, 0.05, 0.1]:
            h0, h1 = conditional_states(REF_SRC, ChannelParams(kappa, 20.0))
            exps.append(ccb(heterodyne_distributions(h0, h1)).exponent)
        assert all(b > a for a, b in zip(exps, exps[1:]))

    def test_prior_weights_the_bound(self):
        # at prior 0.9 the weighted bound is at most pi_1 = 0.1 (s -> 0); the
        # closed form and the generic oracle route weight by the same prior
        pair = heterodyne_distributions(*conditional_states(REF_SRC, REF_CH))
        res = StandardFormPair.from_model(REF_SRC, REF_CH).heterodyne().ccb(0.9)
        assert res.prior_h0 == 0.9
        assert res.bound <= 0.1 * (1.0 + 1e-11)
        generic = generic_ccb(pair, 0.9)
        assert res.bound == pytest.approx(generic.bound, rel=1e-12)


def _weight(prior: float, s: float) -> float:
    """pi_0^s pi_1^(1-s), as bounds._bound_at has weighted the overlap."""
    return prior if prior == 0.5 else prior ** s * (1.0 - prior) ** (1.0 - s)


class TestSOverlapResultType:
    """The type stores s*, the prior and the exponent; C_{s*} and the bound are derived."""

    def test_consistency_enforced(self):
        exponent = -math.log(0.9)
        res = SOverlapResult(s_star=0.5, prior_h0=0.5, exponent=exponent)
        assert res.c_at_s_star == math.exp(-exponent)
        assert res.bound == 0.5 * math.exp(-exponent)
        for bad in (-1e-300, math.nan):
            with pytest.raises(ValueError, match="exponent must be >= 0"):
                SOverlapResult(s_star=0.5, prior_h0=0.5, exponent=bad)

    def test_bound_cap_enforced(self):
        # the weight at s = 1 is the prior, so an exponent of 0 puts the bound at 0.9
        with pytest.raises(ValueError, match="bound must not exceed 1/2"):
            SOverlapResult(s_star=1.0, prior_h0=0.9, exponent=0.0)

    @pytest.mark.parametrize("exponent", [700.0, 720.0, 744.0, 745.1, 746.0, math.inf])
    def test_subnormal_overlap_held_to_the_subnormal_spacing(self, exponent):
        for prior, s in ((0.5, 0.5), (0.3, 0.9)):
            res = SOverlapResult(s_star=s, prior_h0=prior, exponent=exponent)
            c = math.exp(-exponent)
            assert res.c_at_s_star.hex() == c.hex()
            assert res.bound.hex() == (_weight(prior, s) * c).hex()

    def test_zero_overlap_only_where_exp_underflows(self):
        for exponent in (700.0, 745.0):
            assert SOverlapResult(s_star=0.5, prior_h0=0.5, exponent=exponent).c_at_s_star > 0.0
        for exponent in (746.0, math.inf):
            res = SOverlapResult(s_star=0.5, prior_h0=0.5, exponent=exponent)
            assert res.c_at_s_star == res.bound == 0.0

    def test_normal_values_keep_the_relative_check(self):
        # at a normal overlap the derived bound is the exact weighted overlap to 1e-15
        with mpmath.workdps(40):
            for prior, s in ((0.5, 0.5), (0.3, 0.9)):
                res = SOverlapResult(s_star=s, prior_h0=prior, exponent=700.0)
                p0 = mpmath.mpf(prior)
                exact = p0 ** s * (1 - p0) ** (1 - mpmath.mpf(s)) * mpmath.exp(-700)
                assert res.c_at_s_star > sys.float_info.min
                assert abs(res.bound - exact) <= 1e-15 * exact

    def test_nan_log_overlap_raises(self):
        # the H1 root's square (s1 - 2 c1)(s1 + 2 c1) overflows, so the eigenvalue
        # differences and ln C_s at every s are nan, which used to read as exponent 0
        pair = StandardFormPair(40.0, 0.02, 0.0, 2e156, 0.0, 2e77)
        assert math.isnan(pair._log_c_slope(0.5)[0])
        with pytest.raises(ValueError, match="ln C_s = nan is not finite"):
            pair.qcb()
        with pytest.raises(ValueError, match="ln C_s = nan is not finite"):
            _bound_at(0.5, pair._log_c_slope(0.5)[0], 0.5)

    def test_public_log_overlaps_raise_where_not_finite(self):
        # the public ln C_s and C_s raise as the bounds do, rather than return nan
        pair = StandardFormPair(40.0, 0.02, 0.0, 2e156, 0.0, 2e77)
        with pytest.raises(ValueError, match="ln C_s = nan is not finite"):
            pair.log_c(0.5)
        # g2 = dA dB overflows, so y, z and u are not finite
        densities = StandardFormDensities(1.0, 1.0, 0.0, 1e300, 1e300, 0.0)
        with pytest.raises(ValueError, match="ln C_s = nan is not finite"):
            densities.log_c(0.5)
        z, eye = np.diag([1.0, -1.0]), np.eye(2)
        covs = [0.5 * np.block([[a * eye, c * z], [c * z, 1.02 * eye]])
                for a, c in ((41.0, 0.0), (41.0 + 2e156, 2e77))]
        states = [GaussianState(mean=np.zeros(4), cov=CovMatrix(cov)) for cov in covs]
        with pytest.raises(ValueError, match="ln C_s = nan is not finite"):
            gaussian_s_overlap(*states, 0.5)


class TestClosedFormsOnly:
    """The public bound functions take only the pairs that have a closed form."""

    @staticmethod
    def rejected_state_pairs():
        rng = np.random.default_rng(5)
        return [
            (thermal_state(0.0), thermal_state(1.0)),             # one mode, covariances differ
            (thermal_beside_vacuum(0.5),                          # means on a standard-form pair
             GaussianState(np.array([0.3, 0.0, 0.0, 0.0]), thermal_beside_vacuum(1.0).cov)),
            tuple(GaussianState(np.zeros(4), CovMatrix(random_physical_cm(rng, 2)))
                  for _ in range(2)),
        ]

    def test_state_functions_raise(self):
        for a, b in self.rejected_state_pairs():
            for call in (lambda: gaussian_s_overlap(a, b, 0.5), lambda: qcb(a, b),
                         lambda: qcb(a, b, prior_h0=0.3), lambda: qbb(a, b)):
                with pytest.raises(ValueError, match="no closed form .* standard-form pair"):
                    call()

    def test_density_functions_raise(self):
        one_dim = ClassicalDistributionPair(np.array([[1.0]]), np.array([[2.0]]),
                                            np.zeros(1), np.zeros(1))
        coherent = heterodyne_distributions(*coherent_benchmark_states(0.3, REF_CH))
        for pair in [one_dim, coherent] + [heterodyne_distributions(*states)
                                           for states in self.rejected_state_pairs()]:
            for call in (lambda: classical_s_overlap(pair, 0.5), lambda: ccb(pair)):
                with pytest.raises(ValueError, match="no closed form .* heterodyne_distributions"):
                    call()


class TestNoiseInteraction:
    def test_het_noise_raises_qcb_bound(self):
        pair = conditional_states(REF_SRC, REF_CH)
        clean = qcb(*pair).bound
        noisy = qcb(*apply_noise(pair, NoiseParams(1.0, 1.0))).bound
        assert noisy > clean


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@st.composite
def model_scenarios(draw):
    """Source, channel and noise of the model: N_S and N_I independent, any correlation."""
    src = make_source(draw(log_uniform(1e-3, 1.0)), draw(log_uniform(1e-3, 1.0)), 0.0)
    src = SourceParams(src.n_signal, src.n_idler, draw(st.floats(0.0, 1.0)) * c_quantum(src))
    ch = ChannelParams(draw(log_uniform(1e-3, 0.5)), draw(log_uniform(1e-2, 1e4)))
    noise = NoiseParams(draw(st.sampled_from([0.0, 0.3, 1.0])),
                        draw(st.sampled_from([0.0, 1.0])))
    return src, ch, noise


def squeezed_thermal(lam_plus: float, lam_minus: float, r: float) -> tuple:
    """(a, b, c) of S(r) diag(lam_+, lam_+, lam_-, lam_-) S(r)^T / 2, S a two-mode squeezer."""
    ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    return (ch2 * lam_plus + sh2 * lam_minus, sh2 * lam_plus + ch2 * lam_minus,
            math.sinh(r) * math.cosh(r) * (lam_plus + lam_minus))


@st.composite
def standard_form_pairs(draw):
    """Two physical standard-form states, each squeezed or with a pure mode.

    A squeezed pure mode is not representable: rounding the entries moves its
    symplectic eigenvalue off 1/2 by ~eps*|V|, which (nu-1/2)^s magnifies
    without bound, so pure modes are drawn unsqueezed, as the model has them.
    """
    entries = []
    for _ in range(2):
        lams = [1.0 + draw(log_uniform(1e-2, 1e2)) for _ in range(2)]
        if draw(st.booleans()):
            entries.append(squeezed_thermal(*lams, draw(st.floats(-1.0, 1.0))))
        else:
            entries.append((draw(st.sampled_from([1.0, lams[0]])), lams[1], 0.0))
    (a0, b0, c0), (a1, b1, c1) = entries
    return StandardFormPair(a0 - 1.0, b0 - 1.0, c0, a1 - a0, b1 - b0, c1 - c0), entries


def cm_state(a: float, b: float, c: float) -> GaussianState:
    z = np.diag([1.0, -1.0])
    return GaussianState(np.zeros(4), CovMatrix(0.5 * np.block([[a * np.eye(2), c * z],
                                                                [c * z, b * np.eye(2)]])))


def generic_tolerance(value: float, states) -> float:
    """What the Williamson route is good to: ln C_s is formed from terms of size ln(lambda)."""
    lam_max = max(float(np.abs(st_.cov.entries).max()) for st_ in states)
    return 1e-9 * abs(value) + 256.0 * np.finfo(float).eps * max(1.0, math.log(2.0 * lam_max + 1.0))


def clamped(s: float) -> float:
    return min(max(s, S_ENDPOINT_EPS), 1.0 - S_ENDPOINT_EPS)


class TestStandardFormAgainstGenericRoute:
    @settings(max_examples=40, deadline=None)
    @given(model_scenarios(), st.floats(0.0, 1.0))
    def test_model_pairs(self, scenario, s):
        src, ch, noise = scenario
        pair = StandardFormPair.from_model(src, ch, noise)
        states = apply_noise(conditional_states(src, ch), noise)
        generic = _GaussianOverlap(*states)
        want = generic.log_c_slope(clamped(s))[0]
        assert abs(pair.log_c(s) - want) <= generic_tolerance(want, states)
        want_qcb = _weighted_result(generic.log_c_slope, 0.5).exponent
        assert abs(pair.qcb().exponent - want_qcb) <= generic_tolerance(want_qcb, states)
        want_ccb = _weighted_result(_ClassicalOverlap(heterodyne_distributions(*states)).log_c_slope,
                                    0.5).exponent
        assert abs(pair.heterodyne().ccb().exponent - want_ccb) <= generic_tolerance(want_ccb, states)

    @settings(max_examples=40, deadline=None)
    @given(standard_form_pairs(), st.floats(0.0, 1.0))
    def test_any_standard_form_pair(self, drawn, s):
        pair, entries = drawn
        states = [cm_state(*e) for e in entries]
        generic = _GaussianOverlap(*states)
        want = generic.log_c_slope(clamped(s))[0]
        assert abs(pair.log_c(s) - want) <= generic_tolerance(want, states)
        # the public functions dispatch these states to the closed form
        assert gaussian_s_overlap(*states, s) == min(math.exp(pair.log_c(s)), 1.0)
        want_qcb = _weighted_result(generic.log_c_slope, 0.5).exponent
        assert abs(qcb(*states).exponent - want_qcb) <= generic_tolerance(want_qcb, states)

    def test_unfactorizable_sum_raises_numeric_failure(self, monkeypatch):
        generic = _GaussianOverlap(*coherent_benchmark_states(0.01, REF_CH))

        def refuse(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        with pytest.raises(NumericFailure, match="not factorizable at s=0.5"):
            generic.log_c_slope(0.5)

    def test_slope_is_the_derivative(self):
        pair = StandardFormPair.from_model(REF_SRC, REF_CH, NoiseParams(1.0, 1.0))
        for s in (0.1, 0.5, 0.9):
            h = 1e-5
            numeric = (pair.log_c(s + h) - pair.log_c(s - h)) / (2.0 * h)
            assert pair._log_c_slope(s)[1] == pytest.approx(numeric, rel=1e-6)


class TestStandardFormProperties:
    @settings(max_examples=40, deadline=None)
    @given(model_scenarios())
    def test_log_c_convex_in_s(self, scenario):
        pair = StandardFormPair.from_model(*scenario)
        ss = np.linspace(0.0, 1.0, 41)
        for log_c in (pair.log_c, pair.heterodyne().log_c):
            values = np.array([log_c(float(s)) for s in ss])
            second = values[:-2] - 2.0 * values[1:-1] + values[2:]
            assert np.all(second >= -1e-12 * np.abs(values).max())

    @settings(max_examples=20, deadline=None)
    @given(model_scenarios(), st.floats(0.05, 0.95))
    def test_qcb_exponent_is_the_largest_over_s(self, scenario, prior):
        pair = StandardFormPair.from_model(*scenario)
        res = pair.qcb(prior_h0=prior)
        d_prior = math.log(prior) - math.log1p(-prior)
        # the search runs on the clamped [eps, 1 - eps], like log_c
        ss = np.linspace(S_ENDPOINT_EPS, 1.0 - S_ENDPOINT_EPS, 41)
        weighted = [s * d_prior + pair.log_c(s) for s in ss]
        best = res.s_star * d_prior - res.exponent
        assert min(weighted) >= best - 1e-12 * abs(best)

    def test_qcb_separates_from_qbb_at_the_golden_scenario(self):
        pair = StandardFormPair.from_model(REF_SRC, REF_CH)
        res = pair.qcb()
        # s* = 0.5000157 gains 6.4e-10 of the exponent over s = 1/2
        assert res.s_star == pytest.approx(0.5000157, abs=1e-7)
        assert res.exponent > -pair.log_c(0.5) * (1.0 + 1e-10)

    def test_identical_states_tie_to_half(self):
        res = StandardFormPair(40.0, 0.02, 0.0).qcb()
        assert (res.s_star, res.exponent) == (0.5, 0.0)

    def test_zero_reflectivity_gives_zero_exponents(self):
        pair = StandardFormPair.from_model(REF_SRC, ChannelParams(0.0, 20.0))
        assert pair.qcb().exponent == -pair.log_c(0.5) == pair.heterodyne().ccb().exponent == 0.0

    @pytest.mark.parametrize("entries", [
        (0.0, 0.0, 0.5),                     # symplectic eigenvalue 0.43 < 1/2
        (0.0, 0.0, 1.5),                     # a + b < 2|c|: not even positive definite
        (40.0, 0.02, 0.0, 0.0, 0.0, 1.0),    # H0 physical, H1 not
        (-6.0, -6.0, 0.0),
    ])
    def test_unphysical_input_raises(self, entries):
        with pytest.raises(ValueError, match="not physical"):
            StandardFormPair(*entries)


# N_S = N_I in {0.01, 0.1}, N_B in {1, 20}, kappa = 0.01, c = c_q; then exponents
# second order in the state difference: no correlation, a weak classical one,
# and a nearly pure idler under a bright background
GOLDEN_FAMILY = [ScenarioParams(ns=n, ni=n, c="quantum", kappa=0.01, nb=nb)
                 for n in (0.01, 0.1) for nb in (1.0, 20.0)]
SECOND_ORDER = [
    ScenarioParams(ns=0.01, ni=0.0),
    ScenarioParams(ns=4.3e-3, ni=5.3e-4, c="direct", kappa=3.9e-4, nb=2.4e4, eps_i=1.0),
    ScenarioParams(ns=1e-8, ni=1e-8, nb=1e6),
]


def test_gap_kernels_against_mpmath():
    xs = np.concatenate([np.geomspace(1e-12, 0.5, 60), -np.geomspace(1e-12, 0.5, 60)])
    for kernel, exact in ((_log1p_gap, lambda x: mpmath.log1p(x) - x),
                          (_expm1_gap, lambda x: mpmath.expm1(x) - x)):
        with mpmath.workdps(40):
            want = [float(exact(mpmath.mpf(float(x)))) for x in xs]
        assert np.allclose([kernel(float(x)) for x in xs], want, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("u", [1e3, 1e5, 1e8, 1e10, 1e18, 1e20])
def test_heterodyne_log_c_at_large_u_against_mpmath(u):
    # s g(u) - g(s u), g = log1p(x) - x, is a difference of two terms of size
    # u: at u = 1e18 it read a relative error of 1.0. Uncorrelated (z = 0)
    # and correlated (dA = dB = d with C0 = 1/2, so z = d^2/d0 != 0) pairs
    d = math.sqrt(1.0 + 0.75 * u) - 1.0
    for entries in ((1.0, 1.0, 0.0, u, 0.0, 0.0), (1.0, 1.0, 0.5, d, d, 0.0)):
        densities = StandardFormDensities(*entries)
        with mpmath.workdps(60):
            a0, b0, c0, da, db, dc = map(mpmath.mpf, entries)
            d0 = a0 * b0 - c0 * c0
            y = (b0 * da + a0 * db - 2 * c0 * dc) / d0
            z = (da * db - dc * dc) / d0
            assert (z != 0) == (entries[2] != 0.0)
            for s in (0.1, 0.5, 0.9):
                s_ = mpmath.mpf(s)
                want = s_ * mpmath.log1p(y + z) - mpmath.log1p(s_ * y + s_ ** 2 * z)
                got = densities.log_c(s)
                assert abs(got - want) <= 1e-14 * abs(want), (entries, s, got, float(want))


@pytest.mark.parametrize("scenario", GOLDEN_FAMILY + SECOND_ORDER)
def test_sweep_bound_rates_within_1e12_of_mpmath(scenario):
    result = compute_sweep(SweepSpec(scenario, (1,), ("QI-QCB", "QI-QBB", "QI+Het+CCB")))
    exact = mp_model_exponents(*scenario.resolve())
    for label, rate in zip(result.receivers, result.per_mode_rate):
        assert abs(rate - exact[label]) <= 1e-12 * exact[label]


@pytest.mark.parametrize("scenario", GOLDEN_FAMILY + SECOND_ORDER)
def test_sweep_bound_rates_within_1e12_of_mpmath_at_the_largest_background(scenario):
    bright = dataclasses.replace(scenario, nb=MAX_BOUND_RETURN_EXCESS / 2)
    result = compute_sweep(SweepSpec(bright, (1,), ("QI-QCB", "QI-QBB", "QI+Het+CCB")))
    # the exponents are ~N_B^-2 of terms of order ln N_B: 2 digits per decade
    exact = mp_model_exponents(*bright.resolve(), dps=140)
    for label, rate in zip(result.receivers, result.per_mode_rate):
        assert abs(rate - exact[label]) <= 1e-12 * exact[label]


@pytest.mark.parametrize("scenario", GOLDEN_FAMILY + SECOND_ORDER)
def test_sweep_bound_rates_within_1e12_of_mpmath_at_the_largest_idler(scenario):
    # N_I at the limit also raises the quantum correlation, and with it the
    # squeezing mismatch whose denominator overflows just past the limit
    bright = dataclasses.replace(scenario, ni=MAX_BOUND_IDLER_EXCESS / 2)
    result = compute_sweep(SweepSpec(bright, (1,), ("QI-QCB", "QI-QBB", "QI+Het+CCB")))
    exact = mp_model_exponents(*bright.resolve(), dps=140)
    for label, rate in zip(result.receivers, result.per_mode_rate):
        assert abs(rate - exact[label]) <= 1e-12 * exact[label]


@pytest.mark.parametrize("scenario", GOLDEN_FAMILY + SECOND_ORDER)
def test_sweep_bound_rates_within_1e12_of_mpmath_at_the_largest_signal(scenario):
    # the H1 return excess 2 kappa N_S at its limit; s* falls to ~0.1 here,
    # which the oracle's bracketed search still finds
    bright = dataclasses.replace(scenario, ns=MAX_BOUND_SIGNAL_EXCESS / (2.0 * scenario.kappa))
    result = compute_sweep(SweepSpec(bright, (1,), ("QI-QCB", "QI-QBB", "QI+Het+CCB")))
    exact = mp_model_exponents(*bright.resolve(), dps=140)
    for label, rate in zip(result.receivers, result.per_mode_rate):
        assert abs(rate - exact[label]) <= 1e-12 * exact[label]


class TestCoherentBackgroundLimit:
    """bounds.MAX_COHERENT_BACKGROUND: where the CS-QCB and CS+Hom rates stop."""

    def test_rates_within_4_ulps_of_mpmath_up_to_the_limit(self):
        rng = np.random.default_rng(11)
        nbs = [1e300, 1e307, 4e307, 4.4e307, MAX_COHERENT_BACKGROUND]
        for nb in nbs:
            for _ in range(40):
                # rates from ~1e-303 up: normal doubles
                ns, kappa = 10.0 ** rng.uniform(10, 300), 10.0 ** rng.uniform(-4, 0)
                ch = ChannelParams(kappa, nb)
                with mpmath.workdps(40):
                    k, n, b = mpmath.mpf(kappa), mpmath.mpf(ns), mpmath.mpf(nb)
                    cs = k * n / (mpmath.sqrt(b + 1) + mpmath.sqrt(b)) ** 2
                    hom = k * n / (4 * b + 2)
                assert ulp_error(cs_qcb(ns, ch).exponent, cs) <= 4.0, (ns, kappa, nb)
                assert ulp_error(homodyne_rate(ns, ch), hom) <= 4.0, (ns, kappa, nb)

    @pytest.mark.parametrize("nb", [math.nextafter(MAX_COHERENT_BACKGROUND, math.inf),
                                    4.4942328371557893e307, 1e308])
    def test_past_the_limit_both_rates_raise_naming_nb(self, nb):
        # at max/4 cs_qcb's half-coth sum overflows, and its exponent would read 0
        ch = ChannelParams(1.0, nb)
        for rate in (lambda: cs_qcb(1e150, ch, 0.5), lambda: cs_qcb(1e150, ch, 0.3),
                     lambda: homodyne_rate(1e150, ch)):
            with pytest.raises(ValueError, match="--nb"):
                rate()


def test_bound_rows_reject_a_background_past_the_largest():
    src, ch, noise = ScenarioParams(ns=0.01, ni=0.01).resolve()
    largest = MAX_BOUND_RETURN_EXCESS / 2
    past = ChannelParams(ch.reflectivity, math.nextafter(largest, math.inf))
    StandardFormPair.from_model(src, ChannelParams(ch.reflectivity, largest), noise)
    with pytest.raises(ValueError, match="--nb"):
        StandardFormPair.from_model(src, past, noise)


@pytest.mark.parametrize("flag, field, largest", [
    ("--eps-r", "eps_r", MAX_BOUND_RETURN_EXCESS),
    ("--eps-i", "eps_i", MAX_BOUND_IDLER_EXCESS),
    ("--ni", "ni", MAX_BOUND_IDLER_EXCESS / 2),
    ("--ns, --kappa", "ns", MAX_BOUND_SIGNAL_EXCESS / (2 * 0.01)),
])
def test_bound_rows_reject_an_excess_past_the_largest(flag, field, largest):
    # the limits hold the excess 2 N + eps of each mode, and H1's 2 kappa N_S,
    # not N_B alone
    scenario = ScenarioParams(ns=0.01, ni=0.01, nb=0.0)
    at = dataclasses.replace(scenario, **{field: largest})
    StandardFormPair.from_model(*at.resolve())
    past = dataclasses.replace(scenario, **{field: 1.5 * largest})
    with pytest.raises(ValueError, match=flag):
        StandardFormPair.from_model(*past.resolve())


@st.composite
def bright_model_scenarios(draw):
    """Model scenarios with return and idler excesses up to their limits."""
    def up_to(limit):
        return st.one_of(st.just(0.0), log_uniform(1e-3, limit))

    src = make_source(draw(log_uniform(1e-8, 1e2)), draw(up_to(MAX_BOUND_IDLER_EXCESS / 4)), 0.0)
    src = SourceParams(src.n_signal, src.n_idler, draw(st.floats(0.0, 1.0)) * c_quantum(src))
    ch = ChannelParams(draw(log_uniform(1e-6, 1.0)), draw(up_to(MAX_BOUND_RETURN_EXCESS / 4)))
    noise = NoiseParams(draw(up_to(MAX_BOUND_RETURN_EXCESS / 2)),
                        draw(up_to(MAX_BOUND_IDLER_EXCESS / 2)))
    return src, ch, noise


@settings(max_examples=200, deadline=None)
@given(bright_model_scenarios())
# a faint H1 return over a vacuum background, whose exact 2 kappa N_S excess
# was once snapped to a pure mode, reading QCB = 0 below the CCB
@example((SourceParams(1e-8, 0.0, 0.0), ChannelParams(1e-6, 0.0), NoiseParams()))
def test_qcb_bounds_the_heterodyne_ccb_up_to_the_limits(scenario):
    # heterodyne then the CCB is one measurement, and the QCB bounds every one
    pair = StandardFormPair.from_model(*scenario)
    qcb_exponent, ccb_exponent = pair.qcb().exponent, pair.heterodyne().ccb().exponent
    assert qcb_exponent >= ccb_exponent * (1.0 - 1e-12)


@pytest.mark.parametrize("n_signal, kappa", [(1e-8, 1e-6), (1e-3, 1e-9), (0.01, 0.01), (1.0, 0.5)])
def test_faint_return_over_a_vacuum_background_has_the_pure_h0_exponents(n_signal, kappa):
    # H0 is the vacuum return beside the vacuum idler, so
    # C_s = <0|rho_1^(1-s)|0> = (1 + kappa N_S)^-(1-s): the QBB is
    # ln(1 + kappa N_S)/2 and the QCB sits at the s endpoint, however faint
    # the return (mp_model_exponents raises on a pure H0). An excess is
    # snapped to a pure mode below 64*_EPS*h, _EPS the double's epsilon
    assert _EPS == 2.0 ** -52
    pair = StandardFormPair.from_model(SourceParams(n_signal, 0.0, 0.0),
                                       ChannelParams(kappa, 0.0), NoiseParams())
    with mpmath.workdps(50):
        log_gain = mpmath.log1p(mpmath.mpf(kappa) * n_signal)
        assert ulp_error(-pair.log_c(0.5), log_gain / 2) <= 2.0
        assert ulp_error(pair.qcb().exponent, (1 - mpmath.mpf(S_ENDPOINT_EPS)) * log_gain) <= 2.0
