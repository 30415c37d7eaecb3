"""Source/channel/noise model tests."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import Hypothesis, homodyne_errors, source_cm
from qillum.cli import ScenarioParams, SweepSpec
from qillum.montecarlo import SamplerConfig, empirical_error_rate
from qillum.receiver import homodyne_min_error
from qillum.states import (
    ChannelParams,
    GaussianState,
    NoiseParams,
    SourceParams,
    apply_noise,
    c_direct,
    c_quantum,
    coherent_benchmark_states,
    conditional_states,
    make_source,
)
from qillum.symplectic import CovMatrix, is_physical, symplectic_eigenvalues

REF_CH = ChannelParams(reflectivity=0.01, n_background=20.0)
REF_SRC = make_source(0.01, 0.01, corr="quantum")

# every library entry that takes a pulse count m (a sweep's are checked once,
# in SweepSpec), and the test oracle homodyne_errors
PULSE_ENTRIES = {
    "SweepSpec": lambda m: SweepSpec(ScenarioParams(), (m,), ("QI+PC", "CS-QCB")),
    "homodyne_errors": lambda m: homodyne_errors(0.01, REF_CH, m, 0.0),
    "homodyne_min_error": lambda m: homodyne_min_error(0.01, REF_CH, m),
    "empirical_error_rate": lambda m: empirical_error_rate(
        REF_SRC, REF_CH, NoiseParams(), m, SamplerConfig(seed=1, n_samples=10)),
}


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(PULSE_ENTRIES))
def test_non_finite_pulse_count_rejected(entry, m):
    with pytest.raises(ValueError, match="pulse count m must be a positive integer"):
        PULSE_ENTRIES[entry](m)


@pytest.mark.parametrize("m", [10 ** 310, int(sys.float_info.max) + 1])
@pytest.mark.parametrize("entry", sorted(PULSE_ENTRIES))
def test_pulse_count_above_the_largest_double_rejected(entry, m):
    # such an m once passed, and float(m) then raised a bare OverflowError
    with pytest.raises(ValueError, match="pulse count m must be a positive integer"):
        PULSE_ENTRIES[entry](m)


def test_largest_double_pulse_count_accepted():
    m = int(sys.float_info.max)
    assert SweepSpec(ScenarioParams(), (2 ** 53 + 1, m), ("CS-QCB",)).m_values == (2 ** 53 + 1, m)


class TestSourceParams:
    def test_nu_mu(self):
        src = SourceParams(0.3, 1.2)
        assert src.nu == pytest.approx(1.6, abs=0)
        assert src.mu == pytest.approx(3.4, abs=0)

    def test_negative_brightness_rejected(self):
        with pytest.raises(ValueError, match="n_signal"):
            SourceParams(-0.1, 0.5)
        with pytest.raises(ValueError, match="n_idler"):
            SourceParams(0.5, -0.1)
        with pytest.raises(ValueError, match="corr"):
            SourceParams(0.5, 0.5, -0.01)

    def test_corr_above_quantum_bound_rejected(self):
        with pytest.raises(ValueError, match=r"2\*sqrt\(N_S\*\(N_I\+1\)\)"):
            SourceParams(0.01, 0.01, 0.21)

    def test_corr_at_exact_bound_accepted(self):
        cq = 2.0 * math.sqrt(0.01 * 1.01)
        src = SourceParams(0.01, 0.01, cq)
        assert src.corr == cq

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SourceParams(math.nan, 0.1)
        with pytest.raises(ValueError):
            SourceParams(0.1, math.inf)


class TestChannelParams:
    def test_omega_gamma(self):
        assert REF_CH.omega == pytest.approx(41.0, abs=0)
        assert REF_CH.gamma(0.01) == pytest.approx(41.0002, abs=1e-15)

    def test_reflectivity_range(self):
        with pytest.raises(ValueError, match="reflectivity"):
            ChannelParams(-0.01, 1.0)
        with pytest.raises(ValueError, match="reflectivity"):
            ChannelParams(1.01, 1.0)
        ChannelParams(0.0, 1.0)
        ChannelParams(1.0, 1.0)

    def test_negative_background_rejected(self):
        with pytest.raises(ValueError, match="n_background"):
            ChannelParams(0.5, -1.0)


class TestNoiseParams:
    def test_defaults_zero(self):
        noise = NoiseParams()
        assert noise.eps_return == 0.0 and noise.eps_idler == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NoiseParams(eps_return=-0.5)
        with pytest.raises(ValueError):
            NoiseParams(eps_idler=-0.5)


class TestCorrelationBounds:
    def test_quantum_bound_value(self):
        src = SourceParams(0.01, 0.01)
        assert c_quantum(src) == pytest.approx(0.20099751242241781, rel=1e-15)

    def test_direct_bound_value(self):
        src = SourceParams(0.01, 0.01)
        assert c_direct(src) == pytest.approx(0.02, rel=1e-15)

    @pytest.mark.parametrize("ns, ni", [(1e200, 1e200), (1e160, 1e150), (1e308, 2.0)])
    def test_overflowing_bounds_name_the_flags(self, ns, ni):
        # the product under the root is inf: a ValueError, not c = inf
        for bound in (c_quantum, c_direct):
            with pytest.raises(ValueError, match="--ns and --ni"):
                bound(SourceParams(ns, ni))
        # but every finite corr is within the overflowed c_q
        assert SourceParams(ns, ni, 1.0).corr == 1.0

    def test_bounds_below_the_overflow_keep_their_bits(self):
        # the largest arguments whose products stay finite
        assert c_direct(SourceParams(1e300, 1e8)) == 2.0 * math.sqrt(1e300 * 1e8)
        assert c_quantum(SourceParams(1e-300, 1e300)) == 2.0 * math.sqrt(1e-300 * (1e300 + 1.0))

    def test_make_source_modes(self):
        q = make_source(0.01, 0.01, "quantum")
        d = make_source(0.01, 0.01, "direct")
        f = make_source(0.01, 0.01, 0.1)
        assert q.corr == pytest.approx(0.20099751242241781, rel=1e-15)
        assert d.corr == pytest.approx(0.02, rel=1e-15)
        assert f.corr == 0.1
        with pytest.raises(ValueError, match="corr mode"):
            make_source(0.01, 0.01, "maximal")


class TestSourceCm:
    def test_block_structure(self):
        src = make_source(0.4, 0.7, 0.3)
        v = source_cm(src).entries
        assert np.allclose(v[0:2, 0:2], 0.5 * src.nu * np.eye(2))
        assert np.allclose(v[2:4, 2:4], 0.5 * src.mu * np.eye(2))
        assert np.allclose(v[0:2, 2:4], 0.5 * 0.3 * np.diag([1.0, -1.0]))
        assert np.allclose(v, v.T)

    def test_quantum_limit_sits_on_physicality_boundary(self):
        # at c = c_q the smaller symplectic eigenvalue is exactly 1/2
        src = make_source(0.01, 0.01, "quantum")
        nus = symplectic_eigenvalues(source_cm(src))
        assert nus[-1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("ns,ni", [(0.2, 0.01), (0.01, 0.2), (0.113, 0.0069)])
    def test_quantum_source_physical_whichever_mode_is_brighter(self, ns, ni):
        # the bound is 2*sqrt(min(N_S*(N_I+1), N_I*(N_S+1))), so at c_q the
        # smaller symplectic eigenvalue is 1/2 even when N_S > N_I
        nus = symplectic_eigenvalues(source_cm(make_source(ns, ni, "quantum")))
        assert nus[-1] == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match="quantum correlation bound"):
            SourceParams(ns, ni, 2.0 * math.sqrt(max(ns * (ni + 1.0), ni * (ns + 1.0))))

    def test_equal_brightness_quantum_source_is_pure(self):
        src = make_source(0.37, 0.37, "quantum")
        nus = symplectic_eigenvalues(source_cm(src))
        assert np.allclose(nus, 0.5, atol=1e-12)

    @given(
        ns=st.floats(0.0, 3.0),
        extra=st.floats(0.0, 2.0),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_physical_for_any_subquantum_corr(self, ns, extra, frac):
        ni = ns + extra
        src = SourceParams(ns, ni, frac * 2.0 * math.sqrt(ns * (ni + 1.0)))
        assert is_physical(source_cm(src))


class TestConditionalStates:
    def test_h0_is_background_times_idler(self):
        src = make_source(0.01, 0.01, "quantum")
        h0, _ = conditional_states(src, REF_CH)
        assert np.allclose(h0.cov.entries, np.diag([20.5, 20.5, 0.51, 0.51]))
        assert np.all(h0.mean == 0.0)

    def test_h1_blocks(self):
        src = make_source(0.01, 0.01, "quantum")
        _, h1 = conditional_states(src, REF_CH)
        v = h1.cov.entries
        assert v[0, 0] == pytest.approx(41.0002 / 2.0, rel=1e-15)
        assert v[2, 2] == pytest.approx(0.51, rel=1e-15)
        cross = 0.5 * 0.1 * 0.20099751242241781
        assert v[0, 2] == pytest.approx(cross, rel=1e-14)
        assert v[1, 3] == pytest.approx(-cross, rel=1e-14)
        assert v[0, 3] == 0.0 and v[1, 2] == 0.0
        assert np.all(h1.mean == 0.0)

    def test_zero_reflectivity_collapses_hypotheses(self):
        src = make_source(0.05, 0.05, "quantum")
        ch = ChannelParams(0.0, 3.0)
        h0, h1 = conditional_states(src, ch)
        assert np.allclose(h0.cov.entries, h1.cov.entries, atol=0)

    @given(
        ns=st.floats(1e-4, 2.0),
        extra=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        nb=st.floats(0.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_both_hypotheses_physical(self, ns, extra, kappa, nb):
        src = make_source(ns, ns + extra, "quantum")
        ch = ChannelParams(kappa, nb)
        h0, h1 = conditional_states(src, ch)
        assert is_physical(h0.cov)
        assert is_physical(h1.cov)


class TestApplyNoise:
    def test_heterodyne_style_noise_on_fig2_h0(self):
        src = make_source(0.01, 0.01, "quantum")
        pair = conditional_states(src, REF_CH)
        h0, h1 = apply_noise(pair, NoiseParams(eps_return=1.0, eps_idler=1.0))
        assert np.allclose(h0.cov.entries, np.diag([21.0, 21.0, 1.01, 1.01]))
        assert h1.cov.entries[0, 0] == pytest.approx((41.0002 + 1.0) / 2.0, rel=1e-15)
        assert h1.cov.entries[2, 2] == pytest.approx(1.01, rel=1e-15)

    def test_cross_block_and_mean_untouched(self):
        src = make_source(0.2, 0.3, "quantum")
        pair = conditional_states(src, ChannelParams(0.3, 2.0))
        noisy = apply_noise(pair, NoiseParams(0.7, 0.4))
        for before, after in zip(pair, noisy):
            assert np.allclose(after.cov.entries[0:2, 2:4], before.cov.entries[0:2, 2:4])
            assert np.all(after.mean == before.mean)

    def test_additive_in_eps(self):
        src = make_source(0.1, 0.1, "quantum")
        pair = conditional_states(src, ChannelParams(0.5, 1.0))
        once = apply_noise(pair, NoiseParams(0.8, 0.6))
        twice = apply_noise(apply_noise(pair, NoiseParams(0.5, 0.2)), NoiseParams(0.3, 0.4))
        for a, b in zip(once, twice):
            assert np.allclose(a.cov.entries, b.cov.entries, atol=1e-15)

    def test_zero_noise_is_identity(self):
        src = make_source(0.1, 0.1, "quantum")
        pair = conditional_states(src, ChannelParams(0.5, 1.0))
        same = apply_noise(pair, NoiseParams())
        for a, b in zip(pair, same):
            assert np.array_equal(a.cov.entries, b.cov.entries)


class TestCoherentBenchmark:
    def test_reference_mean_and_cov(self):
        h0, h1 = coherent_benchmark_states(0.01, REF_CH)
        assert np.allclose(h0.cov.entries, 20.5 * np.eye(2))
        assert np.allclose(h1.cov.entries, 20.5 * np.eye(2))
        assert np.all(h0.mean == 0.0)
        assert h1.mean[0] == pytest.approx(0.014142135623730951, rel=1e-15)
        assert h1.mean[1] == 0.0

    def test_mean_energy_matches_probe(self):
        # <q>^2/2 = kappa*N_S when the probe carries N_S photons
        h0, h1 = coherent_benchmark_states(0.7, ChannelParams(0.35, 2.0))
        assert h1.mean[0] ** 2 / 2.0 == pytest.approx(0.35 * 0.7, rel=1e-14)

    def test_negative_signal_rejected(self):
        with pytest.raises(ValueError, match="n_signal"):
            coherent_benchmark_states(-0.1, REF_CH)


class TestGaussianState:
    def test_mean_length_checked(self):
        cov = CovMatrix(0.5 * np.eye(4))
        with pytest.raises(ValueError, match="mean"):
            GaussianState(np.zeros(3), cov)

    def test_unphysical_cov_rejected(self):
        with pytest.raises(ValueError, match="physical"):
            GaussianState(np.zeros(2), CovMatrix(0.3 * np.eye(2)))

    def test_mean_is_frozen(self):
        state = GaussianState(np.zeros(2), CovMatrix(0.5 * np.eye(2)))
        with pytest.raises(ValueError):
            state.mean[0] = 1.0

    def test_hypothesis_labels(self):
        assert Hypothesis.H0.value == "target absent"
        assert Hypothesis.H1.value == "target present"
