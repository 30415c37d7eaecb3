"""Sampling checks: determinism, stream layout, calibration against closed forms,
identities and bounded memory."""
import concurrent.futures
import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import qillum.montecarlo
from qillum.errors import NumericFailure
from qillum.montecarlo import (
    EmpiricalStats,
    SamplerConfig,
    deflection_se,
    empirical_error_rate,
    sample_quadratures,
    simulate_pc_receiver,
)
from qillum.montecarlo import _MAX_WORKERS, _block_generator, _block_trial_means, _count_weights
from qillum.receiver import beamsplitter_moments, half_erfc, snr_pc
from qillum.states import (
    ChannelParams,
    GaussianState,
    NoiseParams,
    SourceParams,
    apply_noise,
    conditional_states,
    make_source,
)
from qillum.symplectic import CovMatrix

from _oracles import (
    Hypothesis,
    check_gaussian_moment_identities,
    deflection_sigma,
    difference_count,
    matrix_count_weights,
    mp_midpoint_error_rate,
    mp_one_pulse_count_cdf,
    one_pulse_count_cdf,
    pc_transform,
    pulse_error_rate,
    pulse_trial_means,
    sample_pc_modes,
    serial_error_rate,
    serial_pc_receiver,
    source_cm,
    streamed_moments,
    trial_mean_blocks,
    two_pass_moments,
)

REF_SRC = make_source(0.01, 0.01, corr="quantum")
REF_CH = ChannelParams(reflectivity=0.01, n_background=20.0)
NO_NOISE = NoiseParams()

# closed-form target frozen in the receiver tests
SNR_QI_PC = 2.3575929806957360e-06


def vacuum_state(n_modes: int = 1) -> GaussianState:
    dim = 2 * n_modes
    return GaussianState(mean=np.zeros(dim), cov=CovMatrix(0.5 * np.eye(dim)))


class TestSamplerConfig:
    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1, n_samples=10)
        with pytest.raises(ValueError):
            SamplerConfig(seed=2 ** 64, n_samples=10)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, n_samples=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, n_samples=1.5)

    @pytest.mark.parametrize("seed, n_samples", [(True, 10), (1, True), (False, 10), (True, True)])
    def test_rejects_bools(self, seed, n_samples):
        # Python counts a bool as an int; neither is a seed or a sample count
        with pytest.raises(ValueError, match="seed must be|n_samples must be"):
            SamplerConfig(seed=seed, n_samples=n_samples)


class TestSampleQuadratures:
    def test_bit_identical_repeat(self):
        cfg = SamplerConfig(seed=7, n_samples=1000)
        a = sample_quadratures(vacuum_state(2), cfg)
        b = sample_quadratures(vacuum_state(2), cfg)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = sample_quadratures(vacuum_state(), SamplerConfig(seed=1, n_samples=100))
        b = sample_quadratures(vacuum_state(), SamplerConfig(seed=2, n_samples=100))
        assert not np.array_equal(a, b)

    def test_stream_changes_output(self):
        cfg = SamplerConfig(seed=1, n_samples=100)
        a = sample_quadratures(vacuum_state(), cfg, stream=0)
        b = sample_quadratures(vacuum_state(), cfg, stream=1)
        assert not np.array_equal(a, b)

    def test_shape_and_mean_offset(self):
        state = GaussianState(mean=np.array([3.0, -1.0]), cov=CovMatrix(0.5 * np.eye(2)))
        xs = sample_quadratures(state, SamplerConfig(seed=5, n_samples=200000))
        assert xs.shape == (200000, 2)
        assert abs(xs[:, 0].mean() - 3.0) < 5 * math.sqrt(0.5 / 200000)

    def test_vacuum_variance_half(self):
        n = 1_000_000
        xs = sample_quadratures(vacuum_state(), SamplerConfig(seed=11, n_samples=n))
        se = 0.5 * math.sqrt(2.0 / (n - 1))
        for col in range(2):
            assert abs(xs[:, col].var(ddof=1) - 0.5) <= 5 * se

    def test_twin_beam_cross_covariance(self):
        src = make_source(1.0, 1.0, corr="quantum")
        state = GaussianState(mean=np.zeros(4), cov=source_cm(src))
        n = 1_000_000
        xs = sample_quadratures(state, SamplerConfig(seed=13, n_samples=n))
        target = src.corr / 2.0
        v = (2 * src.n_signal + 1) / 2.0
        se = math.sqrt((v * v + target * target) / n)
        cov_qq = float(np.mean(xs[:, 0] * xs[:, 2]))
        cov_pp = float(np.mean(xs[:, 1] * xs[:, 3]))
        assert abs(cov_qq - target) <= 5 * se
        assert abs(cov_pp + target) <= 5 * se

    def test_factorization_failure_raises(self, monkeypatch):
        state = vacuum_state()

        def boom(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", boom)
        with pytest.raises(NumericFailure):
            sample_quadratures(state, SamplerConfig(seed=1, n_samples=10))


BLOCK = 2 ** 16  # samples per block of the stream layout


def shipped_trial_means(weights, m: int, seed: int, stream: int, n: int) -> np.ndarray:
    """A stream's first n trial means, drawn block after block by the samplers' block worker."""
    scratch = np.empty(BLOCK)
    return np.concatenate([_block_trial_means(np.empty(min(BLOCK, n - start)), scratch,
                                              weights, m, seed, stream, block)
                           for block, start in enumerate(range(0, n, BLOCK))])


class TestStreamLayout:
    """Samples come from fixed 2**16-sample blocks, block b from SFC64(SeedSequence(k, spawn_key=(s, b)))."""

    SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)

    def test_quadrature_prefix_independent_of_count(self):
        state = GaussianState(mean=np.zeros(4), cov=source_cm(make_source(1.0, 0.5, corr=0.9)))
        runs = [sample_quadratures(state, SamplerConfig(seed=31, n_samples=n), stream=5)
                for n in self.SIZES]
        longest = runs[-1]
        for xs in runs:
            assert np.array_equal(xs, longest[:len(xs)])
        # block 1 has its own generator, not block 0's again
        assert not np.array_equal(longest[:8], longest[BLOCK:BLOCK + 8])

    def test_pc_mode_prefix_independent_of_count(self):
        for hyp in Hypothesis:
            runs = [sample_pc_modes(REF_SRC, REF_CH, NO_NOISE,
                                    SamplerConfig(seed=32, n_samples=n), hyp)
                    for n in self.SIZES]
            for modes in runs:
                assert np.array_equal(modes, runs[-1][:len(modes)])

    @pytest.mark.parametrize("n", [2, 1000, BLOCK])
    def test_block_zero_is_the_single_philox_draw(self, n):
        # up to 2**16 rows, a stream is the single draw of its block-0 generator
        def block_zero_normals(stream, width):
            return _block_generator(33, stream, 0).standard_normal((n, width))

        state = pc_transform(apply_noise(conditional_states(REF_SRC, REF_CH), NO_NOISE))[1]
        chol = np.linalg.cholesky(state.cov.entries)
        z = block_zero_normals(2, 4)
        # the sampler's order: z_i L_ii first, then z_k L_ik for k < i
        xs = state.mean + np.column_stack([sum((z[:, k] * chol[i, k] for k in range(i)),
                                               z[:, i] * chol[i, i]) for i in range(4)])
        cfg = SamplerConfig(seed=33, n_samples=n)
        assert np.array_equal(sample_quadratures(state, cfg, stream=2), xs)

        # the conjugated (q_pc, p_pc, q_I, p_I) samples, mixed 50-50
        modes = np.column_stack([xs[:, 0] + xs[:, 2], xs[:, 1] + xs[:, 3],
                                 xs[:, 0] - xs[:, 2], xs[:, 1] - xs[:, 3]]) * (1.0 / math.sqrt(2.0))
        assert np.array_equal(sample_pc_modes(REF_SRC, REF_CH, NO_NOISE, cfg, Hypothesis.H1), modes)

    def test_streamed_moments_match_two_pass(self):
        n = 3 * BLOCK + 5
        cfg = SamplerConfig(seed=34, n_samples=n)
        stats = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)
        weights = _count_weights(REF_SRC, REF_CH, NO_NOISE)
        for pair, stream, suffix in zip(weights, (0, 2), ("h0", "h1")):
            counts = np.concatenate(list(trial_mean_blocks(pair, 1, cfg.seed, stream, n)))
            exact = two_pass_moments(counts)
            (streamed,) = streamed_moments((counts[i:i + BLOCK],) for i in range(0, n, BLOCK))
            for field in ("mean", "var", "se_mean", "se_var"):
                assert getattr(stats, f"{field}_{suffix}") == pytest.approx(exact[field], rel=1e-12)
            for field in exact:
                assert getattr(streamed, field) == pytest.approx(exact[field], rel=1e-12)

    @pytest.mark.parametrize("m, n_trials", [(7, 20_000), (800, 250)])
    def test_trial_means_straddle_blocks(self, m, n_trials):
        # m does not divide 2**16, so some trials take pulses from two blocks
        assert BLOCK % m and n_trials * m > 2 * BLOCK
        cfg = SamplerConfig(seed=35, n_samples=n_trials)
        for hyp in Hypothesis:
            pulses = SamplerConfig(seed=35, n_samples=n_trials * m)
            counts = difference_count(sample_pc_modes(REF_SRC, REF_CH, NO_NOISE, pulses, hyp))
            expected = counts.reshape(n_trials, m).mean(axis=1)
            # relative to the mean |count| of the trial: an average near 0 carries
            # the rounding of its terms, not of itself
            scale = np.abs(counts).reshape(n_trials, m).mean(axis=1)
            got = pulse_trial_means(REF_SRC, REF_CH, NO_NOISE, m, cfg, hyp)
            assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    @pytest.mark.parametrize("m", [1, 50, 10 ** 12])
    def test_trial_prefix_independent_of_count(self, m):
        weights = _count_weights(REF_SRC, REF_CH, NO_NOISE)[1]
        runs = [shipped_trial_means(weights, m, 36, 2, n) for n in self.SIZES]
        longest = runs[-1]
        for means in runs:
            if m > 1:
                assert np.array_equal(means, longest[:len(means)])
                continue
            # at m = 1 a full block's bits do not depend on the count, and a
            # partial last block draws its branch count for its own length
            full = len(means) // BLOCK * BLOCK
            assert np.array_equal(means[:full], longest[:full])
            if full < len(means):
                last = list(trial_mean_blocks(weights, 1, 36, 2, len(means)))[-1]
                assert np.array_equal(means[full:], last)
        assert not np.array_equal(longest[:8], longest[BLOCK:BLOCK + 8])

    def test_trial_block_zero_is_the_single_philox_draw(self):
        weights = _count_weights(REF_SRC, REF_CH, NO_NOISE)[0]
        lam_plus, lam_minus = weights
        g = _block_generator(37, 0, 0).standard_gamma(50, size=(1000, 2))
        expected = g[:, 0] * (2.0 * lam_plus / 50) + g[:, 1] * (2.0 * lam_minus / 50)
        got = shipped_trial_means(weights, 50, 37, 0, 1000)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("stream", [0, 2])
    def test_block_b_is_its_spawned_sfc64_draw(self, stream):
        lam_plus, lam_minus = weights = _count_weights(REF_SRC, REF_CH, NO_NOISE)[stream // 2]
        got = shipped_trial_means(weights, 7, 39, stream, 6 * BLOCK)
        for block in (0, 1, 5):
            seq = np.random.SeedSequence(39, spawn_key=(stream, block))
            g = np.random.Generator(np.random.SFC64(seq)).standard_gamma(7, size=(BLOCK, 2))
            expected = g[:, 0] * (2.0 * lam_plus / 7) + g[:, 1] * (2.0 * lam_minus / 7)
            assert np.array_equal(got[block * BLOCK:(block + 1) * BLOCK], expected), block

    @pytest.mark.parametrize("m", [1, 50])
    def test_full_block_takes_two_draws(self, monkeypatch, m):
        calls = []

        class Counting:
            """A generator that records each draw method it hands out."""

            def __init__(self, gen, key):
                self.gen, self.key = gen, key

            def __getattr__(self, name):
                calls.append((self.key, name))
                return getattr(self.gen, name)

        real = qillum.montecarlo._block_generator
        monkeypatch.setattr(qillum.montecarlo, "_block_generator",
                            lambda *key: Counting(real(*key), key))
        weights = _count_weights(REF_SRC, REF_CH, NO_NOISE)[1]
        got = _block_trial_means(np.empty(BLOCK), np.empty(BLOCK), weights, m, 40, 2, 3)
        assert len(calls) == 2
        # m = 1: one exponential draw and then one binomial draw on the block's
        # generator; m >= 2: two gamma half-blocks on the block's
        expected = ([((40, 2, 3), "standard_exponential"), ((40, 2, 3), "binomial")] if m == 1
                    else [((40, 2, 3), "standard_gamma")] * 2)
        assert calls == expected
        # the same bits as the serial route's whole-block draw
        assert np.array_equal(got, list(trial_mean_blocks(weights, m, 40, 2, 4 * BLOCK))[3])


# criterion 1's grid, with N_S = N_I at the quantum correlation
GRID = [(ns, nb, kappa) for ns in (0.001, 0.01, 0.1, 1.0, 10.0)
        for nb in (0.0, 0.1, 1.0, 20.0, 100.0) for kappa in (0.001, 0.01, 0.1)]

# the validation scenario of the sampling script and of perfbench's mc_validation
VAL_SRC = make_source(0.2, 0.2, corr="quantum")
VAL_CH = ChannelParams(reflectivity=0.05, n_background=0.5)
# mp_midpoint_error_rate at the validation scenario, to 6 digits
EXACT_RATES = {1: 0.473411, 3: 0.450163, 50: 0.297395, 200: 0.143250, 800: 0.016476}


class TestTrialLaw:
    """A trial is (2 l_+ G_1 + 2 l_- G_2)/m, G_i ~ Gamma(m): checked against the pulse route."""

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_weights_give_snr_pc_moments(self, eps):
        noise = NoiseParams(eps_return=eps, eps_idler=eps)
        for ns, nb, kappa in GRID:
            src, ch = make_source(ns, ns, corr="quantum"), ChannelParams(kappa, nb)
            stats = snr_pc(src, ch, noise)
            for (lam_plus, lam_minus), mean, var in zip(_count_weights(src, ch, noise),
                                                        (stats.mean_h0, stats.mean_h1),
                                                        (stats.var_h0, stats.var_h1)):
                assert 4.0 * (lam_plus ** 2 + lam_minus ** 2) == pytest.approx(var, rel=1e-14, abs=0)
                # the sum cancels to the mean, so it carries the rounding of the
                # terms' scale l_+ - l_- = r, not of the mean's
                scale = max(abs(mean), 2.0 * (lam_plus - lam_minus))
                assert abs(2.0 * (lam_plus + lam_minus) - mean) <= 1e-14 * scale

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    @pytest.mark.parametrize("corr", ["quantum", "half"])
    def test_weights_are_the_conjugated_matrix_route_bit_for_bit(self, eps, corr):
        # the closed form against the 4x4 route it replaced: conditional states,
        # added noise, conjugation, then the weights read off the matrix
        noise = NoiseParams(eps_return=eps, eps_idler=eps)
        for ns, nb, kappa in GRID:
            src = make_source(ns, ns, corr="quantum")
            if corr == "half":
                src = make_source(ns, ns, corr=0.5 * src.corr)
            ch = ChannelParams(kappa, nb)
            states = pc_transform(apply_noise(conditional_states(src, ch), noise))
            want = [matrix_count_weights(state) for state in states]
            got = _count_weights(src, ch, noise)
            assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64)), \
                (ns, nb, kappa, got, want)

    def test_weights_reject_a_state_off_the_law(self):
        # the matrix route's recogniser, the reference above, reads only states of the law
        state = pc_transform(conditional_states(REF_SRC, REF_CH))[1]
        shifted = GaussianState(mean=np.array([1.0, 0.0, 0.0, 0.0]), cov=state.cov)
        with pytest.raises(ValueError, match="zero-mean"):
            matrix_count_weights(shifted)
        rotated = np.array(state.cov.entries)
        rotated[0, 3] = rotated[3, 0] = 1e-3
        with pytest.raises(ValueError, match="standard form"):
            matrix_count_weights(GaussianState(mean=np.zeros(4), cov=CovMatrix(rotated)))
        # the unconjugated state: its cross block is x Z, not x I
        with pytest.raises(ValueError, match="standard form"):
            matrix_count_weights(conditional_states(REF_SRC, REF_CH)[1])

    @pytest.mark.parametrize("m", [1, 3, 50])
    def test_rate_matches_the_pulse_route(self, m):
        n = 20_000
        cfg = SamplerConfig(seed=41, n_samples=n)
        law = empirical_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m, cfg)
        pulses = pulse_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m, cfg)
        p = EXACT_RATES[m]
        # two independent rates over 2n trials each
        se = math.sqrt(2.0 * p * (1 - p) / (2 * n))
        assert abs(law - pulses) <= 5 * se

    def test_rate_near_the_quantum_bound_meets_the_exact_law(self):
        # near c = c_q, where conjugating the 4x4 H1 state falls below the
        # uncertainty bound; the law needs only a, b > 0
        src = make_source(0.014286214028304914, 0.0015542664946257313, corr="quantum")
        ch = ChannelParams(reflectivity=0.8651791648568644, n_background=0.08270793466321598)
        n = 200_000
        rate = empirical_error_rate(src, ch, NO_NOISE, 50, SamplerConfig(seed=46, n_samples=n))
        p = mp_midpoint_error_rate(src, ch, NO_NOISE, 50)
        assert abs(rate - p) <= 5 * math.sqrt(p * (1 - p) / (2 * n)), (rate, p)

    def test_huge_pulse_count_is_cheap(self):
        t0 = time.perf_counter()
        rate = empirical_error_rate(VAL_SRC, VAL_CH, NO_NOISE, 10 ** 12,
                                    SamplerConfig(seed=43, n_samples=4000))
        assert time.perf_counter() - t0 < 1.0
        assert rate == 0.0  # M SNR ~ 6e10

    def test_exact_oracle_reproduces_the_table(self):
        for m, p in EXACT_RATES.items():
            assert mp_midpoint_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m) == pytest.approx(p, abs=5e-7)

    def test_rates_match_the_exact_finite_m_law(self):
        n = 1_000_000
        snr = snr_pc(VAL_SRC, VAL_CH, NO_NOISE).snr
        for m, p in EXACT_RATES.items():
            rate = empirical_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m,
                                        SamplerConfig(seed=42, n_samples=n))
            se = math.sqrt(p * (1 - p) / (2 * n))
            assert abs(rate - p) <= 5 * se, (m, rate, p)
            if m == 1:
                # the CLT erfc is 9.6 se off here: the gate tells the two apart
                assert abs(rate - half_erfc(math.sqrt(m * snr))) > 5 * se


# the golden scenario, the validation one, added noise on both arms, and a
# background at which the mixed covariance's Cholesky factor would lose the
# count's small direction (the quadrature route colours the conjugated state)
LAW_SCENARIOS = {
    "golden": (REF_SRC, REF_CH, NO_NOISE),
    "validation": (VAL_SRC, VAL_CH, NO_NOISE),
    "added_noise": (REF_SRC, REF_CH, NoiseParams(eps_return=1.0, eps_idler=1.0)),
    "bright_background": (REF_SRC, ChannelParams(reflectivity=0.01, n_background=1e17), NO_NOISE),
}


class TestCountLaw:
    """simulate_pc_receiver draws each count from the law of the threshold test's trials."""

    def test_samples_are_the_trials_at_one_pulse(self, monkeypatch):
        n = BLOCK + 5
        cfg = SamplerConfig(seed=38, n_samples=n)
        drawn = {}
        real = qillum.montecarlo._block_trial_means

        def recording(out, pairs, weights, m, seed, stream, block):
            means = real(out, pairs, weights, m, seed, stream, block)
            drawn[stream, block] = means.copy()  # the buffer is centred in place next
            return means

        monkeypatch.setattr(qillum.montecarlo, "_block_trial_means", recording)
        simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)
        seen = [np.concatenate([drawn[key] for key in sorted(drawn) if key[0] == stream])
                for stream in sorted({stream for stream, _ in drawn})]
        assert len(seen) == 2
        weights = _count_weights(REF_SRC, REF_CH, NO_NOISE)
        for counts, pair, stream in zip(seen, weights, (0, 2)):
            trials = np.concatenate(list(trial_mean_blocks(pair, 1, cfg.seed, stream, n)))
            assert np.array_equal(counts, trials)
            # block 0 is 2 l_+ E in its first n_+ rows and 2 l_- E in the rest,
            # with E ~ Exp(1) from the block's generator and then
            # n_+ ~ Binomial(2**16, l_+/(l_+ - l_-)) from the same generator
            lam_plus, lam_minus = pair
            gen = _block_generator(cfg.seed, stream, 0)
            e = gen.standard_exponential(BLOCK)
            n_plus = gen.binomial(BLOCK, lam_plus / (lam_plus - lam_minus))
            assert np.array_equal(counts[:n_plus], 2.0 * lam_plus * e[:n_plus])
            assert np.array_equal(counts[n_plus:BLOCK], 2.0 * lam_minus * e[n_plus:])
        # sample j is trial j of the threshold test at m = 1
        threshold = 0.5 * math.sqrt(REF_CH.reflectivity) * REF_SRC.corr
        h0, h1 = seen
        rate = 0.5 * (np.count_nonzero(h0 > threshold) + n - np.count_nonzero(h1 > threshold)) / n
        assert empirical_error_rate(REF_SRC, REF_CH, NO_NOISE, 1, cfg) == rate

    @pytest.mark.parametrize("name", ["golden", "validation", "added_noise"])
    def test_one_pulse_counts_follow_the_closed_form_cdf(self, name):
        # the whole m = 1 law, not only the four moments the gates hold:
        # the KS distance of 2e5 counts per hypothesis from the CDF of
        # l_+ X_1 + l_- X_2, against its critical value at alpha = 1e-6
        src, ch, noise = LAW_SCENARIOS[name]
        n = 200_000
        critical = scipy.stats.kstwo.isf(1e-6, n)
        for weights, stream in zip(_count_weights(src, ch, noise), (0, 2)):
            counts = shipped_trial_means(weights, 1, 48, stream, n)
            result = scipy.stats.kstest(counts, lambda c: one_pulse_count_cdf(weights, c))
            assert result.statistic < critical, (stream, result)
            # the closed form is the convolution integral, on both sides of 0
            for q in (0.05, 0.3, 0.7, 0.95):
                c = float(np.quantile(counts, q))
                assert float(one_pulse_count_cdf(weights, c)) == pytest.approx(
                    mp_one_pulse_count_cdf(weights, c), rel=1e-12), (stream, c)

    @pytest.mark.parametrize("rows, n_blocks", [(5, 4000), (BLOCK, 200)])
    def test_branch_count_is_binomial(self, rows, n_blocks):
        # a block's plus-branch count n_+ is its number of positive counts
        # (l_- < 0 < E); across blocks it is Binomial(rows, pi), drawn for
        # the block's own length, also where the block is partial
        lam_plus, lam_minus = weights = _count_weights(VAL_SRC, VAL_CH, NO_NOISE)[1]
        assert lam_minus < 0.0 < lam_plus
        pi = lam_plus / (lam_plus - lam_minus)
        out, scratch = np.empty(rows), np.empty(rows)
        counts = (_block_trial_means(out, scratch, weights, 1, 70, 2, b) for b in range(n_blocks))
        n_plus = np.array([np.count_nonzero(c > 0) for c in counts], dtype=float)
        mean, var = rows * pi, rows * pi * (1.0 - pi)
        # the binomial's fourth central moment sets the spread of the sample variance
        mu4 = var * (1.0 + 3.0 * (rows - 2) * pi * (1.0 - pi))
        se_mean = math.sqrt(var / n_blocks)
        se_var = math.sqrt((mu4 - var * var * (n_blocks - 3) / (n_blocks - 1)) / n_blocks)
        assert abs(n_plus.mean() - mean) <= 5 * se_mean
        assert abs(n_plus.var(ddof=1) - var) <= 5 * se_var

    def test_corr_a_rounding_past_the_bound_takes_only_the_plus_branch(self):
        # a corr within c_q's 1e-12 tolerance at N ~ 1e13 puts l_- a rounding
        # above 0, so l_+/(l_+ - l_-) tops 1: every count takes the plus branch,
        # as a probability of 1 would give, and no binomial draw is refused
        n = 1e13
        src = SourceParams(n, n, make_source(n, n, corr="quantum").corr * (1 + 0.9e-12))
        lam_plus, lam_minus = weights = _count_weights(src, ChannelParams(1.0, 0.0), NO_NOISE)[1]
        assert 0.0 < lam_minus and lam_plus / (lam_plus - lam_minus) > 1.0
        counts = _block_trial_means(np.empty(1000), np.empty(1000), weights, 1, 50, 2, 0)
        e = _block_generator(50, 2, 0).standard_exponential(1000)
        assert np.array_equal(counts, 2.0 * lam_plus * e)

    def test_one_pulse_counts_near_the_largest_weights(self):
        # l_+ - l_- = 9e307 is finite, but 2 l_+ - 2 l_- overflows: a mixture
        # probability formed from the doubled weights would read 0, and every
        # count would come out negative
        lam_plus, lam_minus = weights = (5e307, -4e307)
        assert math.isinf(2.0 * lam_plus - 2.0 * lam_minus)
        p = lam_plus / (lam_plus - lam_minus)
        with np.errstate(over="ignore"):
            counts = _block_trial_means(np.empty(BLOCK), np.empty(BLOCK), weights, 1, 49, 0, 0)
            assert np.array_equal(counts, next(trial_mean_blocks(weights, 1, 49, 0, BLOCK)))
        # a count is 1e308 E or -8e307 E: finite wherever E < 1.75 (most rows),
        # +-inf beyond ~1.8, never nan
        e = _block_generator(49, 0, 0).standard_exponential(BLOCK)
        assert np.count_nonzero(e < 1.75) > 0.8 * BLOCK
        assert np.all(np.isfinite(counts[e < 1.75]))
        assert not np.any(np.isnan(counts))
        positive = np.count_nonzero(counts > 0)
        assert 0 < positive < BLOCK
        assert abs(positive / BLOCK - p) <= 5 * math.sqrt(p * (1 - p) / BLOCK)

    @pytest.mark.parametrize("name", list(LAW_SCENARIOS))
    def test_moments_match_the_quadrature_route(self, name):
        src, ch, noise = LAW_SCENARIOS[name]
        n = 200_000
        law = simulate_pc_receiver(src, ch, noise, SamplerConfig(seed=44, n_samples=n))
        analytic = snr_pc(src, ch, noise)
        for hyp, suffix in ((Hypothesis.H0, "h0"), (Hypothesis.H1, "h1")):
            cfg = SamplerConfig(seed=45, n_samples=n)
            quad = two_pass_moments(difference_count(sample_pc_modes(src, ch, noise, cfg, hyp)))
            for field in ("mean", "var"):
                observed, se = getattr(law, f"{field}_{suffix}"), getattr(law, f"se_{field}_{suffix}")
                # two independent estimates of one moment
                assert abs(observed - quad[field]) <= 5 * math.hypot(se, quad[f"se_{field}"])
                # and the quadrature route on its own meets the closed form
                expected = getattr(analytic, f"{field}_{suffix}")
                assert abs(quad[field] - expected) <= 5 * quad[f"se_{field}"], (field, suffix)


class TestPcModeMoments:
    """Empirical second moments of the +/- modes match the analytic ones."""

    def test_h1_variances_and_cross(self):
        n = 400_000
        cfg = SamplerConfig(seed=21, n_samples=n)
        modes = sample_pc_modes(REF_SRC, REF_CH, NO_NOISE, cfg, Hypothesis.H1)
        mom = beamsplitter_moments(REF_SRC, REF_CH, NO_NOISE)
        checks = [
            (np.var(modes[:, 0], ddof=1), mom.beta_plus),
            (np.var(modes[:, 1], ddof=1), mom.beta_plus),
            (np.var(modes[:, 2], ddof=1), mom.beta_minus),
            (np.var(modes[:, 3], ddof=1), mom.beta_minus),
        ]
        for observed, expected in checks:
            se = expected * math.sqrt(2.0 / (n - 1))
            assert abs(observed - expected) <= 5 * se
        for qcol, mcol in ((0, 2), (1, 3)):
            observed = float(np.mean(modes[:, qcol] * modes[:, mcol]))
            se = math.sqrt((mom.beta_plus * mom.beta_minus + mom.gamma_star ** 2) / n)
            assert abs(observed - mom.gamma_star) <= 5 * se

    def test_h0_variances_and_cross(self):
        n = 400_000
        cfg = SamplerConfig(seed=22, n_samples=n)
        modes = sample_pc_modes(REF_SRC, REF_CH, NO_NOISE, cfg, Hypothesis.H0)
        mom = beamsplitter_moments(REF_SRC, REF_CH, NO_NOISE)
        for col in range(4):
            observed = np.var(modes[:, col], ddof=1)
            se = mom.alpha_plus * math.sqrt(2.0 / (n - 1))
            assert abs(observed - mom.alpha_plus) <= 5 * se
        for qcol, mcol in ((0, 2), (1, 3)):
            observed = float(np.mean(modes[:, qcol] * modes[:, mcol]))
            se = math.sqrt((mom.alpha_plus ** 2 + mom.alpha_minus ** 2) / n)
            assert abs(observed - mom.alpha_minus) <= 5 * se

    @pytest.mark.parametrize("eps_r, eps_i", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    def test_mixed_conjugated_state_is_the_beamsplitter_moments(self, eps_r, eps_i):
        # _pc_mix's map: (q_pc, p_pc, q_I, p_I) -> (q_+, p_+, q_-, p_-)
        mix = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2)) / math.sqrt(2.0)
        noise = NoiseParams(eps_return=eps_r, eps_idler=eps_i)
        for ns, nb, kappa in GRID:
            src, ch = make_source(ns, ns, corr="quantum"), ChannelParams(kappa, nb)
            mom = beamsplitter_moments(src, ch, noise)
            expected = [[[mom.alpha_plus, mom.alpha_minus], [mom.alpha_minus, mom.alpha_plus]],
                        [[mom.beta_plus, mom.gamma_star], [mom.gamma_star, mom.beta_minus]]]
            states = pc_transform(apply_noise(conditional_states(src, ch), noise))
            for state, want in zip(states, expected):
                mixed = mix @ state.cov.entries @ mix.T
                want = np.kron(want, np.eye(2))
                assert np.all(np.abs(mixed - want) <= 1e-15 * np.max(np.diag(want)))

    def test_hypotheses_use_distinct_streams(self):
        cfg = SamplerConfig(seed=3, n_samples=50)
        a = sample_pc_modes(REF_SRC, REF_CH, NO_NOISE, cfg, Hypothesis.H0)
        b = sample_pc_modes(REF_SRC, REF_CH, NO_NOISE, cfg, Hypothesis.H1)
        assert not np.array_equal(a, b)


class TestSimulatePcReceiver:
    def test_bit_identical_repeat(self):
        cfg = SamplerConfig(seed=9, n_samples=100_000)
        a = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)
        b = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)
        assert a == b

    def test_seed_changes_estimate(self):
        a = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE,
                                 SamplerConfig(seed=1, n_samples=20_000))
        b = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE,
                                 SamplerConfig(seed=2, n_samples=20_000))
        assert a.snr_hat != b.snr_hat

    def test_reference_point_snr_within_three_se(self):
        cfg = SamplerConfig(seed=42, n_samples=1_000_000)
        stats = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)
        assert deflection_sigma(stats, SNR_QI_PC) <= 3

    def test_deflection_gate_fails_a_6_se_shift(self):
        cfg = SamplerConfig(seed=42, n_samples=100_000)
        stats = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)
        # the same moments with the deflection put 6 se above the truth fail
        # both the 3-sigma and the 5-sigma gate
        se = deflection_se(stats, SNR_QI_PC)
        doctored = dataclasses.replace(stats, snr_hat=(math.sqrt(SNR_QI_PC) + 6.0 * se) ** 2)
        assert deflection_sigma(stats, SNR_QI_PC) <= 3
        assert deflection_sigma(doctored, SNR_QI_PC) > 5

    def test_reference_point_moments(self):
        cfg = SamplerConfig(seed=42, n_samples=1_000_000)
        stats = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)
        analytic = snr_pc(REF_SRC, REF_CH, NO_NOISE)
        assert abs(stats.var_h0 - 21.42) <= 5 * stats.se_var_h0
        assert abs(stats.var_h1 - analytic.var_h1) <= 5 * stats.se_var_h1
        assert abs(stats.mean_h1 - analytic.mean_h1) <= 5 * stats.se_mean_h1
        assert abs(stats.mean_h0) <= 5 * stats.se_mean_h0

    def test_zero_correlation_gives_zero_mean_difference(self):
        src = SourceParams(n_signal=0.01, n_idler=0.01, corr=0.0)
        stats = simulate_pc_receiver(src, REF_CH, NO_NOISE,
                                     SamplerConfig(seed=6, n_samples=200_000))
        se = math.hypot(stats.se_mean_h0, stats.se_mean_h1)
        assert abs(stats.mean_h1 - stats.mean_h0) <= 5 * se

    def test_noise_inflates_h0_variance(self):
        cfg = SamplerConfig(seed=8, n_samples=300_000)
        clean = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)
        noisy = simulate_pc_receiver(REF_SRC, REF_CH,
                                     NoiseParams(eps_return=1.0, eps_idler=1.0), cfg)
        analytic = snr_pc(REF_SRC, REF_CH, NoiseParams(eps_return=1.0, eps_idler=1.0))
        assert noisy.var_h0 > clean.var_h0
        assert abs(noisy.var_h0 - analytic.var_h0) <= 5 * noisy.se_var_h0

    def test_error_shrinks_with_sample_count(self):
        analytic = SNR_QI_PC
        runs = {}
        for n in (10_000, 100_000, 1_000_000):
            stats = simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE,
                                         SamplerConfig(seed=42, n_samples=n))
            runs[n] = stats
            assert deflection_sigma(stats, analytic) <= 5
        for big, small in ((10_000, 100_000), (100_000, 1_000_000)):
            ratio = runs[big].se_mean_h1 / runs[small].se_mean_h1
            assert 2.8 <= ratio <= 3.6  # ~ sqrt(10) per decade

    def test_bright_background_passes_every_gate(self):
        # the count weights come from the conjugated state's entries, with no
        # factorization; TestCountLaw holds the quadrature route to them here
        ch = ChannelParams(reflectivity=0.01, n_background=1e17)
        stats = simulate_pc_receiver(REF_SRC, ch, NO_NOISE, SamplerConfig(seed=42, n_samples=100_000))
        analytic = snr_pc(REF_SRC, ch, NO_NOISE)
        for field in ("mean_h0", "mean_h1", "var_h0", "var_h1"):
            observed, se = getattr(stats, field), getattr(stats, f"se_{field}")
            assert abs(observed - getattr(analytic, field)) <= 5 * se, field
        assert deflection_sigma(stats, analytic.snr) <= 5

    def test_stats_type_rejects_negative_se(self):
        with pytest.raises(ValueError):
            EmpiricalStats(mean_h0=0.0, mean_h1=0.0, var_h0=1.0, var_h1=1.0,
                           snr_hat=0.0, se_mean_h0=-1.0, se_mean_h1=0.0,
                           se_var_h0=0.0, se_var_h1=0.0, se_snr=0.0)


class TestDifferenceCount:
    def test_vacuum_modes_average_to_zero(self):
        n = 200_000
        xs = sample_quadratures(vacuum_state(2), SamplerConfig(seed=4, n_samples=n))
        counts = difference_count(xs)
        # each mode's N-estimate averages to (2*0.5 - 1)/2 = 0
        assert abs(counts.mean()) <= 5 * counts.std(ddof=1) / math.sqrt(n)


class TestEmpiricalErrorRate:
    def test_bit_identical_repeat(self):
        cfg = SamplerConfig(seed=17, n_samples=500)
        a = empirical_error_rate(REF_SRC, REF_CH, NO_NOISE, 50, cfg)
        b = empirical_error_rate(REF_SRC, REF_CH, NO_NOISE, 50, cfg)
        assert a == b

    def test_zero_reflectivity_is_a_coin_flip(self):
        n = 2000
        ch = ChannelParams(reflectivity=0.0, n_background=20.0)
        rate = empirical_error_rate(REF_SRC, ch, NO_NOISE, 1,
                                    SamplerConfig(seed=19, n_samples=n))
        se = math.sqrt(1.0 / (8 * n))
        assert abs(rate - 0.5) <= 3 * se

    def test_strong_signal_never_misclassifies(self):
        src = make_source(1.0, 1.0, corr="quantum")
        ch = ChannelParams(reflectivity=0.5, n_background=1.0)
        snr = snr_pc(src, ch, NO_NOISE).snr
        m = 400
        assert m * snr >= 25.0
        rate = empirical_error_rate(src, ch, NO_NOISE, m,
                                    SamplerConfig(seed=23, n_samples=10_000))
        assert rate == 0.0

    def test_half_unit_deflection_matches_gaussian_prediction(self):
        src = make_source(0.2, 0.2, corr="quantum")
        ch = ChannelParams(reflectivity=0.05, n_background=0.5)
        snr = snr_pc(src, ch, NO_NOISE).snr
        m = max(1, round(0.5 / snr))
        assert abs(m * snr - 0.5) < 0.01
        expected = half_erfc(math.sqrt(m * snr))
        assert abs(expected - 0.15866) < 0.005
        n = 5000
        rate = empirical_error_rate(src, ch, NO_NOISE, m,
                                    SamplerConfig(seed=29, n_samples=n))
        se = math.sqrt(expected * (1 - expected) / (2 * n))
        assert abs(rate - expected) <= 3 * se

    def test_rejects_bad_pulse_count(self):
        cfg = SamplerConfig(seed=1, n_samples=10)
        with pytest.raises(ValueError):
            empirical_error_rate(REF_SRC, REF_CH, NO_NOISE, 0, cfg)

    def test_rejects_fractional_pulse_count(self):
        cfg = SamplerConfig(seed=1, n_samples=10)
        with pytest.raises(ValueError, match="positive integer"):
            empirical_error_rate(REF_SRC, REF_CH, NO_NOISE, 2.5, cfg)


class TestMomentIdentities:
    def test_default_grid_passes(self):
        report = check_gaussian_moment_identities(SamplerConfig(seed=0, n_samples=200_000))
        assert report.all_passed
        assert len(report.rows) == 8

    def test_correlated_row_targets(self):
        report = check_gaussian_moment_identities(
            SamplerConfig(seed=0, n_samples=200_000), covariances=(0.3,))
        quartic, mixed = report.rows
        assert quartic.expected == 3.0
        assert mixed.expected == pytest.approx(1.18)
        assert report.all_passed

    def test_independent_pair_factorizes(self):
        report = check_gaussian_moment_identities(
            SamplerConfig(seed=2, n_samples=200_000), covariances=(0.0,))
        mixed = report.rows[1]
        assert mixed.expected == 1.0
        assert mixed.passed

    def test_rejects_a_single_sample(self):
        # one sample has no standard error; before streaming the rows read nan
        with pytest.raises(ValueError, match="at least 2 samples"):
            check_gaussian_moment_identities(SamplerConfig(seed=0, n_samples=1))

    def test_rejects_non_unit_covariance(self):
        with pytest.raises(ValueError):
            check_gaussian_moment_identities(SamplerConfig(seed=0, n_samples=100),
                                             covariances=(1.0,))


def bits(stats: EmpiricalStats) -> list:
    return [float(v).hex() for v in dataclasses.astuple(stats)]


class TestWorkers:
    """The shared block queue gives the serial route's bits whatever the number of workers."""

    # n = 2 has less than a block of rows in all, so it runs on one worker at
    # any CPU count; the other sizes run on several where there are CPUs
    SIZES = (2, BLOCK - 1, BLOCK + 5, 3 * BLOCK + 7)
    WORKERS = (1, 2, 3, 1000)  # 1000: past the worker cap and every size's block count

    @pytest.fixture
    def workers(self, monkeypatch):
        def use(count):
            monkeypatch.setattr(qillum.montecarlo, "_usable_cpus", lambda: count)
        return use

    @pytest.mark.parametrize("n", SIZES)
    def test_moments_are_the_serial_routes(self, workers, n):
        cfg = SamplerConfig(seed=60, n_samples=n)
        want = bits(serial_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg))
        for count in self.WORKERS:
            workers(count)
            assert bits(simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)) == want, count

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("m", [1, 50, 800])
    def test_error_rate_is_the_serial_routes(self, workers, n, m):
        cfg = SamplerConfig(seed=61, n_samples=n)
        want = serial_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m, cfg)
        for count in self.WORKERS:
            workers(count)
            got = empirical_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m, cfg)
            assert got.hex() == want.hex(), count

    @pytest.mark.parametrize("n", [5, 2 * BLOCK - 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("m", [1, 50, 800, 10 ** 12])
    def test_block_worker_is_the_serial_draw(self, n, m):
        # at m >= 2 the worker draws each block's gamma pairs in two halves
        # into its scratch buffer, and at m = 1 its exponentials into its
        # first buffer; the serial route draws each block whole
        weights = _count_weights(REF_SRC, REF_CH, NO_NOISE)[1]
        want = np.concatenate(list(trial_mean_blocks(weights, m, 64, 2, n)))
        assert np.array_equal(shipped_trial_means(weights, m, 64, 2, n), want)

    def test_one_worker_makes_no_thread(self, workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("one worker made a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        workers(1)
        before = threading.active_count()
        simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, SamplerConfig(seed=62, n_samples=3 * BLOCK))
        empirical_error_rate(REF_SRC, REF_CH, NO_NOISE, 50,
                             SamplerConfig(seed=62, n_samples=BLOCK + 1))
        assert threading.active_count() == before

    def test_sub_block_calls_make_no_thread(self, workers, monkeypatch):
        # at most one block of rows over both hypotheses (2 * n_samples <= 2**16)
        # runs on the calling thread, however many CPUs there are
        def no_pool(*args, **kwargs):
            raise AssertionError("a call of less than a block per worker made a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        workers(8)
        before = threading.active_count()
        cfg = SamplerConfig(seed=65, n_samples=4000)
        for m in (1, 50):
            want = serial_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m, cfg)
            assert empirical_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m, cfg).hex() == want.hex(), m
        cfg = SamplerConfig(seed=65, n_samples=BLOCK // 2)
        want = bits(serial_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg))
        assert bits(simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)) == want
        assert threading.active_count() == before

    def test_blocks_finishing_out_of_order_give_the_serial_bits(self, workers, monkeypatch):
        # block 0 of H0 is first in the queue, and its worker holds it until
        # the other workers have drawn every other block; the wait is bounded,
        # so that a worker that must also draw those blocks cannot hang the suite
        n = 3 * BLOCK + 7
        keys = sorted((stream, block) for stream in (0, 2) for block in range(4))
        real = qillum.montecarlo._block_trial_means
        lock = threading.Lock()
        drawn, waited = [], []
        others_done = threading.Event()

        def block_zero_last(out, scratch, weights, m, seed, stream, block):
            means = real(out, scratch, weights, m, seed, stream, block)
            if (stream, block) == (0, 0):
                waited.append(others_done.wait(timeout=10.0))
            with lock:
                drawn.append((stream, block))
                if sorted(drawn) == keys[1:]:
                    others_done.set()
            return means

        def run(call):
            drawn.clear()
            others_done.clear()
            result = call()
            assert sorted(drawn) == keys  # each (stream, block) drawn exactly once
            return result

        monkeypatch.setattr(qillum.montecarlo, "_block_trial_means", block_zero_last)
        workers(3)
        cfg = SamplerConfig(seed=66, n_samples=n)
        got = run(lambda: simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg))
        assert bits(got) == bits(serial_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg))
        for m in (1, 50):
            got = run(lambda: empirical_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m, cfg))
            assert got.hex() == serial_error_rate(VAL_SRC, VAL_CH, NO_NOISE, m, cfg).hex(), m
        assert waited == [True] * 3

    def test_more_workers_than_cores_draw_each_block_once(self, workers, monkeypatch):
        # eight workers on 16 blocks, switching threads every microsecond: a
        # block that two workers took from the shared queue, or none, shows in
        # the record of draws
        keys = sorted((stream, block) for stream in (0, 2) for block in range(8))
        real = qillum.montecarlo._block_trial_means
        lock = threading.Lock()
        drawn = []

        def recording(out, scratch, weights, m, seed, stream, block):
            with lock:
                drawn.append((stream, block))
            return real(out, scratch, weights, m, seed, stream, block)

        monkeypatch.setattr(qillum.montecarlo, "_block_trial_means", recording)
        workers(8)
        cfg = SamplerConfig(seed=67, n_samples=8 * BLOCK)
        want = serial_error_rate(VAL_SRC, VAL_CH, NO_NOISE, 1, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                drawn.clear()
                assert empirical_error_rate(VAL_SRC, VAL_CH, NO_NOISE, 1, cfg).hex() == want.hex()
                assert sorted(drawn) == keys
        finally:
            sys.setswitchinterval(interval)


class TestBoundedMemory:
    """Traced peak memory does not grow with n_samples or n_samples * m."""

    LIMIT = 32e6  # bytes; each worker holds 1 MiB, the old full draws 136-410 MB

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_error_rate_at_validation_load(self):
        cfg = SamplerConfig(seed=7, n_samples=4000)
        peak = self.traced_peak(lambda: empirical_error_rate(REF_SRC, REF_CH, NO_NOISE, 800, cfg))
        assert peak < self.LIMIT

    def test_receiver_moments_at_a_million(self):
        cfg = SamplerConfig(seed=42, n_samples=1_000_000)
        assert self.traced_peak(lambda: simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg)) < self.LIMIT

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_receiver_moments_hold_one_block_per_worker(self, monkeypatch, count):
        # a lean block is the trial means and their squares: 2 * 2**16 doubles.
        # Each worker's buffers are one lean block, allocated by the caller (its
        # scratch half also takes the squares at m = 1, and the gamma pairs
        # half a block at a time at m >= 2), and
        # nothing else grows with the sample count. The extra block covers
        # numpy.random's first import (~1 MB traced) when this test runs alone.
        monkeypatch.setattr(qillum.montecarlo, "_usable_cpus", lambda: count)
        lean_block = 2 * BLOCK * 8
        margin = 256 * 1024
        cfg = SamplerConfig(seed=43, n_samples=4_000_000)
        peak = self.traced_peak(lambda: simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg))
        assert peak < (count + 1) * lean_block + margin

    def test_receiver_moments_at_a_million_on_many_cpus(self, monkeypatch):
        # the worker cap, not the CPU count, sets how many buffers a call holds
        monkeypatch.setattr(qillum.montecarlo, "_usable_cpus", lambda: 1000)
        per_worker = 2 * BLOCK * 8  # a lean block: the counts and their squares
        cfg = SamplerConfig(seed=44, n_samples=1_000_000)
        peak = self.traced_peak(lambda: simulate_pc_receiver(REF_SRC, REF_CH, NO_NOISE, cfg))
        assert peak < self.LIMIT
        # plus one lean block for numpy.random's first import and 256 KiB, as above
        assert peak < _MAX_WORKERS * per_worker + 2 * BLOCK * 8 + 256 * 1024

    def test_moment_identities_at_a_million(self):
        cfg = SamplerConfig(seed=0, n_samples=1_000_000)
        assert self.traced_peak(lambda: check_gaussian_moment_identities(cfg)) < self.LIMIT
