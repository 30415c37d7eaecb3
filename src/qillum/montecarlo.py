"""Seeded sampling oracle for the receiver chain and its analytic moments.

Quadrature outcomes are classical Gaussian samples drawn from the state's
covariance matrix (exactly the statistics the closed forms describe). The
conjugate-and-mix chain is simulated sample by sample: an independent unit
vacuum sample is added during conjugation, the balanced beamsplitter forms
the +/- modes, and the decision statistic is the difference of the two
photon-number estimates N = (q^2 + p^2 - 1)/2.

All randomness is counter-based: each (seed, stream) pair opens an
independent Philox stream, so repeated runs with the same seed and sample
counts are bit-identical, whatever the order in which the hypotheses and
checks are evaluated. Every sampler draws its whole sample at once, in this
process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .states import (
    ChannelParams,
    GaussianState,
    Hypothesis,
    NoiseParams,
    SourceParams,
    _validate_pulses,
    apply_noise,
    conditional_states,
)

_VACUUM_STD = math.sqrt(0.5)


@dataclass(frozen=True)
class SamplerConfig:
    """Master seed and sample counts for one simulation run."""

    seed: int
    n_samples: int

    def __post_init__(self) -> None:
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (isinstance(self.n_samples, (int, np.integer)) and self.n_samples >= 1):
            raise ValueError(f"n_samples must be a positive integer, got {self.n_samples!r}")


@dataclass(frozen=True)
class EmpiricalStats:
    """Sample moments of the difference count plus their standard errors."""

    mean_h0: float
    mean_h1: float
    var_h0: float
    var_h1: float
    snr_hat: float
    se_mean_h0: float
    se_mean_h1: float
    se_var_h0: float
    se_var_h1: float
    se_snr: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.var_h0 < 0 or self.var_h1 < 0:
            raise ValueError("empirical variances must be non-negative")
        ses = (self.se_mean_h0, self.se_mean_h1, self.se_var_h0,
               self.se_var_h1, self.se_snr)
        if any(not (se >= 0 and math.isfinite(se)) for se in ses):
            raise ValueError("standard errors must be finite and non-negative")


@dataclass(frozen=True)
class MomentCheckRow:
    label: str
    covariance: float
    observed: float
    expected: float
    std_error: float
    n_sigma: float
    passed: bool


@dataclass(frozen=True)
class MomentCheckReport:
    rows: tuple[MomentCheckRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_quadratures(state: GaussianState, cfg: SamplerConfig, stream: int = 0) -> np.ndarray:
    """Draw n_samples quadrature vectors from the state's Gaussian law.

    Returns an (n_samples, 2*n_modes) array; the Cholesky factor of the CM
    colors an independent standard-normal block per sample.
    """
    try:
        chol = np.linalg.cholesky(state.cov.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"covariance factorization failed: {exc}") from exc
    z = _generator(cfg.seed, stream).standard_normal((cfg.n_samples, 2 * state.n_modes))
    return state.mean + z @ chol.T


def _pc_mix(xs: np.ndarray, vac: np.ndarray) -> np.ndarray:
    """Conjugate the return samples, add vacuum, mix 50-50 with the idler.

    xs columns are (q_R, p_R, q_I, p_I); vac is a unit-vacuum sample pair.
    Output columns are (q_+, p_+, q_-, p_-).
    """
    q_pc = vac[:, 0] + xs[:, 0]
    p_pc = vac[:, 1] - xs[:, 1]
    inv_rt2 = 1.0 / math.sqrt(2.0)
    return np.column_stack([
        (q_pc + xs[:, 2]) * inv_rt2,
        (p_pc + xs[:, 3]) * inv_rt2,
        (q_pc - xs[:, 2]) * inv_rt2,
        (p_pc - xs[:, 3]) * inv_rt2,
    ])


def sample_pc_modes(src: SourceParams, ch: ChannelParams, noise: NoiseParams,
                    cfg: SamplerConfig, hypothesis: Hypothesis) -> np.ndarray:
    """Beamsplitter output quadrature samples (q_+, p_+, q_-, p_-)."""
    state = apply_noise(conditional_states(src, ch), noise)[0 if hypothesis is Hypothesis.H0 else 1]
    base = 0 if hypothesis is Hypothesis.H0 else 2
    xs = sample_quadratures(state, cfg, stream=base)
    vac = _generator(cfg.seed, base + 1).standard_normal((cfg.n_samples, 2)) * _VACUUM_STD
    return _pc_mix(xs, vac)


def difference_count(modes: np.ndarray) -> np.ndarray:
    """Per-sample N_+ - N_- from beamsplitter output quadratures."""
    return 0.5 * (modes[:, 0] ** 2 + modes[:, 1] ** 2
                  - modes[:, 2] ** 2 - modes[:, 3] ** 2)


def _moment_block(samples: np.ndarray) -> dict:
    n = samples.size
    mean = float(samples.mean())
    centered = samples - mean
    s2 = float(centered @ centered) / (n - 1)
    m3 = float(np.mean(centered ** 3))
    m4 = float(np.mean(centered ** 4))
    se_var_sq = max(m4 - s2 * s2 * (n - 3) / (n - 1), 0.0) / n
    return {
        "mean": mean,
        "var": s2,
        "se_mean": math.sqrt(s2 / n),
        "se_var": math.sqrt(se_var_sq),
        "cov_mean_var": m3 / n,
    }


def simulate_pc_receiver(src: SourceParams, ch: ChannelParams, noise: NoiseParams,
                         cfg: SamplerConfig) -> EmpiricalStats:
    """Empirical difference-count statistics under both hypotheses.

    snr_hat uses the same deflection form as the closed form; its standard
    error comes from first-order propagation of the four moment estimates
    (including the within-hypothesis mean/variance covariance).
    """
    if cfg.n_samples < 2:
        raise ValueError("variance estimates need at least 2 samples")
    blocks = []
    for hyp in (Hypothesis.H0, Hypothesis.H1):
        stat = difference_count(sample_pc_modes(src, ch, noise, cfg, hyp))
        blocks.append(_moment_block(stat))
    b0, b1 = blocks
    diff = b1["mean"] - b0["mean"]
    root_sum = math.sqrt(b1["var"]) + math.sqrt(b0["var"])
    snr_hat = diff ** 2 / (2.0 * root_sum ** 2)

    # delta method: d snr/d mean_h = +-diff/T^2, d snr/d var_h = -diff^2/(2 T^3 sqrt(v_h))
    t_sq = root_sum ** 2
    var_snr = 0.0
    for sign, b in ((-1.0, b0), (1.0, b1)):
        g_mu = sign * diff / t_sq
        g_v = -diff ** 2 / (2.0 * t_sq * root_sum * math.sqrt(b["var"]))
        var_snr += (g_mu ** 2 * b["se_mean"] ** 2
                    + g_v ** 2 * b["se_var"] ** 2
                    + 2.0 * g_mu * g_v * b["cov_mean_var"])
    return EmpiricalStats(
        mean_h0=b0["mean"], mean_h1=b1["mean"],
        var_h0=b0["var"], var_h1=b1["var"],
        snr_hat=snr_hat,
        se_mean_h0=b0["se_mean"], se_mean_h1=b1["se_mean"],
        se_var_h0=b0["se_var"], se_var_h1=b1["se_var"],
        se_snr=math.sqrt(max(var_snr, 0.0)),
        n_samples=cfg.n_samples,
    )


def deflection_se(emp: EmpiricalStats, snr: float) -> float:
    """Standard error of sqrt(snr_hat) about the exact deflection sqrt(snr).

    sqrt(snr_hat) = |mean_h1 - mean_h0| / (sqrt(2)*(sqrt(var_h1) + sqrt(var_h0)))
    is near-normal, with a spread set by the mean errors whatever its size, so
    it carries a gate at any SNR. snr_hat does not: where the mean difference
    is a few standard errors it is the square of a noisy number, and se_snr,
    propagated at the estimate, shrinks with it.
    """
    d = math.sqrt(snr)
    t = math.sqrt(emp.var_h0) + math.sqrt(emp.var_h1)
    se_sq = (emp.se_mean_h0 ** 2 + emp.se_mean_h1 ** 2) / (2.0 * t * t)
    for var, se_var in ((emp.var_h0, emp.se_var_h0), (emp.var_h1, emp.se_var_h1)):
        se_sq += (d * se_var / (2.0 * t * math.sqrt(var))) ** 2
    return math.sqrt(se_sq)


def empirical_error_rate(src: SourceParams, ch: ChannelParams, noise: NoiseParams,
                         m, cfg: SamplerConfig) -> float:
    """Misclassification fraction of the threshold test after m pulse pairs.

    Each trial averages the difference count over m pulses and declares
    "target present" above the midpoint of the two analytic conditional
    means (0 and sqrt(kappa)*c). Equal priors: the returned rate averages
    the false-alarm and missed-detection fractions.
    """
    m = _validate_pulses(m)
    threshold = 0.5 * math.sqrt(ch.reflectivity) * src.corr
    pulse_cfg = SamplerConfig(seed=cfg.seed, n_samples=cfg.n_samples * m)
    averages = [difference_count(sample_pc_modes(src, ch, noise, pulse_cfg, hyp))
                .reshape(cfg.n_samples, m).mean(axis=1)
                for hyp in (Hypothesis.H0, Hypothesis.H1)]
    false_alarm = float(np.mean(averages[0] > threshold))
    missed = float(np.mean(averages[1] <= threshold))
    return 0.5 * (false_alarm + missed)


def check_gaussian_moment_identities(cfg: SamplerConfig,
                                     covariances: tuple[float, ...] = (-0.5, 0.0, 0.3, 0.8),
                                     gate_sigma: float = 5.0) -> MomentCheckReport:
    """Verify the quartic Gaussian moment identities the variance algebra uses.

    For unit-variance pairs with covariance c: <q^4> = 3 and
    <q^2 p^2> = <q^2><p^2> + 2<q p>^2 = 1 + 2 c^2, each within gate_sigma
    empirical standard errors.
    """
    rows = []
    for i, cov in enumerate(covariances):
        if not abs(cov) < 1.0:
            raise ValueError(f"unit-variance pair needs |cov| < 1, got {cov}")
        cm = np.array([[1.0, cov], [cov, 1.0]])
        chol = np.linalg.cholesky(cm)
        z = _generator(cfg.seed, 16 + i).standard_normal((cfg.n_samples, 2))
        q, p = (z @ chol.T).T

        for label, series, expected in (
            ("<q^4> = 3 sigma^4", q ** 4, 3.0),
            ("<q^2 p^2> = 1 + 2 cov^2", q ** 2 * p ** 2, 1.0 + 2.0 * cov ** 2),
        ):
            observed = float(series.mean())
            se = float(series.std(ddof=1)) / math.sqrt(cfg.n_samples)
            n_sigma = abs(observed - expected) / se
            rows.append(MomentCheckRow(
                label=label, covariance=cov, observed=observed,
                expected=expected, std_error=se, n_sigma=n_sigma,
                passed=bool(n_sigma <= gate_sigma),
            ))
    return MomentCheckReport(rows=tuple(rows))
