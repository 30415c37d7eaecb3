"""Independent reference oracles used by the test suite.

Everything here is deliberately implemented by a different route than the
library under test: closed-form invariants, truncated Fock-space algebra,
high-precision mpmath arithmetic, and brute-force quadrature.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import mpmath
import numpy as np
from scipy.linalg import expm

from qillum.bounds import (ClassicalDistributionPair, SOverlapResult, _check_s,
                           _classical_route, _weighted_result, gaussian_s_overlap)
from qillum.errors import NumericFailure
from qillum.montecarlo import (EmpiricalStats, _count_weights, _empirical_stats,
                               _gaussian_blocks, _Moments, _stream_blocks, deflection_se)
from qillum.cli import SweepResult, SweepSpec, compute_sweep
from qillum.receiver import (BeamsplitterMoments, HomodyneOptimum, ReceiverStats, _exp_columns,
                             half_erfc, homodyne_min_error, homodyne_rate)
from qillum.states import (GaussianState, _check_nonnegative, _standard_form_matrix,
                           _validate_pulses, apply_noise, conditional_states)
from qillum.symplectic import CovMatrix, williamson


class Hypothesis(Enum):
    H0 = "target absent"
    H1 = "target present"


def source_cm(src) -> CovMatrix:
    """Covariance matrix of the signal/idler source."""
    return CovMatrix(0.5 * _standard_form_matrix(src.nu, src.mu, src.corr))


def ulp_error(value: float, exact) -> float:
    """|value - exact| in ulps of the double nearest to `exact`, an mpmath number.

    A correctly rounded value scores at most 0.5. Evaluate `exact` at a
    working precision well beyond 53 bits (mpmath.workdps(50), say).
    """
    return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact)))


def snr_from_moments(moments: BeamsplitterMoments) -> ReceiverStats:
    """Receiver statistics assembled directly from the beamsplitter moments.

    The mean difference count is beta_plus - beta_minus and the variances
    follow from Gaussian fourth-moment factorization. This route re-derives
    snr_pc but loses precision when the correlation is tiny against the
    thermal scale (the subtraction cancels).
    """
    mean1 = moments.beta_plus - moments.beta_minus
    var0 = 2.0 * (moments.alpha_plus ** 2 - moments.alpha_minus ** 2)
    var1 = (moments.beta_plus ** 2 + moments.beta_minus ** 2
            - 2.0 * moments.gamma_star ** 2)
    snr = mean1 ** 2 / (2.0 * (math.sqrt(var1) + math.sqrt(var0)) ** 2)
    return ReceiverStats(mean_h0=0.0, mean_h1=mean1, var_h0=var0, var_h1=var1, snr=snr)


def check_receiver_stats(stats: ReceiverStats) -> None:
    """Raise AssertionError unless stats hold the rule of snr_pc's ReceiverStats.

    Every value is finite, the variances and snr are >= 0, and snr is the
    deflection form (mean_h1-mean_h0)^2 / (2*(sqrt(var_h1)+sqrt(var_h0))^2)
    within 1e-12*max(snr, form) + 1e-300, the absolute term for subnormal
    SNRs. snr_pc forms snr as kappa c^2 / (sqrt(2 var_h1) + sqrt(2 var_h0))^2,
    a second arrangement of the same form.
    """
    vals = (stats.mean_h0, stats.mean_h1, stats.var_h0, stats.var_h1, stats.snr)
    assert all(math.isfinite(v) for v in vals), f"receiver statistics must be finite: {stats}"
    assert stats.var_h0 >= 0.0 and stats.var_h1 >= 0.0, f"variances must be >= 0: {stats}"
    assert stats.snr >= 0.0, f"snr must be >= 0: {stats}"
    diff = stats.mean_h1 - stats.mean_h0
    root = math.sqrt(stats.var_h1) + math.sqrt(stats.var_h0)
    denom = 2.0 * root * root
    if denom == 0.0:
        expected = 0.0 if diff == 0.0 else math.inf
    else:
        expected = diff * diff / denom
    assert abs(stats.snr - expected) <= 1e-12 * max(stats.snr, expected) + 1e-300, (
        f"snr {stats.snr!r} inconsistent with moments (expected {expected!r})")


def two_mode_symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Two-mode symplectic spectrum via the invariant formula.

    nu^2 = (Delta +/- sqrt(Delta^2 - 4 det V)) / 2 with
    Delta = det A + det B + 2 det C for V = [[A, C], [C^T, B]].
    Independent of any eigendecomposition of Omega V.
    """
    a = v[0:2, 0:2]
    b = v[2:4, 2:4]
    c = v[0:2, 2:4]
    delta = np.linalg.det(a) + np.linalg.det(b) + 2.0 * np.linalg.det(c)
    disc = max(delta**2 - 4.0 * np.linalg.det(v), 0.0)
    nu_plus = np.sqrt((delta + np.sqrt(disc)) / 2.0)
    nu_minus = np.sqrt(max((delta - np.sqrt(disc)) / 2.0, 0.0))
    return np.array([nu_plus, nu_minus])


def thermal_fock_probs(nbar: float, cutoff: int) -> np.ndarray:
    """Photon-number distribution of a thermal state, truncated at `cutoff`."""
    k = np.arange(cutoff + 1)
    if nbar == 0:
        p = np.zeros(cutoff + 1)
        p[0] = 1.0
        return p
    return nbar**k / (nbar + 1.0) ** (k + 1)


def fock_s_overlap_thermal(nbar0: float, nbar1: float, s: float, cutoff: int = 200) -> float:
    """Tr[rho0^s rho1^(1-s)] for two thermal states via truncated Fock matrices.

    Builds the (diagonal) density matrices explicitly and takes the trace of
    the matrix product of their fractional powers.
    """
    rho0 = np.diag(thermal_fock_probs(nbar0, cutoff))
    rho1 = np.diag(thermal_fock_probs(nbar1, cutoff))
    pow0 = np.diag(np.diag(rho0) ** s)
    pow1 = np.diag(np.where(np.diag(rho1) > 0, np.diag(rho1) ** (1.0 - s), 0.0))
    return float(np.trace(pow0 @ pow1))


def random_physical_cm(rng: np.random.Generator, n_modes: int,
                       nu_max: float = 5.0, strength: float = 1.0) -> np.ndarray:
    """Random physical CM: V = S D S^T with S = expm(Omega H), H symmetric.

    expm of (symplectic form) x (symmetric) is symplectic, so the symplectic
    spectrum of V is exactly the drawn diagonal {nu_k} — an independent
    construction for round-trip tests.
    """
    dim = 2 * n_modes
    omega = np.zeros((dim, dim))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    h = rng.normal(scale=strength, size=(dim, dim))
    h = 0.5 * (h + h.T)
    s = expm(omega @ h)
    nus = rng.uniform(0.5, nu_max, size=n_modes)
    d = np.diag(np.repeat(nus, 2))
    v = s @ d @ s.T
    return 0.5 * (v + v.T)


def _mp_model_entries(src, ch, noise=None):
    """(a, b, c) of the H0 and H1 return/idler CMs (1/2)[[a I, c Z], [c Z, b I]], exactly.

    Every float parameter enters at its exact binary value; nothing is rounded
    to double on the way.
    """
    mpf = mpmath.mpf
    eps_r = mpf(noise.eps_return) if noise is not None else mpf(0)
    eps_i = mpf(noise.eps_idler) if noise is not None else mpf(0)
    a0 = 2 * mpf(ch.n_background) + 1 + eps_r
    b0 = 2 * mpf(src.n_idler) + 1 + eps_i
    a1 = a0 + 2 * mpf(ch.reflectivity) * mpf(src.n_signal)
    c1 = mpmath.sqrt(mpf(ch.reflectivity)) * mpf(src.corr)
    return (a0, b0, mpf(0)), (a1, b0, c1)


def _mp_cm(a, b, c):
    return mpmath.matrix([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]]) / 2


def _mp_williamson(a, b, c):
    """Symplectic spectrum from the two-mode invariants and a two-mode squeezer S.

    tanh 2r = 2c/(a+b); asserts S diag(nu_+, nu_+, nu_-, nu_-) S^T = V.
    """
    root = mpmath.sqrt((a + b) ** 2 - 4 * c * c)
    nus = ((root + a - b) / 4, (root - a + b) / 4)
    r = mpmath.atanh(2 * c / (a + b)) / 2
    ch, sh = mpmath.cosh(r), mpmath.sinh(r)
    s = mpmath.matrix([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
    d = mpmath.diag([nus[0], nus[0], nus[1], nus[1]])
    v = _mp_cm(a, b, c)
    residual = mpmath.mnorm(s * d * s.T - v, 1) / mpmath.mnorm(v, 1)
    assert residual < mpmath.mpf(10) ** (-mpmath.mp.dps + 10)
    return nus, s


def mp_log_c(entries0, entries1, s):
    """ln Tr(rho_0^s rho_1^(1-s)) by the Pirandola-Lloyd formula, in mpmath.

    C_s = prod G_s(nu_0k) G_(1-s)(nu_1k) / sqrt(det Sigma) with
    Sigma = S_0 Lambda_s(V_0) S_0^T + S_1 Lambda_(1-s)(V_1) S_1^T.
    """
    log_c = 0
    sigma = mpmath.zeros(4, 4)
    for (a, b, c), p in ((entries0, s), (entries1, 1 - s)):
        nus, sm = _mp_williamson(a, b, c)
        half_lams = []
        for nu in nus:
            top, bottom = (nu + mpmath.mpf(1) / 2) ** p, (nu - mpmath.mpf(1) / 2) ** p
            log_c -= mpmath.log(top - bottom)
            half_lams += [(top + bottom) / (top - bottom) / 2] * 2
        sigma += sm * mpmath.diag(half_lams) * sm.T
    return log_c - mpmath.log(mpmath.det(sigma)) / 2


def mp_shifted_thermal_log_c(state0, state1, s):
    """ln Tr(rho_0^s rho_1^(1-s)) of two states of one covariance nu I, in mpmath.

    The Pirandola-Lloyd formula with S = I under both hypotheses: per mode
    G_s(nu) G_(1-s)(nu), then sqrt(det Sigma) with Sigma = (Lambda_s +
    Lambda_(1-s)) I / 2, then the mean term -d^T Sigma^-1 d / 2. Every float
    of the states enters at its exact binary value.
    """
    nu = mpmath.mpf(float(state0.cov.entries[0, 0]))
    d2 = sum((mpmath.mpf(float(a)) - mpmath.mpf(float(b))) ** 2
             for a, b in zip(state0.mean, state1.mean))
    return _mp_shifted_thermal(nu, d2, state0.n_modes, s)


def cs_qcb_exponent(n_signal: float, ch) -> float:
    """Per-pulse Chernoff exponent of the coherent-probe benchmark, in closed form.

    kappa*N_S*(sqrt(N_B+1)-sqrt(N_B))^2, computed through the reciprocal
    form to avoid cancellation at large N_B. The CS-QCB rows take their rate
    from bounds.cs_qcb instead; this is their reference.
    """
    _check_nonnegative(n_signal, "n_signal")
    root_sum = math.sqrt(ch.n_background + 1.0) + math.sqrt(ch.n_background)
    return ch.reflectivity * n_signal / root_sum ** 2


def mp_coherent_log_c(n_signal: float, ch, s):
    """mp_shifted_thermal_log_c of the coherent benchmark's pair, from its parameters.

    nu = N_B + 1/2 and |d|^2 = 2 kappa N_S exactly, with no double rounding
    of the covariance or of the mean on the way.
    """
    mpf = mpmath.mpf
    return _mp_shifted_thermal(mpf(ch.n_background) + mpf(1) / 2,
                               2 * mpf(ch.reflectivity) * mpf(n_signal), 1, s)


def _mp_shifted_thermal(nu, d2, n_modes: int, s):
    """The Pirandola-Lloyd terms of ln C_s, with the digits their cancellations cost added.

    (nu + 1/2)^p - (nu - 1/2)^p loses about log10(nu) digits, and the
    G and Lambda terms, each of size ln nu, cancel down to the mean term
    d^2/(Lambda_s + Lambda_(1-s)) ~ d^2 s (1-s)/nu. Both losses are estimated
    in low precision and added to the caller's working precision; the result
    is rounded back to it.
    """
    with mpmath.workdps(15):
        scale = 2 * nu + 1
        lost = mpmath.log10(scale)
        if d2 and 0 < s < 1:
            lost += mpmath.log10((1 + abs(mpmath.log(scale))) * scale / (d2 * s * (1 - s)))
    with mpmath.workdps(mpmath.mp.dps + 10 + max(0, int(mpmath.ceil(lost)))):
        half = mpmath.mpf(1) / 2
        log_c, lam_sum = 0, 0
        for p in (s, 1 - s):
            top, bottom = (nu + half) ** p, (nu - half) ** p
            log_c -= n_modes * mpmath.log(top - bottom)
            lam_sum += (top + bottom) / (top - bottom)
        value = log_c - n_modes * mpmath.log(lam_sum / 2) - d2 / lam_sum
    return +value


def mp_classical_log_overlap(cov0, cov1, s):
    """ln integral(p0^s p1^(1-s)) of zero-mean Gaussian densities, in mpmath."""
    mixed = s * cov0 ** -1 + (1 - s) * cov1 ** -1
    return -(s * mpmath.log(mpmath.det(cov0)) + (1 - s) * mpmath.log(mpmath.det(cov1))
             + mpmath.log(mpmath.det(mixed))) / 2


def _mp_max_over_s(neg_log):
    """The maximum over s of a concave -ln C_s: the root of its slope, bracketed.

    Newton from s = 1/2 leaves (0, 1) when s* is far from 1/2, as at a bright
    signal; a bracketing solver cannot.
    """
    end = mpmath.mpf(2) ** -20
    s_star = mpmath.findroot(lambda s: mpmath.diff(neg_log, s), (end, 1 - end), solver="anderson")
    return neg_log(s_star)


def mp_model_exponents(src, ch, noise=None, dps: int = 60) -> dict:
    """60-digit Chernoff, Bhattacharyya and heterodyne-CCB exponents of the model.

    Keys are the sweep's receiver labels QI-QCB, QI-QBB and QI+Het+CCB.
    """
    with mpmath.workdps(dps):
        e0, e1 = _mp_model_entries(src, ch, noise)
        het0 = _mp_cm(*e0) + mpmath.eye(4) / 2
        het1 = _mp_cm(*e1) + mpmath.eye(4) / 2
        return {
            "QI-QCB": _mp_max_over_s(lambda s: -mp_log_c(e0, e1, s)),
            "QI-QBB": -mp_log_c(e0, e1, mpmath.mpf(1) / 2),
            "QI+Het+CCB": _mp_max_over_s(lambda s: -mp_classical_log_overlap(het0, het1, s)),
        }


# The generic route: ln C_s and its s-derivative for any pair of Gaussian states
# (any pair of Gaussian densities) from a numeric Williamson decomposition of
# each covariance and a Cholesky factor of the summed covariance. The library
# keeps only the closed forms of the model's pairs; this route is their oracle.

def _snap_pure(spectrum: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues below 1/2 and snap fp-noise purity to exactly 1/2.

    A decomposition residue of order eps*max(nu) above 1/2 would otherwise
    enter as (nu-1/2)^s, turning 1e-16 noise into 1e-8 error at s = 1/2.
    """
    nus = np.maximum(np.asarray(spectrum, dtype=float), 0.5)
    tol = 64.0 * float(np.finfo(float).eps) * max(1.0, float(nus.max()))
    nus[nus - 0.5 <= tol] = 0.5
    return nus


def _thermal_power(nu: float, s: float) -> tuple[float, float, float, float]:
    """(ln G_s(nu), its s-derivative, Lambda_s(nu), its s-derivative) for nu >= 1/2."""
    if nu <= 0.5:
        return 0.0, 0.0, 1.0, 0.0
    # ln((nu-1/2)/(nu+1/2)): (nu+1/2)/(nu-1/2) = 1 + 1/(nu-1/2) exactly
    log_ratio = -math.log1p(1.0 / (nu - 0.5))
    x = s * log_ratio
    ex = math.exp(x)
    em = -math.expm1(x)
    log_top = math.log(nu + 0.5)
    return (-s * log_top - math.log(em), -log_top + log_ratio * ex / em,
            (1.0 + ex) / em, 2.0 * log_ratio * ex / (em * em))


class _GaussianOverlap:
    """Generic route: ln C_s and its slope from the Williamson data of any state pair."""

    def __init__(self, state0: GaussianState, state1: GaussianState):
        w0 = williamson(state0.cov)
        w1 = williamson(state1.cov)
        self._sides = ((w0.s_matrix, _snap_pure(w0.spectrum), 1.0),
                       (w1.s_matrix, _snap_pure(w1.spectrum), -1.0))
        self._d = state0.mean - state1.mean

    def log_c_slope(self, s: float) -> tuple[float, float]:
        value = slope = 0.0
        sigma = d_sigma = 0.0
        # H0 enters at s, H1 at t = 1 - s, so H1's s-derivatives change sign
        for s_matrix, nus, sign in self._sides:
            lam = np.empty(len(nus))
            d_lam = np.empty(len(nus))
            for k, nu in enumerate(nus):
                log_g, d_log_g, lam[k], d = _thermal_power(nu, s if sign > 0 else 1.0 - s)
                value += log_g
                slope += sign * d_log_g
                d_lam[k] = sign * d
            sigma = sigma + (s_matrix * np.repeat(0.5 * lam, 2)) @ s_matrix.T
            d_sigma = d_sigma + (s_matrix * np.repeat(0.5 * d_lam, 2)) @ s_matrix.T
        sigma = (sigma + sigma.T) / 2.0
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise NumericFailure(f"summed overlap covariance not factorizable at s={s}") from exc
        inv_chol = np.linalg.inv(chol)
        inv = inv_chol.T @ inv_chol
        value -= float(np.log(np.diag(chol)).sum())
        slope -= 0.5 * float(np.sum(inv * d_sigma))
        if np.any(self._d != 0.0):
            x = inv @ self._d
            value -= 0.5 * float(self._d @ x)
            slope += 0.5 * float(x @ d_sigma @ x)
        return value, slope


class _ClassicalOverlap:
    """Generic route: ln integral(p0^s p1^(1-s)) and its slope for any Gaussian densities."""

    def __init__(self, pair: ClassicalDistributionPair):
        try:
            p0 = np.linalg.inv(pair.cov_h0)
            p1 = np.linalg.inv(pair.cov_h1)
            sign0, self._ld0 = np.linalg.slogdet(pair.cov_h0)
            sign1, self._ld1 = np.linalg.slogdet(pair.cov_h1)
            if min(sign0, sign1) <= 0:
                raise np.linalg.LinAlgError("non-positive determinant")
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"degenerate outcome covariances: {exc}") from None
        self._p0, self._p1 = p0, p1
        self._pm0, self._pm1 = p0 @ pair.mean_h0, p1 @ pair.mean_h1
        self._q0 = float(pair.mean_h0 @ self._pm0)
        self._q1 = float(pair.mean_h1 @ self._pm1)

    def log_c_slope(self, s: float) -> tuple[float, float]:
        t = 1.0 - s
        a = s * self._p0 + t * self._p1
        b = s * self._pm0 + t * self._pm1
        try:
            sign_a, ld_a = np.linalg.slogdet(a)
            if sign_a <= 0:
                raise np.linalg.LinAlgError("non-positive determinant")
            x = np.linalg.solve(a, b)
            a_inv_dp = np.linalg.solve(a, self._p0 - self._p1)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"degenerate outcome covariances: {exc}") from None
        value = (-0.5 * (s * self._ld0 + t * self._ld1 + ld_a)
                 + 0.5 * (float(b @ x) - s * self._q0 - t * self._q1))
        slope = (-0.5 * (self._ld0 - self._ld1 + float(np.trace(a_inv_dp)))
                 + 0.5 * (2.0 * float(x @ (self._pm0 - self._pm1))
                          - float(x @ (self._p0 - self._p1) @ x) - (self._q0 - self._q1)))
        return value, slope


def generic_s_overlap(state0, state1, s: float) -> float:
    """gaussian_s_overlap by the generic route: C_s in (0, 1] for any two states."""
    return min(math.exp(_GaussianOverlap(state0, state1).log_c_slope(_check_s(s))[0]), 1.0)


def generic_qcb(state0, state1, prior_h0: float = 0.5) -> SOverlapResult:
    """qcb by the generic route."""
    return _weighted_result(_GaussianOverlap(state0, state1).log_c_slope, prior_h0)


def qbb(state0: GaussianState, state1: GaussianState) -> float:
    """Quantum Bhattacharyya bound (1/2)*C_{1/2} for equal priors, on the closed forms'
    pairs (gaussian_s_overlap)."""
    return 0.5 * gaussian_s_overlap(state0, state1, 0.5)


def classical_s_overlap(pair: ClassicalDistributionPair, s: float) -> float:
    """Overlap integral(p0^s p1^(1-s)) of two Gaussian densities, in (0, 1], on the
    closed form of bounds' heterodyne_distributions pairs."""
    s = _check_s(s)
    return min(math.exp(_classical_route(pair)(s)[0]), 1.0)


def generic_qbb(state0, state1) -> float:
    """qbb by the generic route: (1/2) C_{1/2}."""
    return 0.5 * generic_s_overlap(state0, state1, 0.5)


def generic_classical_s_overlap(pair: ClassicalDistributionPair, s: float) -> float:
    """classical_s_overlap by the generic route, for densities of any dimension and mean."""
    return min(math.exp(_ClassicalOverlap(pair).log_c_slope(_check_s(s))[0]), 1.0)


def generic_ccb(pair: ClassicalDistributionPair, prior_h0: float = 0.5) -> SOverlapResult:
    """ccb by the generic route."""
    return _weighted_result(_ClassicalOverlap(pair).log_c_slope, prior_h0)


def check_cs_hom_rows(n_signal: float, ch, ms, rate: float, p, log_p) -> None:
    """Raise AssertionError unless a CS+Hom row over ms is mpmath's (1/2)erfc(sqrt(m*rate)).

    rate is the row's per-pulse rate, which must be within 2 ulps of the exact
    kappa*N_S/(4 N_B + 2) of the inputs. At each m, x = sqrt(m*rate) is formed
    as receiver._erfc_columns forms it, and p and ln p must be within 1 ulp
    of mpmath's (1/2)erfc(x) and its log, the bound the _erfc_column tests
    use; where x*x overflows, p must be 0 and ln p -inf. The error names each
    m that misses. That (1/2)erfc(x) is the least error over the threshold is
    check_midpoint_optimum's claim.
    """
    with mpmath.workprec(80):
        exact_rate = mpmath.mpf(ch.reflectivity) * n_signal / (4 * mpmath.mpf(ch.n_background) + 2)
        assert ulp_error(rate, exact_rate) <= 2.0, (
            f"CS+Hom rate {rate!r} is more than 2 ulps from {exact_rate}")
        with np.errstate(over="ignore"):
            xs = np.minimum(np.sqrt(rate * np.array(ms, dtype=float)), sys.float_info.max)
        bad = []
        for m, x, p_m, log_p_m in zip(ms, xs.tolist(), np.asarray(p, dtype=float).tolist(),
                                      np.asarray(log_p, dtype=float).tolist()):
            if math.isinf(x * x):
                ok = p_m == 0.0 and log_p_m == -math.inf
            else:
                exact = mp_log_erfc(x) - mpmath.ln2
                ok = ulp_error(log_p_m, exact) <= 1.0 and ulp_error(p_m, mpmath.exp(exact)) <= 1.0
            if not ok:
                bad.append(f"M={m} (x {x!r}: p {p_m!r}, log p {log_p_m!r})")
    assert not bad, "CS+Hom row is not (1/2)erfc(sqrt(M*rate)) to 1 ulp at " + ", ".join(bad)


def check_midpoint_optimum(w: float) -> None:
    """Raise AssertionError unless the threshold w/2 minimizes the equal-prior homodyne error.

    With the threshold tau and the H1 mean shift w in units of sigma, the
    error is (erfc(tau) + erfc(w - tau))/4. Its log at tau = w/2, ln p of the
    CS+Hom row, must lie below its log at w/2 +- w*10^-k for k = 1..6, all in
    mpmath. erfc(tau) and erfc(w - tau) swap between w/2 - d and w/2 + d, so
    the two sides share one pair of ln erfc values. The rise at k = 6 is
    about w^3*1e-12 for small w, so the working precision grows by three
    digits per decade of w below 1.
    """
    with mpmath.workdps(30 + max(0, math.ceil(-3.0 * math.log10(w)))):
        w = mpmath.mpf(w)
        mid = mp_log_erfc(w / 2) - mpmath.ln2
        for k in range(1, 7):
            d = w / 10 ** k
            lo, hi = sorted((mp_log_erfc(w / 2 - d), mp_log_erfc(w / 2 + d)))
            side = hi + mpmath.log1p(mpmath.exp(lo - hi)) - 2 * mpmath.ln2
            assert side > mid, f"the error at w/2 +- w*1e-{k} is not above its value at w/2 = {w / 2}"


def checked_min_error(n_signal: float, ch, m: int) -> HomodyneOptimum:
    """receiver.homodyne_min_error(n_signal, ch, m), its row held to check_cs_hom_rows."""
    opt = homodyne_min_error(n_signal, ch, m)
    check_cs_hom_rows(n_signal, ch, [m], homodyne_rate(n_signal, ch), [opt.p_error],
                      [opt.log_p_error])
    return opt


def checked_compute_sweep(spec: SweepSpec) -> SweepResult:
    """cli.compute_sweep(spec), its CS+Hom row, where it has one, held to check_cs_hom_rows."""
    result = compute_sweep(spec)
    if "CS+Hom" in spec.receivers:
        src, ch, _ = spec.scenario.resolve()
        i = spec.receivers.index("CS+Hom")
        check_cs_hom_rows(src.n_signal, ch, spec.m_values, result.per_mode_rate[i],
                          result.p_error[i], -result.exponent[i])
    return result


def deflection_sigma(emp, snr: float) -> float:
    """Standard errors between the sampled deflection sqrt(snr_hat) and the exact sqrt(snr).

    The spread montecarlo.deflection_se propagates from the mean and variance
    errors does not shrink with snr_hat, so a gate on this carries no seed luck.
    """
    return abs(math.sqrt(emp.snr_hat) - math.sqrt(snr)) / deflection_se(emp, snr)


def two_pass_moments(samples: np.ndarray) -> dict:
    """Moments of a whole sample from exactly rounded sums (math.fsum).

    The mean first, then the central power sums about it: the reference for
    the streamed, block-merged moments of qillum.montecarlo, with the same
    derived fields (sample variance, standard errors, mean/variance covariance).
    """
    n = samples.size
    mean = math.fsum(samples) / n
    centered = samples - mean
    m2, m3, m4 = (math.fsum(centered ** k) for k in (2, 3, 4))
    var = m2 / (n - 1)
    return {
        "mean": mean,
        "var": var,
        "se_mean": math.sqrt(var / n),
        "se_var": math.sqrt(max(m4 / n - var * var * (n - 3) / (n - 1), 0.0) / n),
        "cov_mean_var": m3 / n / n,
    }


def pc_transform(states: tuple[GaussianState, GaussianState]) -> tuple[GaussianState, GaussianState]:
    """Phase-conjugate the return mode of each two-mode state, as a 4x4 matrix map.

    Conjugation flips the sign of the return p quadrature and adds one vacuum
    unit of noise, so a thermal block (omega/2)*I becomes ((omega+1)/2)*I and
    a cross block proportional to Z = diag(1,-1) is mapped to the identity
    structure with the same magnitude. The map is not completely positive:
    near c = c_q the H1 result can fall below the uncertainty bound, and
    GaussianState then rejects it.
    """
    t = np.diag([1.0, -1.0, 1.0, 1.0])
    added = np.diag([0.5, 0.5, 0.0, 0.0])
    out = []
    for state in states:
        if state.n_modes != 2:
            raise ValueError(f"expected two-mode states, got {state.n_modes} modes")
        v = t @ state.cov.entries @ t + added
        out.append(GaussianState(t @ state.mean, CovMatrix(v)))
    return (out[0], out[1])


def matrix_count_weights(state: GaussianState) -> tuple[float, float]:
    """(lambda_+, lambda_-) read off a conjugated state's matrix: montecarlo's former route.

    The reference for montecarlo._count_weights, which forms the same numbers
    from the model's parameters. With a = V[0,0], b = V[2,2], x = V[0,2] of
    V = [[a, x], [x, b]] (x) I_2, lambda_+- = (x +- sqrt(a b))/2. ValueError
    unless the state is zero-mean and in that form.
    """
    v = state.cov.entries
    a, b, x = v[0, 0], v[2, 2], v[0, 2]
    if np.any(state.mean) or not np.array_equal(v, np.kron([[a, x], [x, b]], np.eye(2))):
        raise ValueError("the trial law needs a zero-mean conjugated state in standard form")
    r = math.sqrt(a * b)
    return 0.5 * (x + r), 0.5 * (x - r)


@dataclass(frozen=True)
class ErrorProbabilities:
    """False-alarm and missed-detection probabilities with their equal-prior mean."""

    p_false_alarm: float
    p_missed_detection: float
    p_error: float

    def __post_init__(self) -> None:
        for name in ("p_false_alarm", "p_missed_detection", "p_error"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        mean = 0.5 * (self.p_false_alarm + self.p_missed_detection)
        if not abs(self.p_error - mean) <= 1e-15:
            raise ValueError("p_error must be the equal-prior average of fa and md")


def homodyne_errors(n_signal: float, ch, m, threshold: float) -> ErrorProbabilities:
    """Error probabilities of a thresholded homodyne receiver on a coherent probe.

    The summed q-quadrature record over m pulses is Gaussian with variance
    m*(2*N_B+1) and mean 0 (target absent) or m*sqrt(2*kappa*N_S) (present);
    declaring "present" above the threshold gives the two erfc expressions.
    The reference that receiver.homodyne_min_error's threshold is optimal.
    """
    m = _validate_pulses(m)
    _check_nonnegative(n_signal, "n_signal")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    sigma = math.sqrt(m * (2.0 * ch.n_background + 1.0))
    shift = m * math.sqrt(2.0 * ch.reflectivity * n_signal)
    fa = half_erfc(threshold / sigma)
    md = half_erfc((shift - threshold) / sigma)
    return ErrorProbabilities(fa, md, 0.5 * (fa + md))


def _pc_mix(xs: np.ndarray) -> np.ndarray:
    """Mix the conjugated return samples 50-50 with the idler's.

    xs columns are (q_pc, p_pc, q_I, p_I); output columns are (q_+, p_+, q_-, p_-).
    """
    out = np.empty((len(xs), 4))
    np.add(xs[:, :2], xs[:, 2:], out=out[:, :2])
    np.subtract(xs[:, :2], xs[:, 2:], out=out[:, 2:])
    out *= 1.0 / math.sqrt(2.0)
    return out


def _pc_mode_blocks(src, ch, noise, seed: int, n: int, hypothesis):
    """Blocks of n beamsplitter output samples under one hypothesis.

    The reference route of montecarlo's count law: the physical chain drawn
    quadrature by quadrature. The conjugated state is coloured and then
    mixed: the mixed covariance has a small direction that its own Cholesky
    factor loses at bright backgrounds. H0 draws from stream 0, H1 from
    stream 2, the streams of the law.
    """
    h = 0 if hypothesis is Hypothesis.H0 else 1
    state = pc_transform(apply_noise(conditional_states(src, ch), noise))[h]
    for xs in _gaussian_blocks(state.mean, state.cov.entries, seed, 2 * h, n):
        yield _pc_mix(xs)


def sample_pc_modes(src, ch, noise, cfg, hypothesis) -> np.ndarray:
    """Beamsplitter output quadrature samples (q_+, p_+, q_-, p_-)."""
    return np.concatenate(list(_pc_mode_blocks(src, ch, noise, cfg.seed,
                                               cfg.n_samples, hypothesis)))


def difference_count(modes: np.ndarray) -> np.ndarray:
    """Per-sample N_+ - N_- from beamsplitter output quadratures."""
    return 0.5 * (modes[:, 0] ** 2 + modes[:, 1] ** 2
                  - modes[:, 2] ** 2 - modes[:, 3] ** 2)


def trial_mean_blocks(weights: tuple[float, float], m: int, seed: int, stream: int, n: int):
    """Blocks of n trial averages of the difference count over m pulses each.

    montecarlo's serial route, the reference for its block workers, as in
    montecarlo._block_trial_means. At m = 1 each block's exponentials are
    drawn whole, then its plus-branch count n_+ ~ Binomial(rows, lambda_+/
    (lambda_+ - lambda_-)) from the same generator, and row i is 2 lambda_+ E
    where i < n_+, else 2 lambda_- E, picked with np.where. At m >= 2 each
    block's gamma pairs are drawn whole,
    as one (rows, 2) array, and a trial is (2 lambda_+ G_1 + 2 lambda_- G_2)/m.
    """
    lam_plus, lam_minus = weights
    w_plus, w_minus = 2.0 * lam_plus / m, 2.0 * lam_minus / m
    for gen, rows in _stream_blocks(seed, stream, n):
        if m == 1:
            e = gen.standard_exponential(rows)
            n_plus = gen.binomial(rows, lam_plus / (lam_plus - lam_minus))
            yield np.where(np.arange(rows) < n_plus, w_plus, w_minus) * e
        else:
            g = gen.standard_gamma(m, size=(rows, 2))
            yield g[:, 0] * w_plus + g[:, 1] * w_minus


def moment_block(samples: np.ndarray) -> _Moments:
    """The moments of one block, centred on its own mean, in fresh arrays.

    The power sums are numpy's pairwise sums, as in montecarlo._block_moments.
    """
    mean = float(samples.mean())
    centered = samples - mean
    squares = centered ** 2
    return _Moments(n=samples.size, mean=mean, m2=float(squares.sum()),
                    m3=float((squares * centered).sum()), m4=float((squares * squares).sum()))


def streamed_moments(blocks) -> tuple[_Moments, ...]:
    """Moments of each series over a stream; each block is a tuple of series blocks.

    Blocks merge in stream order, so the result depends only on the samples.
    """
    total = None
    for block in blocks:
        part = tuple(moment_block(series) for series in block)
        total = part if total is None else tuple(a.merge(b) for a, b in zip(total, part))
    return total


def serial_trial_blocks(src, ch, noise, m: int, cfg) -> list:
    """The trial-mean blocks of H0 (stream 0) and H1 (stream 2), one block after another."""
    return [trial_mean_blocks(weights, m, cfg.seed, stream, cfg.n_samples)
            for weights, stream in zip(_count_weights(src, ch, noise), (0, 2))]


def serial_pc_receiver(src, ch, noise, cfg) -> EmpiricalStats:
    """montecarlo.simulate_pc_receiver by the serial route."""
    return _empirical_stats(*(streamed_moments((counts,) for counts in blocks)[0]
                              for blocks in serial_trial_blocks(src, ch, noise, 1, cfg)))


def serial_error_rate(src, ch, noise, m: int, cfg) -> float:
    """montecarlo.empirical_error_rate by the serial route."""
    threshold = 0.5 * math.sqrt(ch.reflectivity) * src.corr
    above = [sum(int(np.count_nonzero(means > threshold)) for means in blocks)
             for blocks in serial_trial_blocks(src, ch, noise, m, cfg)]
    return 0.5 * (above[0] + cfg.n_samples - above[1]) / cfg.n_samples


def pulse_trial_means(src, ch, noise, m: int, cfg, hypothesis) -> np.ndarray:
    """Difference count averaged over each trial's m consecutive pulses, pulse by pulse.

    The reference route of montecarlo's trial law: the n_samples*m pulses of
    the physical chain stream block by block, and each block adds its counts
    into the sums of the trials they belong to, so a trial may straddle
    blocks and only the n_samples sums persist.
    """
    sums = np.zeros(cfg.n_samples)
    start = 0
    for modes in _pc_mode_blocks(src, ch, noise, cfg.seed, cfg.n_samples * m, hypothesis):
        trial = np.arange(start, start + len(modes)) // m
        sums[trial[0]:trial[-1] + 1] += np.bincount(trial - trial[0],
                                                    weights=difference_count(modes))
        start += len(modes)
    return sums / m


def pulse_error_rate(src, ch, noise, m: int, cfg) -> float:
    """montecarlo.empirical_error_rate with every pulse drawn: the midpoint test
    on pulse_trial_means."""
    threshold = 0.5 * math.sqrt(ch.reflectivity) * src.corr
    h0, h1 = (pulse_trial_means(src, ch, noise, m, cfg, hyp)
              for hyp in (Hypothesis.H0, Hypothesis.H1))
    return 0.5 * (float(np.mean(h0 > threshold)) + float(np.mean(h1 <= threshold)))


def one_pulse_count_cdf(weights: tuple[float, float], c: np.ndarray) -> np.ndarray:
    """P(lambda_+ X_1 + lambda_- X_2 <= c) with X_i ~ chi^2_2 and lambda_+ > 0 > lambda_-.

    The convolution of the two scaled exponential laws: with
    p = lambda_+/(lambda_+ - lambda_-), it is 1 - p exp(-c/(2 lambda_+)) for
    c >= 0 and (1 - p) exp(-c/(2 lambda_-)) for c < 0 (mp_one_pulse_count_cdf
    integrates the convolution itself).
    """
    lam_plus, lam_minus = weights
    p = lam_plus / (lam_plus - lam_minus)
    c = np.asarray(c, dtype=float)
    upper = 1.0 - p * np.exp(-np.maximum(c, 0.0) / (2.0 * lam_plus))
    lower = (1.0 - p) * np.exp(-np.minimum(c, 0.0) / (2.0 * lam_minus))
    return np.where(c >= 0.0, upper, lower)


def mp_one_pulse_count_cdf(weights: tuple[float, float], c: float, dps: int = 30) -> float:
    """one_pulse_count_cdf by quadrature of the convolution, in mpmath.

    P(lambda_+ X_1 <= c - lambda_- x) = 1 - exp(-(c - lambda_- x)/(2 lambda_+))
    where its argument is positive, integrated against the chi^2_2 density
    exp(-x/2)/2 of X_2.
    """
    with mpmath.workdps(dps):
        lam_plus, lam_minus, c = (mpmath.mpf(v) for v in (*weights, c))
        start = max(mpmath.mpf(0), c / lam_minus)

        def integrand(x):
            return -mpmath.expm1(-(c - lam_minus * x) / (2 * lam_plus)) * mpmath.exp(-x / 2) / 2
        return float(mpmath.quad(integrand, [start, start + 2, mpmath.inf]))


def mp_midpoint_error_rate(src, ch, noise, m: int, dps: int = 20) -> float:
    """Exact error probability of the equal-prior midpoint test after m pulses, in mpmath.

    Under each hypothesis m times the trial mean is 2 l_+ G_1 + 2 l_- G_2, with
    G_1, G_2 ~ Gamma(m) and l_+ > 0 > l_- the count weights of the state's
    standard form. P(m D > m thr) is the integral over g of
    Q(m, (m thr - 2 l_- g)/(2 l_+)) against the Gamma(m) density of G_2
    (Q the regularized upper incomplete gamma function); the result is
    (P_0(D > thr) + 1 - P_1(D > thr))/2.
    """
    with mpmath.workdps(dps):
        m = mpmath.mpf(m)
        thr = mpmath.sqrt(mpmath.mpf(ch.reflectivity)) * mpmath.mpf(src.corr) / 2
        log_norm = mpmath.loggamma(m)
        root = mpmath.sqrt(m)
        # the Gamma(m) density is m +- a few sqrt(m) wide: split the range there
        points = [0] + [m + k * root for k in range(-8, 9) if m + k * root > 0] + [mpmath.inf]

        def above(a, b, c):
            # the CM is (1/2)[[a I, c Z], [c Z, b I]], so x = c/2 and r = sqrt((a + 1) b)/2
            r = mpmath.sqrt((a + 1) * b) / 2
            lam_plus, lam_minus = (c / 2 + r) / 2, (c / 2 - r) / 2

            def integrand(g):
                z = (m * thr - 2 * lam_minus * g) / (2 * lam_plus)
                density = mpmath.exp((m - 1) * mpmath.log(g) - g - log_norm)
                return mpmath.gammainc(m, z, mpmath.inf, regularized=True) * density
            return mpmath.quad(integrand, points)

        e0, e1 = _mp_model_entries(src, ch, noise)
        return float((above(*e0) + 1 - above(*e1)) / 2)


def mp_log_erfc(x):
    """ln erfc(x) in mpmath at the working precision, for any real x.

    Past x = 27 it sums the asymptotic series
    erfc(x) = exp(-x^2)/(x sqrt(pi)) sum_n (-1)^n (2n-1)!!/(2x^2)^n through
    n = 30, whose next term is below 1e-54 there, or until a term falls below
    the working precision's eps, which bounds what the series leaves out:
    mpmath's own erfc takes seconds at x ~ 1e100 and overflows past ~1e150.
    Below 1/2 it takes log1p(-erf(x)), where erfc(x) is too close to 1 for
    its log.
    """
    x = mpmath.mpf(x)
    if x >= 27:
        t = 1 / (2 * x * x)
        term, series = mpmath.mpf(1), mpmath.mpf(1)
        for n in range(1, 31):
            term *= -(2 * n - 1) * t
            series += term
            if abs(term) < mpmath.eps:
                break
        return -x * x - mpmath.log(x * mpmath.sqrt(mpmath.pi)) + mpmath.log(series)
    if abs(x) < 0.5:
        return mpmath.log1p(-mpmath.erf(x))
    return mpmath.log(mpmath.erfc(x))


def every_index_m_log(start: float, stop: float, count: int) -> list:
    """--m-log's pulse counts from the point of every index, sorted and deduplicated."""
    ratio = (stop / start) ** (1.0 / (count - 1))
    return sorted({int(round(start * ratio ** i)) for i in range(count)})


def half_exp(m, rate: float) -> float:
    """(1/2)exp(-m*rate) for one (m, rate): the one-element case of receiver._exp_columns."""
    return _exp_columns((rate,), (m,))[0].item()


def scalar_half_exp(m, rate: float) -> float:
    """(1/2)exp(-m*rate) for one (m, rate), one Dekker product per call: the kernel's former route.

    The bound-row kernel (receiver._exp_columns) must give these bits: m*rate
    carried exactly as hi + lo from Veltkamp's splits of m and of rate,
    exp(-lo) to first order, and past m = 1e300 the product formed from
    m/2**64 and scaled back; 0 once exp underflows, even where lo is nan.
    """
    def split(x):
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi

    m = float(m)
    scale = 2.0 ** 64 if m > 1e300 else 1.0
    a = m / scale
    hi = a * rate
    ah, al = split(a)
    bh, bl = split(rate)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    p = 0.5 * math.exp(-(hi * scale))
    return p - p * (lo * scale) if p else p


def row_sweep_csv(result) -> str:
    """cli.sweep_csv's former route: one f-string per row."""
    lines = ["receiver,M,p_error,exponent,per_mode_rate"]
    for label, rate, ps, es in zip(result.receivers, result.per_mode_rate,
                                   result.p_error, result.exponent):
        rate_text = f"{rate:.17g}"
        lines += [f"{label},{m},{p:.17g},{e:.17g},{rate_text}"
                  for m, p, e in zip(result.m_values, ps, es)]
    return "\n".join(lines) + "\n"


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


def check_gaussian_moment_identities(cfg,
                                     covariances: tuple[float, ...] = (-0.5, 0.0, 0.3, 0.8),
                                     gate_sigma: float = 5.0) -> MomentCheckReport:
    """Verify the quartic Gaussian moment identities on montecarlo's coloured normals.

    For unit-variance pairs with covariance c: <q^4> = 3 and
    <q^2 p^2> = <q^2><p^2> + 2<q p>^2 = 1 + 2 c^2, each within gate_sigma
    empirical standard errors. Pair i draws from stream 16 + i of
    montecarlo._gaussian_blocks, with its moments streamed block by block.
    """
    if cfg.n_samples < 2:
        raise ValueError("standard errors need at least 2 samples")
    rows = []
    for i, cov in enumerate(covariances):
        if not abs(cov) < 1.0:
            raise ValueError(f"unit-variance pair needs |cov| < 1, got {cov}")
        cm = np.array([[1.0, cov], [cov, 1.0]])
        pairs = (z.T for z in _gaussian_blocks(0.0, cm, cfg.seed, 16 + i, cfg.n_samples))
        moments = streamed_moments(((q ** 2) ** 2, q ** 2 * p ** 2) for q, p in pairs)

        for label, mom, expected in zip(
                ("<q^4> = 3 sigma^4", "<q^2 p^2> = 1 + 2 cov^2"), moments,
                (3.0, 1.0 + 2.0 * cov ** 2)):
            n_sigma = abs(mom.mean - expected) / mom.se_mean
            rows.append(MomentCheckRow(
                label=label, covariance=cov, observed=mom.mean,
                expected=expected, std_error=mom.se_mean, n_sigma=n_sigma,
                passed=bool(n_sigma <= gate_sigma),
            ))
    return MomentCheckReport(rows=tuple(rows))
