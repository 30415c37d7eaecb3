"""Chernoff-type error bounds for Gaussian state discrimination.

For hypotheses with prior pi_0, pi_1 and states rho_0, rho_1, the error of
the optimal measurement obeys P <= pi_0^s pi_1^(1-s) Tr(rho_0^s rho_1^(1-s))
for every s in [0, 1]. Minimizing over s gives the quantum Chernoff bound;
fixing s = 1/2 gives the looser Bhattacharyya variant. For Gaussian states
the s-overlap C_s = Tr(rho_0^s rho_1^(1-s)) has a closed form in terms of
the Williamson decompositions of the two covariance matrices (Pirandola &
Lloyd, PRA 78, 012331, 2008): fractional powers of a thermal mode with
symplectic eigenvalue nu are again thermal,

    G_s(nu)      = 1 / ((nu+1/2)^s - (nu-1/2)^s)        (trace of rho^s)
    Lambda_s(nu) = ((nu+1/2)^s + (nu-1/2)^s)
                   / ((nu+1/2)^s - (nu-1/2)^s)           (doubled eigenvalue)

so C_s is a product of G factors over modes divided by sqrt(det) of the
summed rescaled covariances, times a Gaussian factor in the mean difference.
The classical analogue for heterodyne outcome records uses the same
s-integral over Gaussian probability densities.

Two closed forms, chosen at one dispatch point (_quantum_route for states,
_classical_route for outcome densities), give ln C_s and its s-derivative for
the pairs of the illumination model. The public functions (gaussian_s_overlap,
qcb, ccb) take only these; others raise ValueError:

- Zero-mean two-mode pairs in standard form
  V = (1/2)[[a I, c Z], [c Z, b I]], which every conditional state of the
  illumination model is (StandardFormPair). The symplectic spectrum comes
  from the two-mode invariants, lambda_pm = a - h, b - h (doubled units,
  vacuum 1) with h = 2c^2/(a+b+root), root = sqrt((a+b)^2 - 4c^2), and the
  Williamson matrix is a two-mode squeezer with tanh 2r = 2c/(a+b). ln C_s
  then splits into one thermal-pair term per mode plus -log1p(m_s), where
  m_s is proportional to sinh^2 of the squeezing mismatch. Every H1 quantity
  is the H0 quantity plus a difference formed without subtracting nearly
  equal numbers, each term is brought in through log1p/expm1, and the terms
  linear in the difference, which cancel, are never formed (log1p(x) - x
  and expm1(y) - y are evaluated as such), so -ln C_s keeps its relative
  accuracy however small it is. Heterodyne outcomes have covariance
  V + I/2, which keeps the standard form; their log-overlap is the Jensen
  gap of ln det along the segment between the two covariances
  (StandardFormDensities).
- Two states of one covariance (n + 1/2) I whose means differ by d, as the
  coherent-probe benchmark's do (_shifted_thermal):
  ln C_s = -|d|^2 / (Lambda_s + Lambda_{1-s}), Lambda_s = coth(s theta).
  cs_qcb takes it directly from N_B and |d|^2/2 = kappa N_S.

Minimization over s: ln C_s is convex in s (Audenaert et al., PRL 98,
160501, 2007), so one safeguarded Newton iteration on the analytic
derivative finds s*. The slope of the derivative comes from the secant of
the last two iterates, so a route supplies only ln C_s and its first
derivative; a step that leaves the bracket is replaced by bisection. The
search stops when the predicted gap to the minimum is below a tolerance
relative to the exponent, and s = 1/2 wins any tie within that tolerance.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import (ChannelParams, GaussianState, NoiseParams, SourceParams,
                     _check_nonnegative, _standard_form_matrix)
from .symplectic import PHYSICALITY_ATOL, _symmetric_matrix

# s is clamped away from the endpoints where G_s diverges for mixed states;
# C_0 = C_1 = 1 analytically and the clamped evaluation recovers that limit.
S_ENDPOINT_EPS = 1e-12
_EPS = sys.float_info.epsilon
# Relative to the exponent: the s-search stops once its predicted gap to the
# minimum is below half of this, and s = 1/2 wins a tie within it.
_EXPONENT_RTOL = 4.0 * _EPS
_MAX_STEPS = 200
_UNPHYSICAL = "covariance matrix is not physical (symplectic eigenvalue < 1/2)"
# The largest return and idler excesses over the vacuum, 2 N_B + eps_r and
# 2 N_I + eps_i, at which the model's QI bound rates still meet 1e-12 relative
# to 140-digit mpmath on the test scenarios. Return: 7e-14 at 2e39 (N_B = 1e39),
# 1.5e-12 at 2e40. Idler: 8e-16 up to 8e76. Once the summed excess s passes
# ~1e77 the mismatch term's denominator, of order s^4, overflows, sinh^2 of the
# squeezing mismatch reads 0, and the QCB falls far below the heterodyne CCB
# that it bounds. Far larger excesses overflow a square (OverflowError).
MAX_BOUND_RETURN_EXCESS = 2e39
MAX_BOUND_IDLER_EXCESS = 1e76
# The largest H1 return excess from the signal, 2 kappa N_S, by the same scan:
# 8.2e-13 at 1e5, 1.0e-12 at 10^5.25 and 2.6e-12 at 1e6, at kappa = 1 as at
# the scenarios' own. The QI-QCB and QI-QBB rates carry the loss; past ~2e16
# their evaluation ends in a math domain error, and far past it in a QCB of 0.
MAX_BOUND_SIGNAL_EXCESS = 1e5
# The largest N_B at which the coherent rows' rates (cs_qcb, receiver.homodyne_rate)
# meet 40-digit mpmath, within 3.1 and 1.3 ulps on 300 draws at each of 16 N_B
# up to 4.4942e307. Near max/4 ~ 4.4942e307 cs_qcb's half-coth sum (~4 N_B)
# overflows and its exponent reads 0; past max/4, 4 N_B + 2 overflows too.
MAX_COHERENT_BACKGROUND = 4.49e307


@dataclass(frozen=True)
class SOverlapResult:
    """Minimized prior-weighted s-overlap and the bound it certifies.

    Holds what the s-search finds: s_star, prior_h0 and exponent = -ln C_{s*},
    kept as computed rather than recovered from c_at_s_star, which rounds
    near 1 when the exponent is small. c_at_s_star = exp(-exponent) and
    bound = pi_0^s* pi_1^(1-s*) c_at_s_star are derived from them. Past
    exponent ~708 both are subnormal, and past ~745 exp(-exponent)
    underflows: both are then 0.
    """

    s_star: float
    prior_h0: float
    exponent: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.s_star <= 1.0:
            raise ValueError(f"s_star must lie in [0, 1], got {self.s_star}")
        if not 0.0 < self.prior_h0 < 1.0:
            raise ValueError(f"prior_h0 must lie in (0, 1), got {self.prior_h0}")
        if not self.exponent >= 0.0:
            raise ValueError(f"exponent must be >= 0, got {self.exponent}")
        if self.bound > 0.5 * (1.0 + 1e-12):
            raise ValueError(f"bound must not exceed 1/2, got {self.bound}")

    @property
    def c_at_s_star(self) -> float:
        return math.exp(-self.exponent)

    @property
    def bound(self) -> float:
        pi1 = 1.0 - self.prior_h0
        # equal priors make the weight s-independent; keep it exact in that case
        weight = (self.prior_h0 if self.prior_h0 == pi1
                  else self.prior_h0 ** self.s_star * pi1 ** (1.0 - self.s_star))
        return weight * self.c_at_s_star


def _as_pd_matrix(value, name: str) -> np.ndarray:
    m = _symmetric_matrix(value, name)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None
    return m


@dataclass(frozen=True)
class ClassicalDistributionPair:
    """Gaussian outcome densities of one measurement under the two hypotheses.

    Covariances here are ordinary probability-density covariances, not
    quantum mode covariances. ccb takes the zero-mean 4-d standard-form
    densities that heterodyne_distributions gives for the model's
    conditional states.
    """

    cov_h0: np.ndarray
    cov_h1: np.ndarray
    mean_h0: np.ndarray
    mean_h1: np.ndarray

    def __post_init__(self) -> None:
        c0 = _as_pd_matrix(self.cov_h0, "cov_h0")
        c1 = _as_pd_matrix(self.cov_h1, "cov_h1")
        if c1.shape != c0.shape:
            raise ValueError("covariance dimensions differ between hypotheses")
        object.__setattr__(self, "cov_h0", c0)
        object.__setattr__(self, "cov_h1", c1)
        dim = c0.shape[0]
        means = []
        for name in ("mean_h0", "mean_h1"):
            mean = np.array(getattr(self, name), dtype=float)
            if mean.shape != (dim,) or not np.all(np.isfinite(mean)):
                raise ValueError(f"{name} must be a finite vector of length {dim}")
            mean.flags.writeable = False
            means.append(mean)
        object.__setattr__(self, "mean_h0", means[0])
        object.__setattr__(self, "mean_h1", means[1])


def _check_s(s: float) -> float:
    """Validate s in [0, 1]; return it clamped to [S_ENDPOINT_EPS, 1 - S_ENDPOINT_EPS]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    return min(max(s, S_ENDPOINT_EPS), 1.0 - S_ENDPOINT_EPS)


def _standard_form(m0: np.ndarray, m1: np.ndarray):
    """(a0, b0, c0, a1-a0, b1-b0, c1-c0) if both matrices are (1/2)[[a I, c Z], [c Z, b I]].

    Returns None for any other pair of matrices.
    """
    entries = []
    for m in (m0, m1):
        if m.shape != (4, 4):
            return None
        a, b, c = (2.0 * float(m[i, j]) for i, j in ((0, 0), (2, 2), (0, 2)))
        if not np.array_equal(2.0 * m, _standard_form_matrix(a, b, c)):
            return None
        entries.append((a, b, c))
    (a0, b0, c0), (a1, b1, c1) = entries
    return a0, b0, c0, a1 - a0, b1 - b0, c1 - c0


# log1p(x) - x and expm1(y) - y by their series below 0.1 in magnitude, truncated
# where the next term is below 1e-17 of the sum: with w = x/(2 + x),
# atanh(w) - w = w^3 (1/3 + w^2/5 + w^4/7 + ...), and expm1(y) - y = y^2 (1/2! + y/3! + ...)
_SERIES_BELOW = 0.1
_ATANH_TAIL = tuple(1.0 / (2 * k + 3) for k in range(8))[::-1]
_EXPM1_TAIL = tuple(1.0 / math.factorial(k) for k in range(2, 15))[::-1]


def _log1p_gap_series(x):
    w = x / (2.0 + x)
    w2 = w * w
    tail = 0.0
    for c in _ATANH_TAIL:
        tail = tail * w2 + c
    # log1p(x) = 2 atanh(w), and 2w - x = -x^2/(2 + x)
    return 2.0 * w * w2 * tail - x * x / (2.0 + x)


def _expm1_gap_series(y):
    tail = 0.0
    for c in _EXPM1_TAIL:
        tail = tail * y + c
    return y * y * tail


def _log1p_gap(x: float) -> float:
    """log1p(x) - x, accurate relative to itself also where it is ~ -x^2/2."""
    return _log1p_gap_series(x) if abs(x) < _SERIES_BELOW else math.log1p(x) - x


def _expm1_gap(y: float) -> float:
    """expm1(y) - y, accurate relative to itself also where it is ~ y^2/2."""
    return _expm1_gap_series(y) if abs(y) < _SERIES_BELOW else math.expm1(y) - y


class _ThermalPair:
    """ln of the s-overlap of one mode's thermal factors under H0 and H1.

    With n = lambda - 1 (doubled eigenvalue minus vacuum), Boltzmann factor
    q = n/(n+2) and t = 1 - s, the overlap is l_s = t log1p(X(1)) - log1p(X(t))
    with X(t) = k expm1(t L), k = -n0/2 and L = ln(q1/q0) =
    2 atanh(delta/(n0 + n1 + n0 n1)), formed from delta = n1 - n0 directly.
    Its terms linear in X cancel exactly, so l_s is evaluated as
        t g(X1) - g(t X1) - log1p(k (e(t L) - t e(L)) / (1 + t X1)),
    g(x) = log1p(x) - x, e(y) = expm1(y) - y: every piece is of the size of
    l_s itself, which is second order in delta. A pure mode (q = 0) makes
    l_s linear in s. theta = atanh(1/lambda) sets the thermal factor of
    rho^s, Lambda_s = coth(s theta).
    """

    def __init__(self, n0: float, n1: float, delta: float):
        self.theta0 = 0.5 * math.log1p(2.0 / n0) if n0 > 0.0 else math.inf
        self.theta1 = 0.5 * math.log1p(2.0 / n1) if n1 > 0.0 else math.inf
        if n0 > 0.0 and n1 > 0.0:
            self.offset = self.linear = 0.0
            self.k = -0.5 * n0
            self.log_rho = 2.0 * math.atanh(delta / (n0 + n1 + n0 * n1))
        else:
            # l_s = s ln(1-q0) if q1 = 0, t ln(1-q1) if q0 = 0, and 0 if both are
            a = -math.log1p(0.5 * n0) if n1 == 0.0 else 0.0
            b = -math.log1p(0.5 * n1) if n0 == 0.0 else 0.0
            self.offset, self.linear, self.k, self.log_rho = a, b - a, 0.0, 0.0
        self.x1 = self.k * math.expm1(self.log_rho)
        self.gap_x1 = _log1p_gap(self.x1)
        self.gap_rho = _expm1_gap(self.log_rho)
        self.log1p_x1 = math.log1p(self.x1)

    def log_overlap(self, t: float) -> tuple[float, float]:
        """(l_s, dl_s/ds) at t = 1 - s."""
        tr = t * self.log_rho
        tx1 = t * self.x1
        value = (self.offset + t * (self.linear + self.gap_x1) - _log1p_gap(tx1)
                 - math.log1p(self.k * (_expm1_gap(tr) - t * self.gap_rho) / (1.0 + tx1)))
        # -ln(q0^s q1^t) = 2 theta0 - t L; d/ds log1p(X(t)) = -L q0^s q1^t / (1 - q0^s q1^t)
        slope = (-self.linear - self.log1p_x1
                 - self.log_rho / math.expm1(2.0 * self.theta0 - tr))
        return value, slope


def _finite(theta: float) -> float:
    """theta as the slope factor of coth(s theta): 0 for a pure mode, where coth is 1 for all s."""
    return theta if theta < math.inf else 0.0


def _half_coth(x: float, theta_slope: float) -> tuple[float, float]:
    """(coth(x)/2, -(coth(x)^2 - 1)/2 * theta_slope): half the thermal factor and its slope."""
    p = 0.5 / math.tanh(x)
    return p, -0.5 * theta_slope * (4.0 * p * p - 1.0)


def _excess(n_a: float, n_b: float, h: float) -> tuple[float, float]:
    """(lambda_+ - 1, lambda_- - 1) = (n_a - h, n_b - h) of one state.

    Each carries the rounding of h, ~eps*h, so a residue of that order above
    the vacuum is snapped to 0 (a pure mode); at h = 0 (no correlation) the
    excess is the given n_a or n_b, kept however small. Raises ValueError
    below -2*PHYSICALITY_ATOL, i.e. for nu < 1/2 - PHYSICALITY_ATOL.
    """
    excess = []
    for n_entry in (n_a, n_b):
        n = n_entry - h
        if n < -2.0 * PHYSICALITY_ATOL:
            raise ValueError(_UNPHYSICAL)
        excess.append(n if n > 64.0 * _EPS * h else 0.0)
    return tuple(excess)


class StandardFormPair:
    """Zero-mean two-mode states V_k = (1/2)[[a_k I, c_k Z], [c_k Z, b_k I]], k = 0, 1.

    a, b, c are in vacuum units (the vacuum has a = b = 1, c = 0) and are
    given by their excess over the vacuum, n_a = a - 1 and n_b = b - 1 (2N for
    a thermal mode of N photons), which keeps a nearly pure mode's excess
    exact. H0 is (n_a0, n_b0, c0) and H1 is (n_a0 + da, n_b0 + db, c0 + dc):
    giving H1 by its differences lets every H1 - H0 term be formed without
    subtracting nearly equal numbers. Raises ValueError if a state is not
    physical, i.e. has a symplectic eigenvalue below 1/2 - PHYSICALITY_ATOL.
    """

    def __init__(self, n_a0: float, n_b0: float, c0: float,
                 da: float = 0.0, db: float = 0.0, dc: float = 0.0):
        if not all(math.isfinite(v) for v in (n_a0, n_b0, c0, da, db, dc)):
            raise ValueError("standard-form entries must be finite")
        n_a1, n_b1, c1 = n_a0 + da, n_b0 + db, c0 + dc
        self._args = (n_a0, n_b0, c0, da, db, dc)
        s0, s1, ds = 2.0 + (n_a0 + n_b0), 2.0 + (n_a1 + n_b1), da + db
        if not (s0 > 2.0 * abs(c0) and s1 > 2.0 * abs(c1)):
            raise ValueError(_UNPHYSICAL)
        root0 = math.sqrt((s0 - 2.0 * abs(c0)) * (s0 + 2.0 * abs(c0)))
        root1 = math.sqrt((s1 - 2.0 * abs(c1)) * (s1 + 2.0 * abs(c1)))
        d_root = (ds * (s0 + s1) - 4.0 * dc * (c0 + c1)) / (root0 + root1)
        # lambda_+ = a - h, lambda_- = b - h with h = 2c^2/(s + root); n = lambda - 1.
        # The H1 - H0 differences delta come from h1 - h0 formed by differences.
        w0, w1 = s0 + root0, s1 + root1
        h0, h1 = 2.0 * c0 * c0 / w0, 2.0 * c1 * c1 / w1
        dh = 2.0 * (dc * (c0 + c1) * w0 - c0 * c0 * (ds + d_root)) / (w0 * w1)
        delta = (da - dh, db - dh)
        n0 = _excess(n_a0, n_b0, h0)
        n1 = _excess(n_a1, n_b1, h1)
        # n0 + delta is the more accurate n1 for nearby states, the direct one for
        # distant states, whose error in n0 + delta is set by H0's larger scale
        n1 = [n0[k] + delta[k] if n1[k] > 0.0 and abs(delta[k]) <= 0.5 * n0[k] else n1[k]
              for k in (0, 1)]
        self._modes = tuple(_ThermalPair(n0[k], n1[k], delta[k]) for k in (0, 1))
        # sinh^2 of the squeezing mismatch r1 - r0, from c1 s0 - c0 s1 = dc s0 - c0 ds
        big_r = root0 * root1
        self._sinh2 = (2.0 * (dc * s0 - c0 * ds) ** 2
                       / (big_r * (s0 * s1 - 4.0 * c0 * c1 + big_r)))

    @classmethod
    def from_model(cls, src: SourceParams, ch: ChannelParams,
                   noise: NoiseParams = NoiseParams()) -> "StandardFormPair":
        """The conditional return/idler states of states.conditional_states after apply_noise.

        ValueError past MAX_BOUND_RETURN_EXCESS, MAX_BOUND_SIGNAL_EXCESS or
        MAX_BOUND_IDLER_EXCESS, where the rates lose their accuracy.
        """
        n_a, n_b = 2.0 * ch.n_background + noise.eps_return, 2.0 * src.n_idler + noise.eps_idler
        d_a = 2.0 * ch.reflectivity * src.n_signal
        for mode, flags, excess, limit in (
                ("return", "2 N_B + eps_r (--nb, --eps-r)", n_a, MAX_BOUND_RETURN_EXCESS),
                ("H1 return", "2 kappa N_S (--ns, --kappa)", d_a, MAX_BOUND_SIGNAL_EXCESS),
                ("idler", "2 N_I + eps_i (--ni, --eps-i)", n_b, MAX_BOUND_IDLER_EXCESS)):
            if excess > limit:
                raise ValueError(
                    f"the {mode} excess {flags} = {float(excess)!r} is above {limit:g}, past which "
                    "the QI-QCB, QI-QBB and QI+Het+CCB rates lose their accuracy; "
                    "the threshold receivers take any value")
        return cls(n_a, n_b, 0.0, d_a, 0.0, math.sqrt(ch.reflectivity) * src.corr)

    def _log_c_slope(self, s: float) -> tuple[float, float]:
        """(ln C_s, d ln C_s/ds) for s in (0, 1).

        The value at s = 1/2 is kept: every s-search starts there, and QI-QBB reads it.
        """
        return self._at_half if s == 0.5 else self._log_c_slope_at(s)

    @cached_property
    def _at_half(self) -> tuple[float, float]:
        return self._log_c_slope_at(0.5)

    def _log_c_slope_at(self, s: float) -> tuple[float, float]:
        t = 1.0 - s
        value = slope = 0.0
        for mode in self._modes:
            v, d = mode.log_overlap(t)
            value, slope = value + v, slope + d
        if self._sinh2 == 0.0:
            return value, slope
        # mismatch m = sinh^2(dr) u0 u1 / (w_+ w_-), u_k = P_k+ + P_k-, w_pm = P_0pm + P_1pm,
        # P = Lambda/2 the halved thermal factors of rho_0^s and rho_1^t
        (p0p, d0p), (p0m, d0m) = (_half_coth(s * mode.theta0, _finite(mode.theta0))
                                  for mode in self._modes)
        (p1p, d1p), (p1m, d1m) = (_half_coth(t * mode.theta1, -_finite(mode.theta1))
                                  for mode in self._modes)
        u0, u1 = p0p + p0m, p1p + p1m
        wp, wm = p0p + p1p, p0m + p1m
        m = self._sinh2 * u0 * u1 / (wp * wm)
        d_log_m = (d0p + d0m) / u0 + (d1p + d1m) / u1 - (d0p + d1p) / wp - (d0m + d1m) / wm
        return value - math.log1p(m), slope - m / (1.0 + m) * d_log_m

    def log_c(self, s: float) -> float:
        """ln C_s = ln Tr(rho_0^s rho_1^(1-s)), for s in [0, 1]; ValueError unless it is finite."""
        return _finite_log_c(self._log_c_slope(_check_s(s))[0])

    def qcb(self, prior_h0: float = 0.5) -> SOverlapResult:
        """Quantum Chernoff bound, as qcb() on the two states."""
        return _weighted_result(self._log_c_slope, prior_h0)

    def heterodyne(self) -> "StandardFormDensities":
        """Densities of the joint heterodyne record: covariance V + I/2 under each hypothesis."""
        n_a0, n_b0, c0, da, db, dc = self._args
        return StandardFormDensities(2.0 + n_a0, 2.0 + n_b0, c0, da, db, dc)


class StandardFormDensities:
    """Zero-mean 4-d Gaussian densities, covariance (1/2)[[A_k I, C_k Z], [C_k Z, B_k I]].

    H1 is (A0 + dA, B0 + dB, C0 + dC). Along the segment between the two
    covariances det is (d0 (1 + s y + s^2 z) / 4)^2 with d0 = A0 B0 - C0^2,
    so the log-overlap is s log1p(u) - log1p(s y + s^2 z), u = y + z.
    """

    def __init__(self, a0: float, b0: float, c0: float,
                 da: float = 0.0, db: float = 0.0, dc: float = 0.0):
        if not all(math.isfinite(v) for v in (a0, b0, c0, da, db, dc)):
            raise ValueError("standard-form entries must be finite")
        d0 = a0 * b0 - c0 * c0
        g1 = b0 * da + a0 * db - 2.0 * c0 * dc
        g2 = da * db - dc * dc
        if not (a0 > 0.0 and b0 > 0.0 and d0 > 0.0 and a0 + da > 0.0 and b0 + db > 0.0
                and d0 + g1 + g2 > 0.0):
            raise ValueError("outcome covariances must be positive definite")
        self._y, self._z = g1 / d0, g2 / d0
        self._u = (g1 + g2) / d0
        self._gap_u = _log1p_gap(self._u)
        self._log1p_u = math.log1p(self._u)

    def _log_c_slope(self, s: float) -> tuple[float, float]:
        # s log1p(u) - log1p(s y + s^2 z) with s y + s^2 z = s u - s t z: the
        # terms linear in u cancel exactly, leaving s g(u) - g(s u), g = log1p(x) - x
        su = s * self._u
        stz = s * (1.0 - s) * self._z
        value = s * self._gap_u - _log1p_gap(su) - math.log1p(-stz / (1.0 + su))
        return value, self._log1p_u - (self._y + 2.0 * s * self._z) / (1.0 + su - stz)

    def log_c(self, s: float) -> float:
        """ln of the overlap integral(p0^s p1^(1-s)), for s in [0, 1]; ValueError unless finite."""
        return _finite_log_c(self._log_c_slope(_check_s(s))[0])

    def ccb(self, prior_h0: float = 0.5) -> SOverlapResult:
        """Classical Chernoff bound, as ccb() on the two densities."""
        return _weighted_result(self._log_c_slope, prior_h0)


def _shifted_thermal(n: float, half_d2: float):
    """s -> (ln C_s, slope) for two states of covariance (n + 1/2) I whose means differ by d.

    Only the mean term is left: ln C_s = -(|d|^2/2) / (P_s + P_{1-s}), with
    P_s = coth(s theta)/2 = (1 + q^s) / (2 (1 - q^s)), q = n/(n+1) = e^(-2 theta).
    It takes half_d2 = |d|^2/2, kappa N_S for the coherent pair, so the
    exponent is finite wherever kappa N_S is, also where |d|^2 overflows.
    1 - q^s comes from expm1, not libm's tanh, which put the s = 1/2 exponent
    up to 4.6 ulps from mpmath.
    """
    log_q = -math.log1p(1.0 / n) if n > 0.0 else -math.inf
    theta = _finite(-0.5 * log_q)

    def half_coth(x: float) -> tuple[float, float]:
        e = -math.expm1(x * log_q)
        p = 0.5 * (2.0 - e) / e
        return p, -0.5 * theta * (4.0 * p * p - 1.0)

    def log_c_slope(s: float) -> tuple[float, float]:
        (p0, d0), (p1, d1) = half_coth(s), half_coth(1.0 - s)
        value = -half_d2 / (p0 + p1)
        return value, -value * (d0 - d1) / (p0 + p1)
    return log_c_slope


def _quantum_route(state0: GaussianState, state1: GaussianState):
    """The dispatch point for states: s -> (ln C_s, slope) by one of the two closed forms."""
    if state0.n_modes != state1.n_modes:
        raise ValueError(f"mode counts differ: {state0.n_modes} vs {state1.n_modes}")
    cov = state0.cov.entries
    if not (np.any(state0.mean) or np.any(state1.mean)):
        entries = _standard_form(cov, state1.cov.entries)
        if entries is not None:
            a0, b0, c0, da, db, dc = entries
            return StandardFormPair(a0 - 1.0, b0 - 1.0, c0, da, db, dc)._log_c_slope
    if np.array_equal(cov, state1.cov.entries) and np.array_equal(cov, cov[0, 0] * np.eye(len(cov))):
        d = state0.mean - state1.mean
        return _shifted_thermal(max(float(cov[0, 0]) - 0.5, 0.0), 0.5 * float(d @ d))
    raise ValueError("no closed form for this pair of states: the bounds take a zero-mean two-mode "
                     "standard-form pair, or two states of one covariance (n + 1/2) I")


def _classical_route(pair: ClassicalDistributionPair):
    """The dispatch point for outcome densities: s -> (ln overlap, slope) in closed form."""
    if not (np.any(pair.mean_h0) or np.any(pair.mean_h1)):
        entries = _standard_form(pair.cov_h0, pair.cov_h1)
        if entries is not None:
            return StandardFormDensities(*entries)._log_c_slope
    raise ValueError("no closed form for these densities: the bounds take the zero-mean 4-d "
                     "standard-form densities that heterodyne_distributions gives for the model")


def _minimize_weighted(log_c_slope, prior_h0: float) -> tuple[float, float]:
    """Minimize g(s) = s ln(pi0) + (1-s) ln(pi1) + ln C_s over the clamped [0, 1].

    Returns (s*, ln C_{s*}). g is convex, so a bracket [lo, hi] holding the
    minimum shrinks at each step; the step is Newton's on g', with g'' taken
    from the secant of the last two iterates (the first from the parabola
    through C_0 = C_1 = 1) and bisection whenever a step leaves the bracket.
    It stops once the predicted gap g'^2/(2 g'') is within half of
    _EXPONENT_RTOL |ln C_s|; s = 1/2 is kept if no point beats it by more
    than _EXPONENT_RTOL |ln C_s|. ValueError, before any step, where ln C_1/2
    is not finite.
    """
    d_prior = math.log(prior_h0) - math.log1p(-prior_h0)
    lo, hi = S_ENDPOINT_EPS, 1.0 - S_ENDPOINT_EPS
    s = 0.5
    f, df = log_c_slope(s)
    _exponent(f)  # raises where ln C_1/2 is not finite
    g, dg = s * d_prior + f, d_prior + df
    half = best = (g, s, f)
    curvature = -8.0 * f
    for _ in range(_MAX_STEPS):
        if dg == 0.0:
            break
        if dg > 0.0:
            hi = s
        else:
            lo = s
        if curvature > 0.0 and dg * dg <= _EXPONENT_RTOL * abs(f) * curvature:
            break
        step = s - dg / curvature if curvature > 0.0 else math.nan
        s_new = step if lo < step < hi else 0.5 * (lo + hi)
        if s_new == s:
            break
        f_new, df_new = log_c_slope(s_new)
        g_new, dg_new = s_new * d_prior + f_new, d_prior + df_new
        curvature = (dg_new - dg) / (s_new - s)
        s, f, g, dg = s_new, f_new, g_new, dg_new
        if g < best[0]:
            best = (g, s, f)
    g_best, s_best, f_best = best
    if half[0] <= g_best + _EXPONENT_RTOL * abs(f_best):
        return 0.5, half[2]
    return s_best, f_best


def _finite_log_c(log_c: float) -> float:
    """ln C_s itself; ValueError unless it is finite."""
    if not math.isfinite(log_c):
        raise ValueError(f"ln C_s = {log_c} is not finite: the pair's s-overlap is out of "
                         "double range")
    return log_c


def _exponent(log_c: float) -> float:
    """-ln C_s, read as 0 where rounding puts ln C_s above 0; ValueError unless ln C_s is finite."""
    log_c = _finite_log_c(log_c)
    return -log_c if log_c < 0.0 else 0.0


def _weighted_result(log_c_slope, prior_h0: float) -> SOverlapResult:
    """The bound at the s* that minimizes the prior-weighted overlap."""
    if not 0.0 < prior_h0 < 1.0:
        raise ValueError(f"prior_h0 must lie in (0, 1), got {prior_h0}")
    return _bound_at(*_minimize_weighted(log_c_slope, prior_h0), prior_h0)


def _bound_at(s: float, log_c: float, prior_h0: float) -> SOverlapResult:
    """The bound pi_0^s pi_1^(1-s) C_s that ln C_s certifies at one s.

    ValueError unless ln C_s is finite.
    """
    return SOverlapResult(s_star=s, prior_h0=prior_h0, exponent=_exponent(log_c))


def gaussian_s_overlap(state0: GaussianState, state1: GaussianState, s: float) -> float:
    """C_s = Tr(rho_0^s rho_1^(1-s)) for Gaussian states, in [0, 1].

    ValueError unless ln C_s is finite.
    """
    s = _check_s(s)
    return math.exp(-_exponent(_quantum_route(state0, state1)(s)[0]))


def qcb(state0: GaussianState, state1: GaussianState, prior_h0: float = 0.5) -> SOverlapResult:
    """Quantum Chernoff bound: min over s of the prior-weighted s-overlap."""
    return _weighted_result(_quantum_route(state0, state1), prior_h0)


def cs_qcb(n_signal: float, ch: ChannelParams, prior_h0: float = 0.5) -> SOverlapResult:
    """qcb of coherent_benchmark_states, in closed form from N_B and |d|^2/2 = kappa N_S.

    At equal priors s* = 1/2. ValueError past MAX_COHERENT_BACKGROUND.
    """
    _check_nonnegative(n_signal, "n_signal")
    _check_coherent_background(ch)
    return _weighted_result(
        _shifted_thermal(ch.n_background, ch.reflectivity * n_signal), prior_h0)


def _check_coherent_background(ch: ChannelParams) -> None:
    """ValueError past MAX_COHERENT_BACKGROUND, where the coherent rows' rates overflow."""
    if ch.n_background > MAX_COHERENT_BACKGROUND:
        raise ValueError(f"the background N_B (--nb) = {ch.n_background!r} is above "
                         f"{MAX_COHERENT_BACKGROUND:g}, past which the CS-QCB and CS+Hom rates overflow")


def heterodyne_distributions(state0: GaussianState, state1: GaussianState) -> ClassicalDistributionPair:
    """Gaussian densities of the joint heterodyne record under each hypothesis.

    Heterodyning both modes yields outcomes distributed with the true
    covariance plus half a vacuum unit per quadrature.
    """
    if state0.n_modes != state1.n_modes:
        raise ValueError(f"mode counts differ: {state0.n_modes} vs {state1.n_modes}")
    half = 0.5 * np.eye(2 * state0.n_modes)
    return ClassicalDistributionPair(state0.cov.entries + half, state1.cov.entries + half,
                                     state0.mean, state1.mean)


def ccb(pair: ClassicalDistributionPair) -> SOverlapResult:
    """Classical Chernoff bound for the outcome densities, equal priors."""
    return _weighted_result(_classical_route(pair), 0.5)
