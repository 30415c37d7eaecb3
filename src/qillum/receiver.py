"""Phase-conjugate receiver statistics, benchmark error probabilities, and
the table of the receivers that are compared.

The receiver conjugates each return mode, mixes it with the retained idler
on a balanced beamsplitter, and thresholds the photon-number difference
between the two output ports. Summed over M pulse pairs the decision
statistic is Gaussian to excellent approximation, so the error probability
is (1/2)erfc(sqrt(M*SNR)) with a per-pair SNR that has a closed form.

Also provides the coherent-probe homodyne benchmark and the leading-order
large-background limits of the SNR.

RECEIVERS defines each of the eight receivers once (Receiver), by functions
of one Scenario: a threshold receiver's SNR, or a bound receiver's
prior-weighted Chernoff-type bound, whose equal-prior exponent is its rate;
the noise a PC receiver adds; the bright-background asymptote where known.
`qi sweep`, `qi snr` and `qi bounds` read it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bounds import StandardFormPair, _bound_at, _check_coherent_background, cs_qcb
from .states import ChannelParams, NoiseParams, SourceParams, _validate_pulses, c_quantum

LN_HALF = math.log(0.5)
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant
_SPLIT_SCALE = 2.0 ** 64  # brings any double m under the split's overflow


def _split(x):
    """Veltkamp's split: x == hi + lo exactly, each half with 26 significant bits."""
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, b):
    """hi + lo == a*b exactly (Dekker's product).

    Exact while |a|, |b| stay below ~1e300 and a*b neither overflows nor
    comes near the subnormal range.
    """
    hi = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, lo


def log_erfc(x: float) -> float:
    """ln(erfc(x)) to within an ulp for any finite x: the one-element case of _erfc_column."""
    return _erfc_column(np.array([x], dtype=float))[1].item()


def _erfc_column(x: np.ndarray, half: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(erfc(x), ln erfc(x)) elementwise over a float array x; ValueError unless x is finite.

    With half, (p, ln p) of p = erfc(x)/2 instead. Both come from one
    evaluation per x in the private module _erfc, imported on the first
    call: ln p from a table-driven Taylor expansion carried as a
    double-double and rounded once, and p from a double-double exponential
    of it, so that neither rounds twice. It uses IEEE arithmetic, exact
    power-of-two scaling and table gathers only, no C library function, so
    the bits do not follow the platform's libm or numpy's SIMD code. Each
    value is within an ulp of the exact one, but for ln p with half and
    x < 0, which is within 1e-16 absolute.
    """
    from ._erfc import erfc_pair
    return erfc_pair(x, half)


def half_erfc(x: float) -> float:
    """(1/2)erfc(x) to within an ulp: the one-element case of _erfc_column with half.

    It underflows past x ~ 26.5; ln p, finite everywhere, is that column's
    second value.
    """
    return _erfc_column(np.array([x], dtype=float), half=True)[0].item()


def half_exp(m, rate: float) -> float:
    """(1/2)exp(-m*rate), a Chernoff-type error bound after m pulses.

    The one-element case of _exp_columns.
    """
    return _exp_columns((rate,), (m,))[0].item()


def _exp_columns(rates, ms) -> tuple[np.ndarray, np.ndarray]:
    """(p, ln p) of p = (1/2)exp(-m*rate), float64 arrays of shape (len(rates), len(ms)).

    m*rate is carried exactly as hi + lo (Dekker's product) and exp(-lo) is
    taken to first order, so p rounds little more than exp itself;
    exp(ln(1/2) - m*rate) would scale the rounding of m*rate by m*rate.
    ln p is ln(1/2) - m*rate. Each m and each rate is split once, as _split
    does, in a Python loop: on a bound table's few M it costs less than
    numpy's calls. The split of m overflows past m ~ 1.3e300, so there the
    product is formed from m/2**64 and scaled back by the exact power of two.
    """
    splits = []
    for m in ms:
        m = float(m)
        scale = _SPLIT_SCALE if m > 1e300 else 1.0
        a = m / scale
        c = _SPLITTER * a
        a_hi = c - (c - a)
        splits.append((scale, a, a_hi, a - a_hi))
    p_column, log_column = [], []
    for rate in rates:
        rate_hi, rate_lo = _split(rate)
        for scale, a, a_hi, a_lo in splits:
            hi = a * rate
            lo = ((a_hi * rate_hi - hi) + a_hi * rate_lo + a_lo * rate_hi) + a_lo * rate_lo
            # m*rate rounded: a power-of-two scale changes no rounding, and overflows as m*rate does
            hi *= scale
            p = 0.5 * math.exp(-hi)
            # once exp underflows, m*rate may have overflowed and lo be nan: keep the 0
            p_column.append(p - p * (lo * scale) if p else p)
            log_column.append(LN_HALF - hi)
    values = p_column + log_column
    p, log_p = np.fromiter(values, float, len(values)).reshape(2, len(rates), len(ms))
    return p, log_p


@dataclass(frozen=True)
class BeamsplitterMoments:
    """Second moments of the two beamsplitter output modes.

    alpha_plus/alpha_minus describe the target-absent hypothesis: the common
    quadrature variance of both output modes and their cross covariance,
    (omega+1+-mu)/4. beta_plus/beta_minus are the +/- output quadrature
    variances under target-present, (gamma+1+mu+-2*sqrt(kappa)*c)/4, and
    gamma_star = (gamma+1-mu)/4 is the corresponding cross covariance.
    """

    alpha_plus: float
    alpha_minus: float
    beta_plus: float
    beta_minus: float
    gamma_star: float

    def __post_init__(self) -> None:
        vals = (self.alpha_plus, self.alpha_minus, self.beta_plus,
                self.beta_minus, self.gamma_star)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("beamsplitter moments must be finite")


@dataclass(frozen=True)
class ReceiverStats:
    """Per-pulse-pair mean and variance of the difference count, plus SNR, as snr_pc gives them.

    snr is (mean_h1-mean_h0)^2 / (2*(sqrt(var_h1)+sqrt(var_h0))^2), the
    deflection form that the closed-form expression specializes; snr_pc
    raises before it builds one where a value overflows.
    """

    mean_h0: float
    mean_h1: float
    var_h0: float
    var_h1: float
    snr: float


@dataclass(frozen=True)
class HomodyneOptimum:
    """Minimum homodyne error probability and the threshold achieving it."""

    p_error: float
    threshold: float
    log_p_error: float


# the scenario flags behind _noisy's (mu, omega, gamma), for the messages of overflows
_NOISY_FLAGS = ("mu = 2 N_I + 1 + eps_i (--ni, --eps-i), omega = 2 N_B + 1 + eps_r (--nb, --eps-r) "
                "and gamma = omega + 2 kappa N_S (--kappa, --ns)")


def _noisy(src: SourceParams, ch: ChannelParams, noise: NoiseParams) -> tuple[float, float, float]:
    """(mu, omega, gamma) with the added noise: mu + eps_idler, omega and gamma + eps_return."""
    return (src.mu + noise.eps_idler, ch.omega + noise.eps_return,
            ch.gamma(src.n_signal) + noise.eps_return)


def beamsplitter_moments(src: SourceParams, ch: ChannelParams,
                         noise: NoiseParams = NoiseParams()) -> BeamsplitterMoments:
    """Output-mode second moments after conjugation and balanced mixing, added noise included."""
    mu, omega, gamma = _noisy(src, ch, noise)
    root = 2.0 * math.sqrt(ch.reflectivity) * src.corr
    return BeamsplitterMoments(
        alpha_plus=(omega + 1.0 + mu) / 4.0,
        alpha_minus=(omega + 1.0 - mu) / 4.0,
        beta_plus=(gamma + 1.0 + mu + root) / 4.0,
        beta_minus=(gamma + 1.0 + mu - root) / 4.0,
        gamma_star=(gamma + 1.0 - mu) / 4.0,
    )


def snr_pc(src: SourceParams, ch: ChannelParams,
           noise: NoiseParams = NoiseParams()) -> ReceiverStats:
    """Closed-form per-pulse-pair SNR of the difference-count receiver.

    snr = kappa*c^2 / (sqrt(kappa*c^2 + mu*(1+gamma)) + sqrt(mu*(1+omega)))^2
    with the noise replacements applied. All terms are sums of non-negative
    quantities, so the result is accurate to a few ulp at any scale.
    ValueError where a variance or the denominator overflows: from
    N_B ~ 2e307 at the default N_I, and sooner as N_I grows.
    """
    mu, omega, gamma = _noisy(src, ch, noise)
    kc2 = ch.reflectivity * src.corr * src.corr
    a1 = kc2 + mu * (1.0 + gamma)
    a0 = mu * (1.0 + omega)
    root = math.sqrt(a1) + math.sqrt(a0)
    # squared by one IEEE multiply, not libm's pow; a1 >= a0 >= 2, so a finite
    # square holds both variances and is above 0
    denominator = root * root
    if not math.isfinite(denominator):
        raise ValueError("the PC count variances mu (1 + omega) and kappa c^2 + mu (1 + gamma) "
                         f"overflow the SNR's denominator; {_NOISY_FLAGS}")
    return ReceiverStats(
        mean_h0=0.0,
        mean_h1=math.sqrt(ch.reflectivity) * src.corr,
        var_h0=a0 / 2.0,
        var_h1=a1 / 2.0,
        snr=kc2 / denominator,
    )


def homodyne_rate(n_signal: float, ch: ChannelParams) -> float:
    """Per-pulse rate kappa*N_S/(4*N_B+2) of the optimal coherent homodyne test.

    ValueError past bounds.MAX_COHERENT_BACKGROUND, where 4*N_B+2 nears overflow.
    """
    _check_coherent_background(ch)
    return ch.reflectivity * n_signal / (4.0 * ch.n_background + 2.0)


def homodyne_min_error(n_signal: float, ch: ChannelParams, m) -> HomodyneOptimum:
    """Minimum equal-prior homodyne error (1/2)erfc(sqrt(m*rate)) at one pulse count.

    rate is homodyne_rate(n_signal, ch), and p_error and log_p_error are the
    CS+Hom row at m: sweep_points' one-m case. The optimal threshold sits
    midway between the conditional means, x* = m*sqrt(2*kappa*N_S)/2, formed
    as m*sqrt(kappa*N_S/2) so that it is finite wherever x* is. The tests
    hold the rate and the row to mpmath (tests/_oracles.py,
    check_cs_hom_rows) and that threshold to the optimum
    (check_midpoint_optimum).
    """
    m = _validate_pulses(m)
    sc = Scenario(SourceParams(n_signal, 0.0), ch)
    _, p, log_p = sweep_points([RECEIVERS["CS+Hom"]], sc, (m,))
    threshold = m * math.sqrt(ch.reflectivity * n_signal / 2.0)
    return HomodyneOptimum(p_error=p.item(), threshold=threshold, log_p_error=log_p.item())


def _erfc_columns(rates, ms) -> tuple[np.ndarray, np.ndarray]:
    """(p, ln p) of p = (1/2)erfc(sqrt(m*rate)), float64 arrays of shape (len(rates), len(ms)).

    One _erfc_column call over the stacked x = sqrt(rate*m) of every rate,
    which evaluates the kernel once per x for both p, bit for bit
    half_erfc(x), and ln p. Where rate*m overflows, x is the largest double
    instead of inf, so the row is p = 0 and ln p = -inf, as a bound row's is.
    """
    with np.errstate(over="ignore"):
        x = np.sqrt(np.multiply.outer(np.array(rates, dtype=float), np.array(ms, dtype=float)))
    np.minimum(x, sys.float_info.max, out=x)
    p, log_p = _erfc_column(x.ravel(), half=True)
    return p.reshape(x.shape), log_p.reshape(x.shape)


@dataclass(frozen=True)
class Scenario:
    """A resolved scenario, the one argument of every RECEIVERS function.

    pair, its StandardFormPair, is built on first use and kept; a build that raises is not.
    """

    src: SourceParams
    ch: ChannelParams
    noise: NoiseParams = NoiseParams()

    @cached_property
    def pair(self) -> StandardFormPair:
        return StandardFormPair.from_model(self.src, self.ch, self.noise)


def _entangled_asymptote(sc: Scenario) -> float:
    """kappa*c_q^2/(8*N_B*(1+2*N_I)): (1+N_I)*kappa*N_S/(2*N_B*(1+2*N_I)) when N_S <= N_I."""
    cq = c_quantum(sc.src)
    return (sc.ch.reflectivity * cq * cq
            / (8.0 * sc.ch.n_background * (1.0 + 2.0 * sc.src.n_idler)))


def _coherent_asymptote(sc: Scenario) -> float:
    """kappa*N_S/(4*N_B), the coherent-homodyne rate."""
    return sc.ch.reflectivity * sc.src.n_signal / (4.0 * sc.ch.n_background)


@dataclass(frozen=True)
class Receiver:
    """One receiver of the comparison, as qi sweep, qi snr and qi bounds use it.

    rate(sc): a threshold receiver's per-mode SNR, its rows (1/2)erfc(sqrt(M*rate)).
    bound(sc, prior_h0): else, the prior-weighted SOverlapResult. The per-mode
        rate is bound(sc, 0.5).exponent and the rows are (1/2)exp(-M*rate).
    added_noise: the noise a PC receiver adds to the scenario's; else None.
    asymptote(sc): the bright-background SNR, where known (asymptotic_snr).
    """

    label: str
    rate: Callable | None = None
    added_noise: NoiseParams | None = None
    bound: Callable | None = None
    asymptote: Callable | None = None


def sweep_points(receivers, sc: Scenario, ms) -> tuple[list, np.ndarray, np.ndarray]:
    """(rates, p_error, ln p_error) over ms for the Receivers of one scenario.

    rates holds one float per receiver; p_error and ln p_error are float64
    arrays of shape (len(receivers), len(ms)), a row per receiver. A bound
    receiver's rate is its equal-prior bound's exponent, as qi bounds prints
    it. One kernel call per row kind: every threshold receiver's row comes
    from one evaluation of erfc per m, shared by p and ln p, in one
    _erfc_column call over all of them (_erfc_columns); every bound
    receiver's row from one _exp_columns call, p = half_exp and
    ln p = ln(1/2) - m*rate. p is never formed as exp of ln p rounded to a
    double, which would scale the last-bit error of ln p by |ln p|: both
    kernels carry the exponent as a double-double. ms are positive ints
    (SweepSpec checks them).
    """
    rates = [rx.rate(sc) if rx.bound is None else rx.bound(sc, 0.5).exponent
             for rx in receivers]
    bound = [rx.bound is not None for rx in receivers]
    if len(set(bound)) == 1:
        # one kind of receiver: its kernel's arrays are the table as they are; the
        # row scatter below costs ~5 % of a sweep of four bound rows over 13 M
        p, log_p = (_exp_columns if bound[0] else _erfc_columns)(rates, ms)
    else:
        p = np.empty((len(receivers), len(ms)))
        log_p = np.empty_like(p)
        for kernel, kind in ((_erfc_columns, False), (_exp_columns, True)):
            rows = [i for i, b in enumerate(bound) if b == kind]
            p[rows], log_p[rows] = kernel([rates[i] for i in rows], ms)
    return rates, p, log_p


def _pc(label: str, eps_return: float, eps_idler: float, asymptote) -> Receiver:
    """A PC receiver: snr_pc with eps_return, eps_idler added to the scenario's noise."""
    def rate(sc: Scenario) -> float:
        return snr_pc(sc.src, sc.ch, NoiseParams(eps_return=sc.noise.eps_return + eps_return,
                                                 eps_idler=sc.noise.eps_idler + eps_idler)).snr
    return Receiver(label, rate, added_noise=NoiseParams(eps_return, eps_idler),
                    asymptote=asymptote)


RECEIVERS = {rx.label: rx for rx in (
    _pc("QI+PC", 0.0, 0.0, _entangled_asymptote),
    # heterodyne noise on the return mode
    _pc("QI+Cal+PC", 1.0, 0.0, _entangled_asymptote),
    # heterodyne noise on both modes, which degrades PC to the coherent rate
    _pc("QI+Het+PC", 1.0, 1.0, _coherent_asymptote),
    Receiver("QI+Het+CCB", bound=lambda sc, prior_h0: sc.pair.heterodyne().ccb(prior_h0)),
    Receiver("CS-QCB", bound=lambda sc, prior_h0: cs_qcb(sc.src.n_signal, sc.ch, prior_h0)),
    Receiver("CS+Hom", lambda sc: homodyne_rate(sc.src.n_signal, sc.ch),
             asymptote=_coherent_asymptote),
    Receiver("QI-QCB", bound=lambda sc, prior_h0: sc.pair.qcb(prior_h0)),
    Receiver("QI-QBB", bound=lambda sc, prior_h0: _bound_at(0.5, sc.pair.log_c(0.5), prior_h0)),
)}


def asymptotic_snr(label: str, src: SourceParams, ch: ChannelParams) -> float:
    """Leading-order per-pulse SNR of a receiver of RECEIVERS in the bright-background regime.

    A PC receiver's asymptote assumes the source sits at the quantum
    correlation bound.
    """
    rx = RECEIVERS.get(label)
    if rx is None or rx.asymptote is None:
        raise ValueError(f"no asymptotic SNR for receiver {label!r}")
    if ch.n_background <= 0:
        raise ValueError("asymptotic forms require n_background > 0")
    if rx.added_noise is not None:
        cq = c_quantum(src)
        if not math.isclose(src.corr, cq, rel_tol=1e-9, abs_tol=0.0):
            raise ValueError(
                f"{label} asymptotics assume corr at the quantum bound "
                f"{cq:.12g}, got {src.corr:.12g}"
            )
    return rx.asymptote(Scenario(src, ch))
