"""Checks of qillum's outputs against mpmath and against properties of the method.

Every function here takes plain numbers (scenario parameters, parsed CSV rows,
sampler statistics) and returns a list of violations, one string each; an
empty list means the output passed. Nothing here imports qillum, so the
references are computed apart from the program: closed forms at 40 digits,
or inequalities the method must satisfy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from receivers import BOUND_RECEIVERS, PC_EXTRA_NOISE, THRESHOLD_RECEIVERS

DPS = 40
# Tolerances in units in the last place (ulps) of the correctly rounded value.
P_ERROR_ULPS = 4.0        # the bound tier-1 holds half_erfc to: glibc's erfc
EXPONENT_ULPS = 2.0       # log_erfc is within 1.5 ulps; one rounding of M*rate
BOUND_P_ERROR_ULPS = 2.0  # the aim for bound rows; rows beyond it are counted
RATE_ULPS = 16.0          # snr_pc: about ten roundings of non-negative terms
CLOSED_RATE_ULPS = 8.0    # three to five roundings, no cancellation
# Absolute slack on exponents formed as -ln C with C near 1: C is a double, so
# the exponent carries an absolute error of a few ulp(1) whatever its size.
OVERLAP_ABS = 8.0 * 2.0 ** -52
RATIO_SLACK = 1e-12       # on 1 - rate ratio; rates carry ~1e-15 relative error
N_SIGMA = 5.0


@dataclass(frozen=True)
class Scenario:
    """Inputs of one parameter set; corr is None at the quantum limit c_q."""

    ns: float
    ni: float
    corr: float | None
    kappa: float
    nb: float
    eps_r: float = 0.0
    eps_i: float = 0.0


@dataclass(frozen=True)
class Row:
    receiver: str
    m: int
    p_error: float
    exponent: float
    rate: float


def parse_csv(text: str) -> list[Row]:
    """Rows of a `qi sweep` CSV; the header must be the documented one."""
    lines = text.splitlines()
    if not lines or lines[0] != "receiver,M,p_error,exponent,per_mode_rate":
        raise ValueError("sweep CSV header is not receiver,M,p_error,exponent,per_mode_rate")
    rows = []
    for line in lines[1:]:
        rec, m, p, e, r = line.split(",")
        rows.append(Row(rec, int(m), float(p), float(e), float(r)))
    return rows


def ulp_error(value: float, exact) -> float:
    """|value - exact| in ulps of the double nearest to the mpmath number exact."""
    return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact)))


def _corr(sc: Scenario):
    if sc.corr is None:
        return 2 * mpmath.sqrt(mpmath.mpf(sc.ns) * (mpmath.mpf(sc.ni) + 1))
    return mpmath.mpf(sc.corr)


def deflection_snr(sc: Scenario, eps_r: float, eps_i: float) -> dict:
    """Mean, variances and SNR of the difference count from the beamsplitter moments.

    Uses the deflection form snr = mean^2 / (2 (sqrt(var1) + sqrt(var0))^2) with
    mean = beta+ - beta-, var0 = 2(alpha+^2 - alpha-^2) and
    var1 = beta+^2 + beta-^2 - 2 gamma*^2, which cancels in double precision
    and is exact enough at 40 digits.
    """
    with mpmath.workdps(DPS):
        ns, kappa, nb = mpmath.mpf(sc.ns), mpmath.mpf(sc.kappa), mpmath.mpf(sc.nb)
        mu = 2 * mpmath.mpf(sc.ni) + 1 + eps_i
        omega = 2 * nb + 1 + eps_r
        gamma = 2 * kappa * ns + omega
        root = 2 * mpmath.sqrt(kappa) * _corr(sc)
        a_plus, a_minus = (omega + 1 + mu) / 4, (omega + 1 - mu) / 4
        b_plus, b_minus = (gamma + 1 + mu + root) / 4, (gamma + 1 + mu - root) / 4
        g_star = (gamma + 1 - mu) / 4
        mean1 = b_plus - b_minus
        var0 = 2 * (a_plus ** 2 - a_minus ** 2)
        var1 = b_plus ** 2 + b_minus ** 2 - 2 * g_star ** 2
        snr = mean1 ** 2 / (2 * (mpmath.sqrt(var1) + mpmath.sqrt(var0)) ** 2)
        return {"mean_h0": mpmath.mpf(0), "mean_h1": mean1, "var_h0": var0,
                "var_h1": var1, "snr": snr}


def exact_rates(sc: Scenario) -> dict:
    """mpmath per-mode rates of the threshold receivers and the CS-QCB exponent."""
    rates = {rec: deflection_snr(sc, sc.eps_r + er, sc.eps_i + ei)["snr"]
             for rec, (er, ei) in PC_EXTRA_NOISE.items()}
    with mpmath.workdps(DPS):
        ks = mpmath.mpf(sc.kappa) * mpmath.mpf(sc.ns)
        nb = mpmath.mpf(sc.nb)
        rates["CS+Hom"] = ks / (4 * nb + 2)
        rates["CS-QCB"] = ks * (mpmath.sqrt(nb + 1) - mpmath.sqrt(nb)) ** 2
    return rates


def _by_receiver(rows: list[Row]) -> dict:
    out: dict = {}
    for row in rows:
        out.setdefault(row.receiver, []).append(row)
    return out


def _rate_of(groups: dict, receiver: str) -> float:
    return groups[receiver][0].rate


def _common_checks(groups: dict, receivers, m_values, label) -> list[str]:
    bad = []
    if tuple(groups) != tuple(receivers):
        return [f"{label}: receivers {tuple(groups)} != {tuple(receivers)}"]
    for rec, rows in groups.items():
        if tuple(r.m for r in rows) != tuple(m_values):
            bad.append(f"{label} {rec}: M column differs from the requested grid")
        if len({r.rate for r in rows}) != 1:
            bad.append(f"{label} {rec}: per_mode_rate varies with M")
        for a, b in zip(rows, rows[1:]):
            if b.p_error > a.p_error:
                bad.append(f"{label} {rec}: p_error rises from M={a.m} to M={b.m}")
    return bad


def check_threshold(sc: Scenario, rows: list[Row], m_values, label="") -> list[str]:
    """The four threshold receivers of one scenario over an M grid."""
    groups = _by_receiver(rows)
    bad = _common_checks(groups, THRESHOLD_RECEIVERS, m_values, label)
    if bad:
        return bad
    exact = exact_rates(sc)
    for rec in THRESHOLD_RECEIVERS:
        rate = _rate_of(groups, rec)
        err = ulp_error(rate, exact[rec])
        if err > (CLOSED_RATE_ULPS if rec == "CS+Hom" else RATE_ULPS):
            bad.append(f"{label} {rec}: rate {rate!r} is {err:.1f} ulps from mpmath")
    het, cal, pc = (_rate_of(groups, r) for r in ("QI+Het+PC", "QI+Cal+PC", "QI+PC"))
    if not het <= cal <= pc:
        bad.append(f"{label}: rates out of order, Het {het!r} Cal {cal!r} PC {pc!r}")
    if sc.corr is None and sc.eps_r == 0.0 and sc.eps_i == 0.0:
        bad += _asymptotic_ratios(sc, groups, label)
    with mpmath.workdps(DPS):
        for row in rows:
            x = math.sqrt(row.m * row.rate)  # as the program forms it
            p = mpmath.erfc(mpmath.mpf(x)) / 2
            err_p = ulp_error(row.p_error, p)
            err_e = ulp_error(row.exponent, -mpmath.log(p))
            if err_p > P_ERROR_ULPS or err_e > EXPONENT_ULPS:
                bad.append(f"{label} {row.receiver} M={row.m}: p_error {err_p:.2f} ulps, "
                           f"exponent {err_e:.2f} ulps from mpmath")
    return bad


def _asymptotic_ratios(sc: Scenario, groups: dict, label: str) -> list[str]:
    """The abstract's two limits, as inequalities exact at c = c_q, no added noise.

    With omega = 2 N_B + 1:
      0 < 1 - rate(Cal)/rate(PC) <= 1/(omega + 2),
      2/(omega + 2) <= 1 - rate(Het)/rate(CS+Hom) <= (2 + 2 k N_S)/(omega + 2 + 2 k N_S),
    so both ratios tend to 1 as N_B grows.
    """
    bad = []
    omega = 2.0 * sc.nb + 1.0
    ks = sc.kappa * sc.ns
    gap_cal = 1.0 - _rate_of(groups, "QI+Cal+PC") / _rate_of(groups, "QI+PC")
    if not 0.0 < gap_cal <= 1.0 / (omega + 2.0) + RATIO_SLACK:
        bad.append(f"{label}: 1 - Cal/PC = {gap_cal!r} outside (0, 1/(2N_B+3)]")
    gap_het = 1.0 - _rate_of(groups, "QI+Het+PC") / _rate_of(groups, "CS+Hom")
    lo, hi = 2.0 / (omega + 2.0), (2.0 + 2.0 * ks) / (omega + 2.0 + 2.0 * ks)
    if not lo - RATIO_SLACK <= gap_het <= hi + RATIO_SLACK:
        bad.append(f"{label}: 1 - Het/CS+Hom = {gap_het!r} outside [{lo!r}, {hi!r}]")
    return bad


def bound_p_error_slack(row: Row) -> float:
    """Ulps that p = exp(ln 1/2 - M*rate) may carry from its own three roundings.

    Each rounding of M*rate and of the difference moves ln p by at most half an
    ulp of a number no larger than |ln p|, so p moves by at most 2|ln p| + 2 ulps.
    """
    return 2.0 * (row.m * row.rate + math.log(2.0)) + 2.0


def check_bounds(sc: Scenario, rows: list[Row], m_values, coherent_qcb_exponent: float,
                 label="") -> tuple[list[str], int]:
    """The four bound receivers of one scenario; also the rows beyond 2 ulps.

    Returns (violations, rows whose p_error is more than 2 ulps from mpmath).
    Those rows are the fault of forming p as exp(ln 1/2 - M*rate); they are
    violations only beyond bound_p_error_slack, the error that route allows.
    """
    groups = _by_receiver(rows)
    bad = _common_checks(groups, BOUND_RECEIVERS, m_values, label)
    if bad:
        return bad, 0
    qcb, qbb, ccb, cs = (_rate_of(groups, r) for r in BOUND_RECEIVERS)
    if not qbb <= qcb + OVERLAP_ABS:
        bad.append(f"{label}: QCB exponent {qcb!r} below QBB exponent {qbb!r}")
    if not qcb <= 2.0 * qbb + OVERLAP_ABS:
        bad.append(f"{label}: QCB exponent {qcb!r} above twice QBB {qbb!r}")
    if not ccb <= qcb + OVERLAP_ABS:
        bad.append(f"{label}: heterodyne CCB exponent {ccb!r} above QCB {qcb!r}")
    exact_cs = exact_rates(sc)["CS-QCB"]
    err = ulp_error(cs, exact_cs)
    if err > CLOSED_RATE_ULPS:
        bad.append(f"{label} CS-QCB: rate {cs!r} is {err:.1f} ulps from mpmath")
    bad += check_coherent_qcb(coherent_qcb_exponent, exact_cs, sc.nb, label)
    beyond = 0
    with mpmath.workdps(DPS):
        for row in rows:
            log_p = -row.m * mpmath.mpf(row.rate) + mpmath.log(0.5)
            err_e = ulp_error(row.exponent, -log_p)
            err_p = ulp_error(row.p_error, mpmath.exp(log_p))
            beyond += err_p > BOUND_P_ERROR_ULPS
            if err_e > EXPONENT_ULPS or err_p > bound_p_error_slack(row):
                bad.append(f"{label} {row.receiver} M={row.m}: p_error {err_p:.2f} ulps, "
                           f"exponent {err_e:.2f} ulps from mpmath")
    return bad, beyond


def coherent_qcb_tolerance(exact_exponent, nb: float) -> float:
    """Absolute error allowed to qcb on the coherent states.

    ln C_s is a difference of terms of size ln(2 N_B + 2), each good to a few
    ulps, and C is then rounded near 1 before -ln C, so the error is absolute.
    """
    return 1e-9 * float(exact_exponent) + 64.0 * 2.0 ** -52 * max(1.0, math.log(2.0 * nb + 2.0))


def check_coherent_qcb(exponent: float, exact_exponent, nb: float, label="") -> list[str]:
    diff = abs(exponent - float(exact_exponent))
    if diff > coherent_qcb_tolerance(exact_exponent, nb):
        return [f"{label}: qcb on coherent states {exponent!r} vs closed form "
                f"{float(exact_exponent)!r}"]
    return []


def deflection_sigma(stats: dict, exact_snr) -> float:
    """Standard errors between sqrt(snr_hat) and the exact sqrt(snr).

    sqrt(snr_hat) = |mean_h1 - mean_h0| / (sqrt 2 (sqrt(var_h1) + sqrt(var_h0)))
    is near-normal, with a spread from the mean errors that does not depend on
    its size. snr_hat is not: where the mean difference is a few standard errors
    (the golden scenario, 1e6 samples: about 2), it is the square of a noisy
    number, and se_snr, propagated to first order at the estimate, shrinks with
    it (seed 2147216251 of mc_validation: a mean difference 2.3 se low gives
    snr_hat 5.4 se_snr from the exact SNR).
    """
    d = math.sqrt(float(exact_snr))
    t = math.sqrt(stats["var_h0"]) + math.sqrt(stats["var_h1"])
    se_sq = (stats["se_mean_h0"] ** 2 + stats["se_mean_h1"] ** 2) / (2.0 * t * t)
    for h in ("h0", "h1"):
        se_sq += (d * stats[f"se_var_{h}"] / (2.0 * t * math.sqrt(stats[f"var_{h}"]))) ** 2
    return abs(math.sqrt(stats["snr_hat"]) - d) / math.sqrt(se_sq)


def check_sampler_moments(sc: Scenario, stats: dict, label="") -> list[str]:
    """Empirical means, variances and sqrt(SNR) within N_SIGMA standard errors of mpmath."""
    exact = deflection_snr(sc, sc.eps_r, sc.eps_i)
    bad = []
    for key in ("mean_h0", "mean_h1", "var_h0", "var_h1"):
        observed = stats[key]
        n_sigma = abs(observed - float(exact[key])) / stats[f"se_{key}"]
        if not n_sigma <= N_SIGMA:
            bad.append(f"{label} {key}: {observed!r} is {n_sigma:.2f} se from "
                       f"{float(exact[key])!r}")
    n_sigma = deflection_sigma(stats, exact["snr"])
    if not n_sigma <= N_SIGMA:
        bad.append(f"{label} sqrt(snr): {math.sqrt(stats['snr_hat'])!r} is {n_sigma:.2f} se "
                   f"from {math.sqrt(float(exact['snr']))!r}")
    return bad


def error_rate_sigma(sc: Scenario, m: int, trials: int, rate: float) -> float:
    """Binomial standard errors between an empirical rate and (1/2)erfc(sqrt(M SNR))."""
    with mpmath.workdps(DPS):
        snr = deflection_snr(sc, sc.eps_r, sc.eps_i)["snr"]
        p = float(mpmath.erfc(mpmath.sqrt(m * snr)) / 2)
    se = math.sqrt(p * (1.0 - p) / (2 * trials))
    return abs(rate - p) / se


def check_error_rate(sc: Scenario, m: int, trials: int, rate: float, label="") -> list[str]:
    n_sigma = error_rate_sigma(sc, m, trials, rate)
    if not n_sigma <= N_SIGMA:
        return [f"{label} M={m}: error rate {rate!r} is {n_sigma:.2f} se from (1/2)erfc"]
    return []
