#!/usr/bin/env python3
"""Regenerate the rational fit behind the test oracle _oracles.log_erfcx_nonneg.

For x >= 0 put t = 2/(2+x), so t runs over (0, 1] and 1 - t = x/(2+x). Then

    ln erfc(x) = (x/(2+x)) * g(t) - log1p(x/2) - x^2,
    g(t) = (ln erfcx(x) - ln t)/(1 - t),   erfcx(x) = exp(x^2) erfc(x),

and g is smooth on [0, 1], from -ln(2 sqrt(pi)) at t = 0 to 1 - 4/sqrt(pi) at
t = 1. g is fitted as P(t)/Q(t), P and Q of degree 9 with Q(0) = 1, by a
Sanathanan-Koerner iteration in mpmath (Cody, Math. Comp. 23, 631, 1969, for
the form of such fits): each pass solves the linear least-squares problem
min sum_j |(P(t_j) - g_j Q(t_j)) / (g_j Q_prev(t_j))|^2 on 260 Chebyshev
nodes, so the residual is relative error of g. Six passes at 40 digits take
a few seconds.

Prints the (p_k, q_k) pairs, k = 0..9, as the LOG_ERFC_PQ literal that
tests/_oracles.py commits. That rational is the second ln erfc route of the
tests' check of the CS+Hom row (check_homodyne_optimum) and of their
threshold-search oracles; qillum itself does not use it.
tests/test_receiver.py reruns fit_coefficients() and holds the committed pairs
to it within 1 ulp each.

    python scripts/fit_log_erfc.py
"""
from __future__ import annotations

import mpmath

DEGREE = 9
NODES = 260
PASSES = 6
DIGITS = 40


def _g(t):
    x = 2 * (1 - t) / t
    return (mpmath.log(mpmath.erfc(x)) + x * x - mpmath.log(t)) / (1 - t)


def _fit():
    """(p, q, nodes, g at the nodes): the mpmath coefficients of P and Q, q[0] = 1."""
    ts = [(1 + mpmath.cos(mpmath.pi * (j + mpmath.mpf(0.5)) / NODES)) / 2 for j in range(NODES)]
    gs = [_g(t) for t in ts]
    powers = [[t ** k for k in range(DEGREE + 1)] for t in ts]
    p, q = None, [mpmath.mpf(1)] + [mpmath.mpf(0)] * DEGREE
    for _ in range(PASSES):
        rows, rhs = [], []
        for pw, g in zip(powers, gs):
            w = 1 / abs(g * mpmath.fdot(q, pw))
            rows.append([w * v for v in pw] + [-w * g * v for v in pw[1:]])
            rhs.append(w * g)
        sol, _ = mpmath.qr_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        p = [sol[k] for k in range(DEGREE + 1)]
        q = [mpmath.mpf(1)] + [sol[DEGREE + 1 + k] for k in range(DEGREE)]
    return p, q, powers, gs


def fit_coefficients() -> tuple:
    """The (p_k, q_k) pairs of the fit, k = 0..9, each rounded to the nearest double."""
    with mpmath.workdps(DIGITS):
        p, q, _, _ = _fit()
        return tuple((float(a), float(b)) for a, b in zip(p, q))


def main() -> None:
    with mpmath.workdps(DIGITS):
        p, q, powers, gs = _fit()
        worst = max(abs(mpmath.fdot(p, pw) / (mpmath.fdot(q, pw) * g) - 1)
                    for pw, g in zip(powers, gs))
    print(f"# largest relative error of P/Q at the nodes: {mpmath.nstr(worst, 3)}")
    print("LOG_ERFC_PQ = np.array((")
    for a, b in zip(p, q):
        print(f"    ({float(a)!r}, {float(b)!r}),")
    print("))")


if __name__ == "__main__":
    main()
