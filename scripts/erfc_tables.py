#!/usr/bin/env python3
"""Regenerate the tables of qillum._erfc, the threshold rows' erfc kernel.

The kernel evaluates F(x) = ln(erfc(x)/2) = ln p from a Taylor expansion
about the centre c of the interval that holds x, d = x - c:

- 309 intervals of width 1/8 centred on c = -6.5, -6.375, ..., 32: one is
  centred on 0, so that d = x there and ln erfc keeps its relative
  accuracy as x -> 0;
- 8 intervals per octave from 32 to 2**31, centred on (17 + 2j) 2**(E-5)
  for j = 0..7 in the octave [2**(E-1), 2**E).

With G(x) = ln(erfcx(x)/2) = F(x) + x^2, which varies slowly,
F(c + d) = [G(c) - c^2] - 2cd + d (G'(c) + d (G''(c)/2 - 1 + d G'''(c)/6 + ...)).
For c > 0 the kernel forms -2cd exactly (c has at most 8 significant bits and
d at most 52 - 8) and the rest in double precision from the small slope G'.
For c <= 0 F itself is small and flat, so its own slope F'(c) is tabulated
and -2c d is not split off. Each interval's row holds

    c, m2c, w0_hi, w0_lo, v1, w2, ..., w11, v1_lo

with m2c = -2c (0 for c <= 0), w0 = F(c) as a double-double, v1 the slope
(G'(c) for c > 0, F'(c) otherwise) and v1_lo its rounding error, w2 =
G''(c)/2 - 1 (F''(c)/2 for c <= 0) and w_n = G^(n)(c)/n!. The degree, 11,
leaves a truncation error below 2**-62 absolute below 32, where p is
computed, and below 2**-58 |F| above it, where only ln p is.

The Taylor coefficients of erfcx come from its differential equation,
y' = 2xy - 2/sqrt(pi), as (n+1) a_(n+1) = 2c a_n + 2 a_(n-1) - (2/sqrt(pi))[n = 0]
(Cody, Math. Comp. 23, 631, 1969, for erfc's expansions), and those of its
log from the series log. The recurrence loses about n log10(2c^2 + 2) digits,
so it runs at that many digits more than the 40 kept.

The exponential's table holds 2**(j/512), j = 0..511, as double-doubles.

Both tables are written, as one little-endian float64 buffer in base64, into
the block of src/qillum/_erfc.py between its TABLES markers;
tests/test_receiver.py reruns tables() and compares the committed buffer
bit for bit. Run from the root of the repository (about 2 s):

    python scripts/erfc_tables.py
"""
from __future__ import annotations

import base64
import math
import re
from pathlib import Path

import mpmath
import numpy as np

DEGREE = 11
DIGITS = 40
LINEAR_FIRST, LINEAR_STEP, LINEAR_COUNT = -6.5, 0.125, 309
OCTAVES = range(6, 32)  # [2**(E-1), 2**E) for E = 6..31: 32 to 2**31
PER_OCTAVE = 8
EXP_ENTRIES = 512
MODULE = Path(__file__).resolve().parents[1] / "src" / "qillum" / "_erfc.py"


def centres() -> list:
    """The expansion points, in the kernel's index order."""
    linear = [LINEAR_FIRST + k * LINEAR_STEP for k in range(LINEAR_COUNT)]
    geometric = [math.ldexp(17 + 2 * j, e - 5) for e in OCTAVES for j in range(PER_OCTAVE)]
    return linear + geometric


def _row(c: float) -> list:
    """One interval's row (see the module docstring) for the centre c."""
    extra = int(DEGREE * math.log10(2.0 * c * c + 2.0)) + 10
    with mpmath.workdps(DIGITS + extra):
        cm = mpmath.mpf(c)
        a = [mpmath.erfc(cm) * mpmath.exp(cm * cm)]
        a.append(2 * cm * a[0] - 2 / mpmath.sqrt(mpmath.pi))
        for n in range(1, DEGREE):
            a.append((2 * cm * a[n] + 2 * a[n - 1]) / (n + 1))
        # b = ln a as a series: n b_n a_0 = n a_n - sum_{k=1}^{n-1} k b_k a_(n-k)
        b = [mpmath.log(a[0])]
        for n in range(1, DEGREE + 1):
            b.append((a[n] - mpmath.fsum(k * b[k] * a[n - k] for k in range(1, n)) / n) / a[0])
        w0 = b[0] - mpmath.log(2) - cm * cm
        v1 = b[1] if c > 0 else b[1] - 2 * cm
        w = [b[2] - 1] + b[3:]
        w0_hi = float(w0)
        v1_hi = float(v1)
        return ([c, -2.0 * c if c > 0 else 0.0, w0_hi, float(w0 - w0_hi), v1_hi]
                + [float(v) for v in w] + [float(v1 - v1_hi)])


def tables() -> np.ndarray:
    """The kernel's buffer: the (rows, intervals) expansion table, then 2**(j/512) hi and lo."""
    rows = np.array([_row(c) for c in centres()]).T
    with mpmath.workdps(DIGITS):
        powers = [mpmath.mpf(2) ** (mpmath.mpf(j) / EXP_ENTRIES) for j in range(EXP_ENTRIES)]
        hi = [float(v) for v in powers]
        lo = [float(v - h) for v, h in zip(powers, hi)]
    return np.concatenate([rows.ravel(), hi, lo]).astype("<f8")


def block(buffer: np.ndarray) -> str:
    """The lines of _erfc.py between its TABLES markers."""
    text = base64.b64encode(buffer.tobytes()).decode("ascii")
    lines = [text[i:i + 88] for i in range(0, len(text), 88)]
    return "_TABLES = binascii.a2b_base64(\n" + "".join(f'    "{line}"\n' for line in lines) + ")\n"


def main() -> None:
    source = MODULE.read_text(encoding="utf-8")
    pattern = re.compile(r"(# BEGIN TABLES[^\n]*\n).*?(# END TABLES)", re.S)
    new, count = pattern.subn(lambda m: m[1] + block(tables()) + m[2], source)
    if count != 1:
        raise SystemExit(f"expected one TABLES block in {MODULE}, found {count}")
    MODULE.write_text(new, encoding="utf-8")
    print(f"wrote {MODULE}")


if __name__ == "__main__":
    main()
