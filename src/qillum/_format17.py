"""'%.17g' % v for every v of a float array, byte for byte, in one numpy pass.

cli.sweep_csv imports this module for a long table only; its tables (0.2 MB)
are built when it is imported. For each x > 0 finite, E is the decimal
exponent of x rounded to 17 digits. x * 10^(16-E) is formed as a
double-double product (Dekker's, receiver._two_product) with a table of
10^k held to 2^-104, so its error is below 2^-102 of its value: < 2^-45 of
its last place. Rounded, that is the 17-digit integer D, and one byte gather
lays out D's digits, the point, zeros and E's exponent text as %g does for
(E's notation class, D's count of significant digits). +0.0 is D = 0,
E = 0, no significant digits, which lays out as '0'. A value whose
fraction x * 10^(16-E) - D lies within 2^-40 of 1/2 takes Python's own
'%.17g' instead, and so does any value that is neither +0.0 nor finite and
> 0: -0.0, +-inf and nan. Exact 17-digit ties lie in that band: m + 0.25 for
a 16-digit m is one.

Values are formatted _FORMAT_BLOCK = 4096 at a time, and laid out
_GATHER_ROWS = 256 per byte gather, whose index holds 8 * 24 bytes a value,
so working memory stays under ~1 MB on a table of any length. The tables
are built in Python and read into arrays as bytes: each numpy operation run
here would map more of numpy's code into memory, and a word read from bytes
keeps their order on any byte order.
"""
from __future__ import annotations

import math

import numpy as np

from .receiver import _two_product

_TIE_BAND = 2.0 ** -40
_TEXT_WIDTH = 24     # '%.17g' of a double is at most 24 bytes
_FORMAT_BLOCK = 4096
_GATHER_ROWS = 256
# a value's 32-byte source row holds its 17 digits at bytes 0-16, '.' at 17,
# '0' at 18, NULs at 19-23 and its exponent text from 24
_DOT, _ZERO, _NUL, _EXPONENT = 17, 18, 23, 24


def _powers_of_ten() -> tuple:
    """(e0, ten, hi, lo, shift): where the decimal exponent steps, and each 10^(16-E).

    By frexp exponent b of x in [2^(b-1), 2^b): e0, the largest E with
    10^E < 2^b, and ten, the smallest double that is 10^e0 or more when
    rounded to 17 digits, so the decimal exponent of x to 17 digits is
    e0 - (x < ten). By decimal exponent E = -324..308: 10^(16-E) as
    (hi + lo) * 2^shift, hi the top 53 bits of a 111-bit floor and lo the
    rest, rounded, so hi + lo is within 2^-104 of it.
    """
    ten, hi, lo, shift = [], [], [], []
    for e in range(-324, 309):
        # (10^17 - 1/2) * 10^(E-17): from it up, x to 17 digits is at least 10^E
        num, den = (2 * 10 ** 17 - 1) * 10 ** max(e - 17, 0), 2 * 10 ** max(17 - e, 0)
        f = num / den  # correctly rounded
        p, q = f.as_integer_ratio()
        ten.append(math.nextafter(f, math.inf) if p * den < num * q else f)
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        b = num.bit_length() - den.bit_length()
        b -= num * 2 ** max(-b, 0) < den * 2 ** max(b, 0)
        top = (num << max(110 - b, 0)) // (den << max(b - 110, 0))  # in [2^110, 2^111)
        hi.append(math.ldexp(top >> 58, -52))
        lo.append(math.ldexp(top & (2 ** 58 - 1), -110))
        shift.append(b)
    e0 = [math.ceil(b * math.log10(2.0)) - 1 for b in range(-1073, 1025)]
    return (np.array(e0), np.array([ten[e + 324] for e in e0]),
            np.array(hi), np.array(lo), np.array(shift))


def _digit_groups() -> tuple:
    """(digits, last): each 4-digit group's ASCII, and the place of its last nonzero digit.

    By group u = 0..9999: digits[u], u's four ASCII digits as one uint32,
    and last[g][u], for each of the four groups g of the 17 digits, the place
    of u's last nonzero digit among the 17 (0 where u = 0).
    """
    # places[k]: the k-th digit of each 4-digit group u = 0..9999, in order
    places = [b"".join(bytes([48 + i]) * p for i in range(10)) * (1000 // p)
              for p in (1000, 100, 10, 1)]
    digits = bytearray(40000)
    for k, place in enumerate(places):
        digits[k::4] = place
    last = []
    for g in range(4):
        # the place 4g + k + 1 among the 17 of each nonzero k-th digit of group g, else 0
        ranks = [np.frombuffer(place.translate(bytes.maketrans(b"0123456789",
                                                               bytes([0] + 9 * [4 * g + k + 1]))),
                               dtype=np.uint8) for k, place in enumerate(places)]
        last.append(np.maximum(np.maximum(ranks[0], ranks[1]), np.maximum(ranks[2], ranks[3])))
    return np.frombuffer(digits, dtype=np.uint32), last


def _layout_row(e: int, n: int) -> list:
    """The source-row byte of each byte of '%.17g' with n significant digits, NUL-padded.

    e is the decimal exponent, or 17 for any exponential one; n = 0 is the value 0.
    """
    if n == 0:
        row = [_ZERO]
    elif e == 17:
        row = [0] + ([_DOT, *range(1, n)] if n > 1 else []) + [*range(_EXPONENT, _EXPONENT + 5)]
    elif e >= 0:
        row = [*range(e + 1)] + ([_DOT, *range(e + 1, n)] if n > e + 1 else [])
    else:
        row = [_ZERO, _DOT] + [_ZERO] * (-e - 1) + [*range(n)]
    return row + [_NUL] * (_TEXT_WIDTH - len(row))


_E0, _TEN, _HI, _LO, _SHIFT = _powers_of_ten()
_POW2 = np.array([2.0 ** s for s in range(53, 58)])
# by E + 324: its exponent text, as e+XX or e-XXX, NUL-padded to 8 bytes
_EXP_TEXT = np.frombuffer(b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-324, 309)),
                          dtype=np.uint64)
_DIGITS, _LAST = _digit_groups()
# by the 17th digit d: d, '.', '0' and a NUL, the source row's bytes 16-19
_TAIL = np.frombuffer(b"".join(b"%d.0\0" % d for d in range(10)), dtype=np.uint32)
# by (notation class: fixed at E = -4..16, else exponential) * 18 + significant digits
_LAYOUT = np.array([_layout_row(e, n) for e in range(-4, 18) for n in range(18)],
                   dtype=np.intp).view(f"V{8 * _TEXT_WIDTH}").ravel()
# the first byte of each source row of a gather block
_OFFSETS = np.array([[32 * i] for i in range(_GATHER_ROWS)])


def decimal17(x: np.ndarray) -> tuple:
    """(D, E, exact): x = D * 10^(E-16) to 17 digits, for x > 0 finite; exact where D is sure.

    E is the decimal exponent of x rounded to 17 digits, so D has 17
    digits. At +0.0 D is 0 and E is 0, exact. exact is False where the
    fraction of x * 10^(16-E) lies within _TIE_BAND of 1/2 and where x is
    neither +0.0 nor finite and > 0; there D is 10^16, a placeholder.
    """
    exact = (x > 0.0) & (x < math.inf)
    # +0.0 alone has all 64 bits clear; -0.0 has the sign bit set
    zero = x.view(np.int64) == 0
    x = np.where(exact, x, 1.0)
    m, b = np.frexp(x)
    b += 1073
    e = _E0[b]
    e[x < _TEN[b]] -= 1
    k = e + 324
    b += _SHIFT[k]
    hi, lo = _two_product(m, _HI[k])
    lo += m * _LO[k]
    scale = _POW2[b - (1073 + 53)]
    lo *= scale
    rounded = np.rint(lo)
    exact &= np.abs(np.abs(lo - rounded) - 0.5) >= _TIE_BAND
    hi *= scale
    d = np.where(exact, hi.astype(np.int64) + rounded.astype(np.int64), 10 ** 16)
    d[zero] = 0
    return d, e, exact | zero


def _digit_rows(values: np.ndarray) -> tuple:
    """(rows, key, exact): each value's %g source row and layout key; exact as in decimal17.

    A row is 32 bytes: D's 17 ASCII digits, '.', '0', NULs and E's exponent
    text. The key indexes _LAYOUT by (notation class, count of significant
    digits); +0.0's D = 0 has none.
    """
    d, e, exact = decimal17(values)
    # the 17 digits as four groups of four and a last one
    high, low = np.divmod(d, 10 ** 9)
    low, tail = np.divmod(low, 10)
    groups = (*np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4))
    rows = np.zeros((values.size, 8), dtype=np.uint32)
    for column, group in enumerate(groups):
        rows[:, column] = _DIGITS[group]
    rows[:, 4] = _TAIL[tail]
    rows.view(np.uint64)[:, 3] = _EXP_TEXT[e + 324]
    n = np.maximum(np.maximum(_LAST[0][groups[0]], _LAST[1][groups[1]]),
                   np.maximum(_LAST[2][groups[2]], _LAST[3][groups[3]]))
    n[tail != 0] = 17
    key = np.where((e >= -4) & (e <= 16), e + 4, 21) * 18 + n
    return rows.view(np.uint8), key, exact


def format_17g(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v, as ASCII bytes in an 'S24' array, for every v of a float array.

    Values whose digits are not sure (decimal17's exact) take Python's own
    '%.17g'.
    """
    values = np.asarray(values, dtype=float).ravel()
    texts = np.empty(values.size, dtype=f"S{_TEXT_WIDTH}")
    for block in range(0, values.size, _FORMAT_BLOCK):
        part = values[block:block + _FORMAT_BLOCK]
        rows, key, exact = _digit_rows(part)
        flat = rows.ravel()
        out = texts[block:block + _FORMAT_BLOCK].view(np.uint8).reshape(-1, _TEXT_WIDTH)
        for start in range(0, part.size, _GATHER_ROWS):
            index = _LAYOUT[key[start:start + _GATHER_ROWS]].view(np.intp)
            index = index.reshape(-1, _TEXT_WIDTH)
            index += _OFFSETS[:len(index)]
            flat[32 * start:].take(index, out=out[start:start + _GATHER_ROWS])
        python = np.flatnonzero(~exact)
        texts[block + python] = [b"%.17g" % v for v in part[python].tolist()]
    return texts
