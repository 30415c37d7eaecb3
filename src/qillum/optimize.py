"""A bracketed sign-change search for many problems in lockstep."""
from __future__ import annotations

from typing import Callable

import numpy as np

_MAX_ITER = 500
# the smallest step inside the bracket, as a fraction of xtol
_MIN_STEP = 1.0 / 16.0


def illinois_array(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   a, b, xtol) -> np.ndarray:
    """Where f changes sign on [a[i], b[i]], for many problems i at once.

    f(t, idx) returns f of problems idx at the points t, one element each.
    f(., i) runs from negative at a[i] to positive at b[i], as the slope of a
    unimodal objective does, so the sign change is the objective's minimizer;
    a problem whose f is not negative at a[i] returns a[i], and one whose f is
    not positive at b[i] returns b[i].

    Each step is the Illinois variant of regula falsi (Dowell & Jarratt 1971):
    the secant root of the bracket, where an end kept twice in a row has its
    f halved. The point is kept xtol[i]/16 inside the bracket, and is the
    midpoint instead where the secant root is not strictly inside or the last
    two steps did not halve the bracket. A problem stops where its bracket is
    within xtol[i] or has no double strictly inside, and returns the bracket
    midpoint; where f is exactly 0 (or NaN) at a point, it returns that
    point. Problems still live after _MAX_ITER steps return their midpoint.

    Every iteration makes one call of f on the problems still moving; the
    state is held for those only and stepped with np.where, and compacted in
    an iteration where some problem finishes.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), a.shape)
    if a.ndim != 1 or b.shape != a.shape:
        raise ValueError(f"brackets must be 1-d arrays of one length, got {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(b >= a)):
        raise ValueError("invalid bracket: need finite a <= b")
    if not np.all(xtol > 0):
        raise ValueError("xtol must be positive")
    x = 0.5 * a + 0.5 * b
    idx = np.flatnonzero(b - a > xtol)
    lo, hi, tol = a[idx], b[idx], xtol[idx]
    y = f(np.concatenate((lo, hi)), np.concatenate((idx, idx)))
    flo, fhi = y[:idx.size], y[idx.size:]
    at_lo = ~(flo < 0.0)
    at_hi = ~(fhi > 0.0) & ~at_lo
    x[idx[at_lo]] = lo[at_lo]
    x[idx[at_hi]] = hi[at_hi]
    live = ~(at_lo | at_hi)
    idx, lo, hi, flo, fhi, tol = (v[live] for v in (idx, lo, hi, flo, fhi, tol))
    # moved: -1 where the last step moved lo, +1 where it moved hi, so that an
    # end kept twice is halved; width1, width2: the bracket widths before the
    # last step and before the step preceding it
    moved = np.zeros(idx.size)
    width1 = width2 = np.full(idx.size, np.inf)
    for _ in range(_MAX_ITER):
        mid = 0.5 * lo + 0.5 * hi
        width = hi - lo
        done = ~(width > tol) | ~((lo < mid) & (mid < hi))
        if done.any():
            x[idx[done]] = mid[done]
            live = ~done
            idx, lo, hi, flo, fhi, tol, moved, width1, width2, mid, width = (
                v[live] for v in (idx, lo, hi, flo, fhi, tol, moved, width1, width2, mid, width))
        if idx.size == 0:
            break
        t = hi - fhi * (width / (fhi - flo))
        step = _MIN_STEP * tol
        t = np.minimum(np.maximum(t, lo + step), hi - step)
        t = np.where((lo < t) & (t < hi) & ~(width > 0.5 * width2), t, mid)
        ft = f(t, idx)
        neg, pos = ft < 0.0, ft > 0.0
        flo, fhi = (np.where(neg, ft, np.where(moved > 0.0, 0.5 * flo, flo)),
                    np.where(pos, ft, np.where(moved < 0.0, 0.5 * fhi, fhi)))
        lo, hi = np.where(neg, t, lo), np.where(pos, t, hi)
        moved = pos.astype(float) - neg.astype(float)
        width1, width2 = width, width1
        found = ~(neg | pos)
        if found.any():
            x[idx[found]] = t[found]
            live = ~found
            idx, lo, hi, flo, fhi, tol, moved, width1, width2 = (
                v[live] for v in (idx, lo, hi, flo, fhi, tol, moved, width1, width2))
    x[idx] = 0.5 * lo + 0.5 * hi
    return x
