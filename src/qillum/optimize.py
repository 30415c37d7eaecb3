"""Golden-section minimization of many unimodal problems in lockstep."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_MAX_ITER = 500


def golden_section_array(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                         a, b, xtol) -> np.ndarray:
    """Golden-section search on many unimodal problems at once, problem i on [a[i], b[i]].

    f(t, idx) returns the objectives of problems idx at the points t, one
    element each. Every problem takes the steps a scalar golden-section search
    would take on it alone and stops once its bracket is within xtol[i]; each
    iteration makes one call of f on the problems still moving.

    The state (bracket a, b, inner points c, d and their objectives, width h,
    xtol and the problem numbers idx) is held for the live problems only and
    stepped with np.where, so an iteration costs a fixed handful of numpy
    calls. The arrays are compacted only in an iteration where some problem
    finishes, and its midpoint is written out then; problems still live
    after _MAX_ITER iterations are written out at the end.
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
    x = 0.5 * (a + b)
    h = b - a
    idx = np.flatnonzero(h > xtol)
    a, b, h, xtol = a[idx], b[idx], h[idx], xtol[idx]
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    y = f(np.concatenate((c, d)), np.concatenate((idx, idx)))
    yc, yd = y[:idx.size], y[idx.size:]
    for _ in range(_MAX_ITER):
        done = ~(h > xtol)
        if done.any():
            x[idx[done]] = 0.5 * (a[done] + b[done])
            live = ~done
            idx, a, b, c, d, yc, yd, xtol = (
                v[live] for v in (idx, a, b, c, d, yc, yd, xtol))
        if idx.size == 0:
            break
        # left: the minimum is in [a, d], so d becomes b and c becomes d, and
        # the new point is c; otherwise it is in [c, b], c becomes a, d becomes c
        left = yc < yd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        t = a + np.where(left, _INVPHI2, _INVPHI) * h
        y = f(t, idx)
        c, d = np.where(left, t, d), np.where(left, c, t)
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
    x[idx] = 0.5 * (a + b)
    return x
