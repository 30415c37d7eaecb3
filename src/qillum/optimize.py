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
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = np.empty_like(a)
    yd = np.empty_like(a)
    live = np.flatnonzero(h > xtol)
    both = f(np.concatenate((c[live], d[live])), np.concatenate((live, live)))
    yc[live], yd[live] = both[:live.size], both[live.size:]
    for _ in range(_MAX_ITER):
        live = live[h[live] > xtol[live]]
        if live.size == 0:
            break
        left = yc[live] < yd[live]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], yd[lo] = d[lo], c[lo], yc[lo]
        a[hi], c[hi], yc[hi] = c[hi], d[hi], yd[hi]
        h[live] = b[live] - a[live]
        c[lo] = a[lo] + _INVPHI2 * h[lo]
        d[hi] = a[hi] + _INVPHI * h[hi]
        y = f(np.concatenate((c[lo], d[hi])), np.concatenate((lo, hi)))
        yc[lo], yd[hi] = y[:lo.size], y[lo.size:]
    return 0.5 * (a + b)
