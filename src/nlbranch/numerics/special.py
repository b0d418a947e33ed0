"""Scalar special functions needed by the rate-model layer."""

import math

import numpy as np


def gamma(x: float) -> float:
    """Gamma function for x > 0.

    Raises ValueError for nonpositive or non-finite arguments;
    ``math.gamma`` alone accepts negative non-integers and passes inf
    and nan through.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def x_minus_log1p(x):
    """Compute x - log(1+x) without cancellation for small x >= 0.

    The direct difference loses ~half the significant digits around
    x ~ 1e-8; below the switch point a truncated alternating series keeps
    full relative accuracy (next omitted term is O(x^8)).  Each element
    takes one branch only.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    out = np.empty_like(x)
    xs = x[small]
    out[small] = xs * xs * (1.0 / 2.0 + xs * (-1.0 / 3.0 + xs * (1.0 / 4.0 + xs * (
        -1.0 / 5.0 + xs * (1.0 / 6.0 + xs * (-1.0 / 7.0))))))
    xd = x[~small]
    out[~small] = xd - np.log1p(xd)
    return float(out) if out.ndim == 0 else out
