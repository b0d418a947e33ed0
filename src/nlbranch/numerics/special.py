"""Scalar special functions needed by the rate-model layer."""

import math

import numpy as np

# Lanczos approximation, g = 7, 9 terms.  Gives ~1e-15 relative accuracy on
# the positive axis, far inside the 1e-12 contract for arguments in (0, 3].
_LANCZOS_G = 7.0
_LANCZOS_COEFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function for x > 0.

    Raises ValueError for nonpositive or non-finite arguments.  Callers in
    this package only need (0, 3], but the approximation is valid on the
    whole positive axis.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    if x < 0.5:
        # recurrence keeps the Lanczos series in its sweet spot
        return gamma(x + 1.0) / x
    y = x - 1.0
    acc = _LANCZOS_COEFS[0]
    for i, c in enumerate(_LANCZOS_COEFS[1:], start=1):
        acc += c / (y + i)
    t = y + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (y + 0.5) * math.exp(-t) * acc


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
