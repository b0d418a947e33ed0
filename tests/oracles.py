"""Reference code the tests check the package against.

Nothing here is reached by the ``nlbranch`` command: these are
independent or closed-form routes to quantities the package computes
another way, kept beside the tests that use them.

* ``k_rho`` -- the curvature kernel of ``h_rho`` at one state, with its
  domain checks, over the package's elementwise ``_k_kernel``;
* ``linear_test_function`` and ``log_power_test_function`` -- test
  functions for the generator besides the package's ``ln_test_function``;
* ``cms_one_sided_stable`` -- spectrally positive stable draws by the
  Chambers-Mallows-Stuck construction, against the engine's sampler.
"""

import math

import numpy as np

from nlbranch.criteria import TestFunction, _check_k_points, _k_kernel, _logs


def k_rho(u: float, z, rho: float):
    """Curvature kernel at state u > 3 for jump sizes z >= 0 (see
    ``nlbranch.criteria._k_kernel``)."""
    _check_k_points("k_rho", [u], [rho])
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("jump sizes must be >= 0")
    out = _k_kernel(z_arr, u, math.log(u), rho)
    return float(out) if out.ndim == 0 else out


def linear_test_function() -> TestFunction:
    return TestFunction(
        g=lambda u: np.asarray(u, dtype=float) + 0.0,
        g1=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        g2=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        jump_delta=lambda u, z: np.asarray(z, dtype=float) + 0.0,
        jump_remainder=lambda u, z: np.zeros_like(np.asarray(z, dtype=float)),
    )


def log_power_test_function(rho: float) -> TestFunction:
    """(ln u)^(-rho) above u=3, smoothly extended below.

    The extension is a quintic on [2, 3] matching value and two
    derivatives at 3 and flattening to a constant (zero first and second
    derivative) at 2.  Only values at u > 3 feed any verdict; the
    extension exists so the function is a total C^2 object.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    l3 = math.log(3.0)
    v3 = l3 ** -rho
    d3 = -rho * l3 ** (-rho - 1.0) / 3.0
    s3 = (rho * l3 ** (-rho - 1.0) + rho * (rho + 1.0) * l3 ** (-rho - 2.0)) / 9.0
    c2 = v3 - d3  # first-order extrapolation keeps the blend monotone
    a_mat = np.array([[ (x - 2.0) ** k for k in range(6)] for x in (2.0, 3.0)])
    d_mat = np.array([[k * (x - 2.0) ** max(k - 1, 0) for k in range(6)]
                      for x in (2.0, 3.0)])
    dd_mat = np.array([[k * (k - 1) * (x - 2.0) ** max(k - 2, 0)
                        for k in range(6)] for x in (2.0, 3.0)])
    system = np.vstack([a_mat[0], d_mat[0], dd_mat[0],
                        a_mat[1], d_mat[1], dd_mat[1]])
    coef = np.linalg.solve(system, np.array([c2, 0.0, 0.0, v3, d3, s3]))

    def _piece(u, deriv):
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty_like(u)
        lo, mid, hi = u <= 2.0, (u > 2.0) & (u <= 3.0), u > 3.0
        if deriv == 0:
            out[lo] = c2
            out[hi] = np.log(u[hi]) ** -rho
        elif deriv == 1:
            out[lo] = 0.0
            out[hi] = -rho * np.log(u[hi]) ** (-rho - 1.0) / u[hi]
        else:
            out[lo] = 0.0
            lu = np.log(u[hi])
            out[hi] = (rho * lu ** (-rho - 1.0)
                       + rho * (rho + 1.0) * lu ** (-rho - 2.0)) / u[hi] ** 2
        x = u[mid] - 2.0
        if deriv == 0:
            out[mid] = sum(coef[k] * x ** k for k in range(6))
        elif deriv == 1:
            out[mid] = sum(k * coef[k] * x ** (k - 1) for k in range(1, 6))
        else:
            out[mid] = sum(k * (k - 1) * coef[k] * x ** (k - 2)
                           for k in range(2, 6))
        return float(out[0]) if scalar else out

    def _delta(u, z):
        u, z = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(z, dtype=float))
        out = np.empty(u.shape)
        # for u > 3 both arguments sit on the pure branch and the
        # difference has the cancellation-free form
        # (ln u)^-rho * expm1(-rho * log1p(log1p(z/u)/ln u)); ln u and its
        # power come from scalar math once per distinct state, since
        # numpy's vectorized log and power can differ in the last bit
        hi = u > 3.0
        states, at = np.unique(u[hi], return_inverse=True)
        lnu = _logs(states.tolist())
        scale = np.array([v ** -rho for v in lnu.tolist()])
        d = np.log1p(z[hi] / u[hi]) / lnu[at]
        out[hi] = scale[at] * np.expm1(-rho * np.log1p(d))
        lo = ~hi
        out[lo] = _piece(u[lo] + z[lo], 0) - _piece(u[lo], 0)
        return out if out.ndim else out[()]

    return TestFunction(
        g=lambda u: _piece(u, 0),
        g1=lambda u: _piece(u, 1),
        g2=lambda u: _piece(u, 2),
        jump_delta=_delta,
    )


def cms_one_sided_stable(alpha: float, n: int, rng: np.random.Generator):
    """Independent oracle: spectrally positive stable increments with
    Laplace transform exp(s**alpha), by the classical trigonometric
    construction from a uniform angle and an exponential clock."""
    B = math.atan(math.tan(math.pi * alpha / 2.0)) / alpha
    S = (1.0 + math.tan(math.pi * alpha / 2.0) ** 2) ** (1.0 / (2.0 * alpha))
    V = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    W = rng.exponential(1.0, n)
    X = (S * np.sin(alpha * (V + B)) / np.cos(V) ** (1.0 / alpha)
         * (np.cos(V - alpha * (V + B)) / W) ** ((1.0 - alpha) / alpha))
    sigma = abs(math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)
    return sigma * X
