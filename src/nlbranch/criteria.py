"""Boundary-behavior criteria for the validated process model.

The classifier rests on three scalar diagnostics of the model at state u:

* ``phi`` -- the drift index: negative values mean the log-state drifts
  up, positive values mean it drifts down.  Its sign near zero controls
  extinction, its sign near infinity controls explosion.
* ``k_rho`` -- a curvature kernel comparing log(u+z) against log(u) on a
  power scale rho; strictly positive for z > 0.
* ``h_rho`` -- the fluctuation functional at large states: the diffusion
  term plus the jump measures integrated against ``k_rho``.  Bounded
  h_rho at infinity keeps a high-started process high ("stays infinite");
  super-logarithmic growth drags it down in finite time ("comes down
  from infinity").

For pure power-law models with full jump support the signs and growth
orders are decided exactly from exponents and coefficients; anything
else is evaluated on configurable grids and downgraded to inconclusive
when the evidence is mixed.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .model import StableMeasure, ValidatedModel
from .numerics import integrate_semiinfinite, integrate_unit, x_minus_log1p
from .numerics.quadrature import QuadTally, integrate_jobs, integrate_truncated

__all__ = [
    "CriteriaConfig",
    "TestFunction",
    "Verdict",
    "InfinityBehavior",
    "BoundaryReport",
    "RHO_SCAN",
    "phi",
    "phi_with_scale",
    "phi_by_quadrature",
    "nested_jump_moment",
    "k_rho",
    "stable_k_integral",
    "stable_k_integrals",
    "k_integral_bounds",
    "h_rho",
    "apply_generator",
    "generator_values",
    "classify",
    "ln_test_function",
    "linear_test_function",
    "log_power_test_function",
]

RHO_SCAN = (0.5, 1.0, 2.0, 4.0)

_EXPONENT_TOL = 1e-12
_COEF_REL_TOL = 1e-12


class Verdict(str, Enum):
    HOLDS = "holds"
    INCONCLUSIVE = "inconclusive"


class InfinityBehavior(str, Enum):
    STAYS_INFINITE = "stays_infinite"
    COMES_DOWN_FROM_INFINITY = "comes_down_from_infinity"
    INCONCLUSIVE = "inconclusive"


@dataclass
class CriteriaConfig:
    """Evaluation grids and tolerances for the classifier."""
    rho: float = 1.0
    small_u_grid: Tuple[float, ...] = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    large_u_grid: Tuple[float, ...] = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        if len(self.small_u_grid) == 0 or len(self.large_u_grid) == 0:
            raise ValueError("evaluation grids must be nonempty")
        if any(b >= a for a, b in zip(self.small_u_grid, self.small_u_grid[1:])):
            raise ValueError("small_u_grid must be strictly decreasing")
        if any(u <= 0.0 for u in self.small_u_grid):
            raise ValueError("small_u_grid entries must be positive")
        if any(b <= a for a, b in zip(self.large_u_grid, self.large_u_grid[1:])):
            raise ValueError("large_u_grid must be strictly increasing")
        if any(u <= 3.0 for u in self.large_u_grid):
            raise ValueError("large_u_grid entries must exceed 3")


@dataclass
class TestFunction:
    """A C^2 test function with the pieces the generator needs.

    ``jump_delta`` is g(u+z) - g(u); supply a closed form when one exists,
    the default forms the difference directly.  ``jump_remainder`` is the
    second-order combination g(u+z) - g(u) - z g'(u); the default builds
    it from ``jump_delta``, which loses accuracy for z much smaller than u,
    so closed forms matter for tight generator tolerances at large u.

    Every callable acts elementwise on arrays: g, g1 and g2 take an array
    of states u, and ``jump_delta`` and ``jump_remainder`` take arrays u
    and z of broadcastable shapes, since ``generator_values`` evaluates
    all states of a grid or of a step in one call.
    """
    g: Callable
    g1: Callable
    g2: Callable
    jump_delta: Optional[Callable] = None
    jump_remainder: Optional[Callable] = None

    def __post_init__(self):
        if self.jump_delta is None:
            self.jump_delta = lambda u, z: self.g(u + z) - self.g(u)
        if self.jump_remainder is None:
            self.jump_remainder = self._difference_remainder

    def _difference_remainder(self, u, z):
        # below z ~ u * 1e-5 the formed difference carries no information
        # (g(u+z) rounds to g(u)); the local second-order value is the
        # same quantity to O(z/u) there
        z = np.asarray(z, dtype=float)
        small = z < 1e-5 * u
        direct = self.jump_delta(u, np.where(small, u, z)) \
            - np.where(small, u, z) * self.g1(u)
        local = 0.5 * self.g2(u) * z * z
        return np.where(small, local, direct)

    def derivative_residuals(self, u: float) -> Tuple[float, float]:
        """Scaled central-difference residuals of (g1, g2) at u."""
        h = 1e-5 * u
        fd1 = (self.g(u + h) - self.g(u - h)) / (2.0 * h)
        fd2 = (self.g(u + h) - 2.0 * self.g(u) + self.g(u - h)) / (h * h)
        r1 = abs(self.g1(u) - fd1) / (1.0 + abs(self.g1(u)))
        r2 = abs(self.g2(u) - fd2) / (1.0 + abs(self.g2(u)))
        return r1, r2

    def check_derivatives(self, u_grid, tol: float = 1e-4) -> None:
        for u in np.atleast_1d(u_grid):
            r1, r2 = self.derivative_residuals(float(u))
            if r1 > tol or r2 > tol:
                raise ValueError(
                    f"test function fails the derivative check at u={u}: "
                    f"residuals ({r1:.2e}, {r2:.2e}) exceed {tol}")


def ln_test_function() -> TestFunction:
    return TestFunction(
        g=np.log,
        g1=lambda u: 1.0 / u,
        g2=lambda u: -1.0 / (u * u),
        jump_delta=lambda u, z: np.log1p(z / u),
        jump_remainder=lambda u, z: -x_minus_log1p(z / u),
    )


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


# ---------------------------------------------------------------------------
# scalar diagnostics


def phi_with_scale(model: ValidatedModel, u: float, quad_tol: float = 1e-10,
                   tally: Optional[QuadTally] = None) -> Tuple[float, float]:
    """Drift index at u together with the magnitude scale of its terms.

    The scale (sum of absolute term sizes) is what "phi is numerically
    zero" must be judged against: on critical models the terms cancel
    exactly and the value is roundoff-level relative to the scale.
    A ``tally`` collects the cost and error of any quadrature.
    """
    return _phi_values(model, [u], quad_tol, tally)[0]


def phi(model: ValidatedModel, u: float, quad_tol: float = 1e-10) -> float:
    """Drift index at u (see module docstring)."""
    return phi_with_scale(model, u, quad_tol)[0]


def _phi_values(model: ValidatedModel, us, quad_tol: float,
                tally: Optional[QuadTally]) -> List[Tuple[float, float]]:
    """``phi_with_scale`` at each u: each rate is called once on the grid,
    and the jump moments share one run."""
    u = np.array(us, dtype=float)
    if not np.all(u > 0.0):
        raise ValueError("u must be positive")
    a2 = model.a2(u)
    jumps = np.flatnonzero(a2 != 0.0)
    t_jump = np.zeros_like(u)
    t_jump[jumps] = a2[jumps] * np.array(_quadratic_jump_moments(
        model, u[jumps].tolist(), quad_tol, tally))
    t_drift = -model.a0(u) / u
    t_diff = 0.5 * model.a1(u) / (u * u)
    t_atoms = 0.0 if model.nu_empty else -model.a3(u) * _atom_sums(
        model, np.log1p(model.nu_z / u[:, None]))
    value = t_drift + t_diff + t_jump + t_atoms
    scale = abs(t_drift) + abs(t_diff) + abs(t_jump) + abs(t_atoms)
    return list(zip(value.tolist(), scale.tolist()))


def _atom_sums(model: ValidatedModel, values):
    """sum_j w_j values[..., j] over the atoms (last axis)."""
    return (model.nu_w * values).sum(axis=-1)


def _quadratic_jump_moments(model: ValidatedModel, us, tol: float,
                            tally: Optional[QuadTally]) -> List[float]:
    """int over U of z^2 mu(dz) * int_0^1 (u+vz)^-2 (1-v) dv at each u.

    The inner integral collapses to (z/u - log1p(z/u)) / z^2; on full
    support the whole expression is gamma(alpha) u^(-alpha) exactly, the
    truncated case is integrated numerically.
    """
    a = model.alpha
    if model.full_support:
        return [model.gamma_alpha * u ** (-a) for u in us]
    c = model.c_alpha
    u = np.array(us, dtype=float)

    def f(z, job):
        return c * z ** (-1.0 - a) * x_minus_log1p(z / u[job])

    results = integrate_jobs(f, len(us), model.u_max, tol, head_power=1.0 - a)
    return [r.value if tally is None else tally.add(r) for r in results]


def nested_jump_moment(mu: StableMeasure, u: float,
                       quad_tol: float = 1e-10) -> float:
    """int over U of c z^(1-alpha) int_0^1 (u+vz)^-2 (1-v) dv dz as a nested
    double integral, not through the closed inner form; on full support
    it equals gamma(alpha) u^(-alpha).  The inner integrals at the nodes
    of one outer round share one batched run."""
    a = mu.alpha
    c = mu.c_alpha()

    def f(z):
        inner = integrate_jobs(
            lambda v, job: (u + v * z[job]) ** -2 * (1.0 - v), z.size,
            upper=1.0, tol=min(1e-12, quad_tol))
        # z^2 mu(z): powers combined so probing tiny z cannot overflow
        return c * z ** (1.0 - a) * np.array([r.value for r in inner])

    if mu.u_max is None:
        return integrate_semiinfinite(f, quad_tol, head_power=1.0 - a,
                                      tail_power=-a).value
    return integrate_truncated(f, mu.u_max, quad_tol,
                               head_power=1.0 - a).value


def phi_by_quadrature(model: ValidatedModel, u: float,
                      quad_tol: float = 1e-10) -> float:
    """Independent route to ``phi``: the jump moment from
    ``nested_jump_moment`` and the atom terms by quadrature, a cross-check
    of the closed forms in ``phi``."""
    if u <= 0.0:
        raise ValueError("u must be positive")
    u = float(u)
    moment = nested_jump_moment(model.spec.mu, u, quad_tol)
    t_atoms = 0.0
    if not model.nu_empty:
        for z, w in zip(model.nu_z, model.nu_w):
            inner = integrate_unit(lambda v: (u + v * z) ** -1.0, quad_tol).value
            t_atoms -= float(model.a3(u)) * w * z * inner
    return float(-model.a0(u) / u + 0.5 * model.a1(u) / (u * u)
                 + float(model.a2(u)) * moment + t_atoms)


def k_rho(u: float, z, rho: float):
    """Curvature kernel at state u > 3 for jump sizes z >= 0.

    With d = ln(1+z/u)/ln(u) and y = 1+d the kernel is
    y^(-rho) + rho y - (rho+1), which is nonnegative and vanishes only at
    z = 0.  With w = rho log1p(d) it splits into two nonnegative brackets,
    [e^(-w) - 1 + w] + rho [d - log1p(d)], each evaluated without
    cancellation: the second by ``x_minus_log1p``, the first by its
    series on expm1(-w) where that is small and as a plain sum above.
    """
    _check_k_points("k_rho", [u], [rho])
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("jump sizes must be >= 0")
    out = _k_kernel(z_arr, u, math.log(u), rho)
    return float(out) if out.ndim == 0 else out


def _check_k_points(name, us, rhos):
    if not all(u > 3.0 for u in us):
        raise ValueError(f"{name} requires u > 3, got {min(us)}")
    if not all(rho > 0.0 for rho in rhos):
        raise ValueError("rho must be positive")


def _logs(us):
    """ln u of each state from ``math.log``; numpy's vectorized log can
    differ from it in the last bit."""
    return np.array([math.log(v) for v in us])


def _k_kernel(z, u, lnu, rho):
    """k_rho elementwise, with lnu = ln u (see ``k_rho``)."""
    d = np.log1p(z / u) / lnu
    w = rho * np.log1p(d)
    x = np.expm1(-w)
    # past the series range the plain sum x + w is accurate (about 2e-13
    # relative at the switch, better above); x_minus_log1p would recompute
    # -w as log1p(x) from a rounded x, losing digits as w grows and
    # failing once x rounds to -1 (w > 37)
    small = x > -1e-3
    first = np.where(small, x_minus_log1p(np.where(small, x, 0.0)), x + w)
    return first + rho * x_minus_log1p(d)


def stable_k_integral(model: ValidatedModel, u: float, rho: float,
                      quad_tol: float = 1e-10,
                      tally: Optional[QuadTally] = None) -> float:
    """int over U of k_rho(u, z) mu(dz) by adaptive quadrature."""
    return stable_k_integrals(model, [u], [rho], quad_tol, tally)[0]


def stable_k_integrals(model: ValidatedModel, us, rhos,
                       quad_tol: float = 1e-10,
                       tally: Optional[QuadTally] = None) -> List[float]:
    """``stable_k_integral`` at each (u, rho) pair, in one batched run."""
    _check_k_points("stable_k_integral", us, rhos)
    a = model.alpha
    c = model.c_alpha
    u = np.array(us, dtype=float)
    lnu = _logs(us)
    rho = np.array(rhos, dtype=float)

    def f(z, job):
        return _k_kernel(z, u[job], lnu[job], rho[job]) * c * z ** (-1.0 - a)

    # the kernel grows only logarithmically, so on full support the bare
    # exponential tail map converges; no tail envelope is declared
    results = integrate_jobs(f, len(us), model.u_max, quad_tol,
                             head_power=1.0 - a)
    return [r.value if tally is None else tally.add(r) for r in results]


def k_integral_bounds(u: float, rho: float, alpha: float,
                      c_alpha: float) -> Tuple[float, float]:
    """Closed-form lower/upper bounds for the full-support k-integral.

    Upper: rho(rho+1) u^-alpha (ln u)^-2 times the (z ^ z^2) mass of mu;
    the constant uses sup_z ln(1+z)/(z ^ sqrt z) = 1, attained as z -> 0.
    Lower: the same prefactor damped by (1 + ln3/ln u)^(-rho-2) and the
    explicit mass of mu on [1,2] probed at jump fraction >= 1/2.
    """
    if not u > 3.0:
        raise ValueError("bounds require u > 3")
    pre = rho * (rho + 1.0) * u ** (-alpha) * math.log(u) ** -2
    mass_total = c_alpha * (1.0 / (2.0 - alpha) + 1.0 / (alpha - 1.0))
    upper = pre * mass_total
    mass_12 = c_alpha * (1.0 - 2.0 ** (-alpha)) / alpha
    lower = (pre * (1.0 + math.log(3.0) / math.log(u)) ** (-rho - 2.0)
             * math.log(1.5) ** 2 * mass_12 / 8.0)
    return lower, upper


def h_rho(model: ValidatedModel, u: float, rho: float,
          quad_tol: float = 1e-10, tally: Optional[QuadTally] = None) -> float:
    """Fluctuation functional at u > 3 (see module docstring)."""
    return _h_values(model, [u], [rho], quad_tol, tally)[0]


def _h_values(model: ValidatedModel, us, rhos, tol: float,
              tally: Optional[QuadTally]) -> List[float]:
    """``h_rho`` at each (u, rho) pair: each rate is called once on the
    pairs, and the k-integrals share one run."""
    _check_k_points("h_rho", us, rhos)
    u = np.array(us, dtype=float)
    rho = np.array(rhos, dtype=float)
    total = 0.5 * model.a1(u) / (u * u)
    a2 = model.a2(u)
    jumps = np.flatnonzero(a2 != 0.0)
    if jumps.size:
        total[jumps] += a2[jumps] * np.array(stable_k_integrals(
            model, u[jumps].tolist(), rho[jumps].tolist(), tol, tally))
    if not model.nu_empty:
        k = _k_kernel(model.nu_z, u[:, None], _logs(u.tolist())[:, None],
                      rho[:, None])
        total += model.a3(u) * _atom_sums(model, k)
    return total.tolist()


def apply_generator(model: ValidatedModel, g: TestFunction, u: float,
                    quad_tol: float = 1e-10) -> float:
    """Generator of the process applied to g at state u: the one-state
    call of ``generator_values``."""
    return float(generator_values(model, g, [u], quad_tol)[0])


def generator_values(model: ValidatedModel, g: TestFunction, us,
                     quad_tol: float = 1e-10) -> np.ndarray:
    """Generator of the process applied to g at each state of ``us``.

    Drift and diffusion act through g' and g''; the heavy-jump measure is
    integrated against the second-order remainder g(u+z)-g(u)-z g'(u),
    the integrals of all states in one batched run, and the atomic
    measure against the plain difference g(u+z)-g(u).  The rates, g1 and
    g2 are called once on all states, the jump callables of g on all
    states of a quadrature round.
    """
    u = np.asarray(us, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("u must be positive")
    total = np.asarray(model.a0(u) * g.g1(u) + 0.5 * model.a1(u) * g.g2(u),
                       dtype=float)
    a2 = model.a2(u)
    jumps = np.flatnonzero(a2 != 0.0)
    if jumps.size:
        a = model.alpha
        c = model.c_alpha
        uj = u[jumps]

        def f(z, job):
            return np.asarray(g.jump_remainder(uj[job], z), dtype=float) \
                * c * z ** (-1.0 - a)

        # on full support the remainder is ~ z g'(u) for large z, hence a
        # -alpha tail envelope
        results = integrate_jobs(f, jumps.size, model.u_max, quad_tol,
                                 head_power=1.0 - a, tail_power=-a)
        total[jumps] += a2[jumps] * np.array([r.value for r in results])
    if not model.nu_empty:
        deltas = np.asarray(g.jump_delta(u[:, None], model.nu_z), dtype=float)
        total += model.a3(u) * _atom_sums(model, deltas)
    return total


# ---------------------------------------------------------------------------
# classification


@dataclass
class BoundaryReport:
    """Verdicts for the four boundary behaviors plus their evidence."""
    no_extinction: Verdict
    no_explosion: Verdict
    infinity_behavior: InfinityBehavior
    method: str  # "symbolic" or "numeric"
    evidence: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "no_extinction": self.no_extinction.value,
            "no_explosion": self.no_explosion.value,
            "infinity_behavior": self.infinity_behavior.value,
            "method": self.method,
            "evidence": self.evidence,
        }


def _merge_power_terms(terms):
    """Group (coefficient, exponent) terms, dropping exact cancellations."""
    groups = []
    for coef, expo in terms:
        for grp in groups:
            if abs(grp[1] - expo) <= _EXPONENT_TOL:
                grp[0] += coef
                grp[2] = max(grp[2], abs(coef))
                break
        else:
            groups.append([coef, expo, abs(coef)])
    kept = [(c, e) for c, e, m in groups if abs(c) > _COEF_REL_TOL * m]
    return sorted(kept, key=lambda t: t[1])


def _symbolic_phi_signs(model: ValidatedModel):
    (b0, r0), (b1, r1), (b2, r2), _ = model.power_coefficients()
    terms = [(-b0, r0 - 1.0)]
    if b1 > 0.0:
        terms.append((0.5 * b1, r1 - 2.0))
    if b2 > 0.0:
        terms.append((model.gamma_alpha * b2, r2 - model.alpha))
    merged = _merge_power_terms(terms)
    if not merged:
        return 0, 0, merged
    sign_zero = int(np.sign(merged[0][0]))   # smallest exponent rules u -> 0
    sign_inf = int(np.sign(merged[-1][0]))   # largest exponent rules u -> inf
    return sign_zero, sign_inf, merged


def _classify_symbolic(model: ValidatedModel, cfg: CriteriaConfig) -> BoundaryReport:
    (b0, r0), (b1, r1), (b2, r2), _ = model.power_coefficients()
    sign_zero, sign_inf, merged = _symbolic_phi_signs(model)
    alpha = model.alpha

    h_bounded = ((b1 == 0.0 or r1 <= 2.0 + _EXPONENT_TOL)
                 and (b2 == 0.0 or r2 <= alpha + _EXPONENT_TOL))
    h_superlog = ((b1 > 0.0 and r1 > 2.0 + _EXPONENT_TOL)
                  or (b2 > 0.0 and r2 > alpha + _EXPONENT_TOL))

    no_extinction = Verdict.HOLDS if sign_zero <= 0 else Verdict.INCONCLUSIVE
    no_explosion = Verdict.HOLDS if sign_inf >= 0 else Verdict.INCONCLUSIVE
    if sign_inf <= 0 and h_bounded:
        infinity = InfinityBehavior.STAYS_INFINITE
    elif sign_inf >= 0 and h_superlog:
        infinity = InfinityBehavior.COMES_DOWN_FROM_INFINITY
    else:
        infinity = InfinityBehavior.INCONCLUSIVE

    phi_small, phi_large = _phi_grids(model, cfg, None)
    evidence = {
        "phi_terms": [[c, e] for c, e in merged],
        "phi_sign_near_zero": sign_zero,
        "phi_sign_near_infinity": sign_inf,
        "h_bounded": h_bounded,
        "h_superlogarithmic": h_superlog,
        "rho": cfg.rho,
        "phi_small": [[u, v] for u, (v, _) in zip(cfg.small_u_grid, phi_small)],
        "phi_large": [[u, v] for u, (v, _) in zip(cfg.large_u_grid, phi_large)],
    }
    return BoundaryReport(no_extinction, no_explosion, infinity,
                          "symbolic", evidence)


def _phi_grids(model, cfg, tally):
    """``phi_with_scale`` on the small and the large grid, from one run."""
    small, large = cfg.small_u_grid, cfg.large_u_grid
    phis = _phi_values(model, [*small, *large], cfg.quad_tol, tally)
    return phis[:len(small)], phis[len(small):]


def _grid_sign(vals, scales):
    """Uniform sign over a grid ordered toward its limit, else None.

    Requires every point on the same side (relative to its own term
    scale) and a monotone trend over the last three points.
    """
    vals = np.asarray(vals, dtype=float)
    tols = 1e-9 * np.asarray(scales, dtype=float)
    if np.all(np.abs(vals) <= tols):
        return 0
    if np.all(vals >= -tols):
        sign = 1
    elif np.all(vals <= tols):
        sign = -1
    else:
        return None
    if len(vals) >= 3:
        a, b, c = vals[-3:]
        slack = 1e-9 * max(abs(a), abs(b), abs(c))
        if not (a <= b + slack <= c + 2 * slack
                or a >= b - slack >= c - 2 * slack):
            return None
    return sign


def _classify_numeric(model: ValidatedModel, cfg: CriteriaConfig) -> BoundaryReport:
    tally = QuadTally()
    phi_small, phi_large = _phi_grids(model, cfg, tally)
    sign_zero = _grid_sign([v for v, _ in phi_small],
                           [s for _, s in phi_small])
    sign_inf = _grid_sign([v for v, _ in phi_large],
                          [s for _, s in phi_large])

    grid = list(cfg.large_u_grid)
    h_all = _h_values(model, grid * len(RHO_SCAN),
                      [rho for rho in RHO_SCAN for _ in grid], cfg.quad_tol,
                      tally)
    h_grids = {rho: h_all[i * len(grid):(i + 1) * len(grid)]
               for i, rho in enumerate(RHO_SCAN)}

    def bounded_evidence(hs):
        if len(hs) < 3:
            return False
        a, b, c = hs[-3:]
        slack = 1e-9 * max(abs(a), abs(b), abs(c), 1e-300)
        return a >= b - slack >= c - 2 * slack

    def superlog_evidence(hs, rho):
        w = [h * math.log(u) ** (-rho - 2.0)
             for h, u in zip(hs, cfg.large_u_grid)]
        if len(w) < 3:
            return False
        increasing = w[-3] <= w[-2] <= w[-1]
        return increasing and w[-1] >= 10.0 * w[0]

    infinity = InfinityBehavior.INCONCLUSIVE
    rho_used = None
    for rho in RHO_SCAN:
        hs = h_grids[rho]
        if sign_inf is not None and sign_inf <= 0 and bounded_evidence(hs):
            infinity = InfinityBehavior.STAYS_INFINITE
            rho_used = rho
            break
        if sign_inf is not None and sign_inf >= 0 and superlog_evidence(hs, rho):
            infinity = InfinityBehavior.COMES_DOWN_FROM_INFINITY
            rho_used = rho
            break

    no_extinction = (Verdict.HOLDS if sign_zero is not None and sign_zero <= 0
                     else Verdict.INCONCLUSIVE)
    no_explosion = (Verdict.HOLDS if sign_inf is not None and sign_inf >= 0
                    else Verdict.INCONCLUSIVE)
    evidence = {
        "phi_small": [[u, v] for u, (v, _) in zip(cfg.small_u_grid, phi_small)],
        "phi_large": [[u, v] for u, (v, _) in zip(cfg.large_u_grid, phi_large)],
        "phi_sign_near_zero": sign_zero,
        "phi_sign_near_infinity": sign_inf,
        "h_large": {str(r): [[u, h] for u, h in zip(cfg.large_u_grid, hs)]
                    for r, hs in h_grids.items()},
        "rho": rho_used if rho_used is not None else cfg.rho,
        "quad_evaluations": tally.evaluations,
        "quad_worst_rel_error": tally.worst_rel_error,
    }
    return BoundaryReport(no_extinction, no_explosion, infinity,
                          "numeric", evidence)


def classify(model: ValidatedModel,
             cfg: Optional[CriteriaConfig] = None) -> BoundaryReport:
    """Classify the four boundary behaviors of a validated model.

    Power-law models with full jump support and no atoms are decided
    exactly from exponent/coefficient comparisons; everything else is
    evaluated on the configured grids and any mixed evidence yields an
    inconclusive verdict rather than a guess.
    """
    cfg = cfg or CriteriaConfig()
    if model.is_power_law and model.full_support and model.nu_empty:
        return _classify_symbolic(model, cfg)
    return _classify_numeric(model, cfg)
