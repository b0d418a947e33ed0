"""Boundary-behavior criteria for the validated process model.

The classifier rests on two scalar diagnostics of the model at state u:

* ``phi`` -- the drift index: negative values mean the log-state drifts
  up, positive values mean it drifts down.  Its sign near zero controls
  extinction, its sign near infinity controls explosion.
* ``h_rho`` -- the fluctuation functional at large states: the diffusion
  term plus the jump measures integrated against the curvature kernel
  k_rho (``_k_kernel``), which compares log(u+z) against log(u) on a
  power scale rho and is strictly positive for z > 0.  Bounded h_rho at
  infinity keeps a high-started process high ("stays infinite");
  super-logarithmic growth drags it down in finite time ("comes down
  from infinity").

Every model the package accepts is decided exactly.  Near zero and near
infinity each rate is a short sum of powers: a power law is one term,
and a tabulated rate is constant past its last knot and constant or
affine below its first positive knot.  So phi at each end is a short
sum of (coefficient, exponent, log power) terms, exact or a convergent
series carried to a fixed order, and h_rho's channels are nonnegative
powers.  Terms that cancel to every order carried, and models the two
infinity rules do not cover, read inconclusive.  phi has closed forms
everywhere, and classify reads h_rho's growth order, not its values, so
it makes no quadrature call.  The k-integrals serve the ``selftest``
sandwich check; ``h_rho`` and ``phi_by_quadrature`` are quadrature
routes the tests check the closed forms against.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import beta, betainc, betaincc

from .model import StableMeasure, ValidatedModel
from .numerics import integrate_semiinfinite, integrate_unit, x_minus_log1p
from .numerics.quadrature import integrate_jobs, integrate_truncated

__all__ = [
    "TestFunction",
    "Verdict",
    "InfinityBehavior",
    "BoundaryReport",
    "phi",
    "phi_with_scale",
    "phi_by_quadrature",
    "nested_jump_moment",
    "stable_k_integral",
    "stable_k_integrals",
    "k_integral_bounds",
    "h_rho",
    "apply_generator",
    "generator_values",
    "classify",
    "ln_test_function",
]

_EXPONENT_TOL = 1e-12
_COEF_REL_TOL = 1e-12
# orders carried of each convergent series in phi's expansions
_SERIES_TERMS = 6
# the states at which the classifier's evidence prints phi
_SMALL_U_GRID = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_LARGE_U_GRID = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
_PHI_GRID = np.array(_SMALL_U_GRID + _LARGE_U_GRID)
_PHI_GRID.flags.writeable = False


class Verdict(str, Enum):
    HOLDS = "holds"
    INCONCLUSIVE = "inconclusive"


class InfinityBehavior(str, Enum):
    STAYS_INFINITE = "stays_infinite"
    COMES_DOWN_FROM_INFINITY = "comes_down_from_infinity"
    INCONCLUSIVE = "inconclusive"


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


# ---------------------------------------------------------------------------
# scalar diagnostics


def phi_with_scale(model: ValidatedModel, u: float) -> Tuple[float, float]:
    """Drift index at u together with the magnitude scale of its terms.

    The scale (sum of absolute term sizes) is what "phi is numerically
    zero" must be judged against: on critical models the terms cancel
    exactly and the value is roundoff-level relative to the scale.
    """
    return _phi_values(model, [u])[0]


def phi(model: ValidatedModel, u: float) -> float:
    """Drift index at u (see module docstring)."""
    return phi_with_scale(model, u)[0]


def _phi_values(model: ValidatedModel, us) -> List[Tuple[float, float]]:
    """``phi_with_scale`` at each u from ``_phi_terms``: each nonzero rate
    is called once on the grid, and every term has a closed form."""
    u = np.array(us, dtype=float)
    if not np.all(u > 0.0):
        raise ValueError("u must be positive")
    t0, t1, t2, t3 = _phi_terms(model, u)
    return list(zip((t0 + t1 + t2 + t3).tolist(),
                    (abs(t0) + abs(t1) + abs(t2) + abs(t3)).tolist()))


def _phi_terms(model: ValidatedModel, u: np.ndarray):
    """phi's drift, diffusion, jump and atom terms at the states u; a zero
    rate is not called and adds the scalar 0.0 (the drift stays an array)."""
    spec = model.spec
    t_drift = np.zeros_like(u) if spec.a0.is_zero else -model.a0(u) / u
    t_diff = 0.0 if spec.a1.is_zero else 0.5 * model.a1(u) / (u * u)
    t_jump = t_atoms = 0.0
    if not spec.a2.is_zero:
        a2 = model.a2(u)
        if np.count_nonzero(a2) == a2.size:
            t_jump = a2 * _quadratic_jump_moments(model, u)
        else:   # the moment only where a2 is nonzero
            on = a2 != 0.0
            t_jump = np.zeros_like(u)
            t_jump[on] = a2[on] * _quadratic_jump_moments(model, u[on])
    if not (model.nu_empty or spec.a3.is_zero):
        t_atoms = -model.a3(u) * _atom_sums(
            model, np.log1p(model.nu_z / u[:, None]))
    return t_drift, t_diff, t_jump, t_atoms


def _atom_sums(model: ValidatedModel, values):
    """sum_j w_j values[..., j] over the atoms (last axis)."""
    return (model.nu_w * values).sum(axis=-1)


def _quadratic_jump_moments(model: ValidatedModel, u: np.ndarray) -> np.ndarray:
    """int over U of z^2 mu(dz) * int_0^1 (u+vz)^-2 (1-v) dv at each u.

    The inner integral collapses to (z/u - log1p(z/u)) / z^2, so the moment
    is c u^-alpha G(u_max/u) with G(U) = int_0^U x^(-1-alpha) (x - log1p x)
    dx, and gamma(alpha) u^-alpha on full support.  By parts,
    G(U) = [B(a, 1-a) I_t(a, 1-a) - U^-alpha (U - log1p U)] / alpha with
    a = 2 - alpha and t = U / (1+U).  Above U = 1 the regularized beta
    comes from its complement at 1 - t = 1 / (1+U): the plain form loses
    digits there (9e-10 relative at alpha = 1.1, U = 1e10).
    """
    alpha = model.alpha
    if model.full_support:
        return np.array([model.gamma_alpha * v ** (-alpha)
                         for v in u.tolist()])
    big = model.u_max / u
    a = 2.0 - alpha
    ibeta = np.where(big <= 1.0, betainc(a, 1.0 - a, big / (1.0 + big)),
                     betaincc(1.0 - a, a, 1.0 / (1.0 + big)))
    g = (beta(a, 1.0 - a) * ibeta - big ** -alpha * x_minus_log1p(big)) / alpha
    return model.c_alpha * u ** -alpha * g


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
    """Curvature kernel k_rho(u, z) elementwise, for u > 3, jump sizes
    z >= 0 and lnu = ln u.

    With d = ln(1+z/u)/ln(u) and y = 1+d the kernel is
    y^(-rho) + rho y - (rho+1), which is nonnegative and vanishes only at
    z = 0.  With w = rho log1p(d) it splits into two nonnegative brackets,
    [e^(-w) - 1 + w] + rho [d - log1p(d)], each evaluated without
    cancellation: the second by ``x_minus_log1p``, the first by its
    series on expm1(-w) where that is small and as a plain sum above.
    """
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
                      quad_tol: float = 1e-10) -> float:
    """int over U of k_rho(u, z) mu(dz) by adaptive quadrature."""
    return stable_k_integrals(model, [u], [rho], quad_tol)[0]


def stable_k_integrals(model: ValidatedModel, us, rhos,
                       quad_tol: float = 1e-10) -> List[float]:
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
    return [r.value for r in results]


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
          quad_tol: float = 1e-10) -> float:
    """Fluctuation functional at u > 3 (see module docstring)."""
    _check_k_points("h_rho", [u], [rho])
    total = 0.5 * model.a1(u) / (u * u)
    a2 = model.a2(u)
    if a2 != 0.0:
        total += a2 * stable_k_integral(model, u, rho, quad_tol)
    if not model.nu_empty:
        k = _k_kernel(model.nu_z, u, math.log(u), rho)
        total += model.a3(u) * _atom_sums(model, k)
    return float(total)


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


class _BuiltOnRead:
    """The evidence field: a dict, or a function building it on first read."""

    def __get__(self, report, owner=None):
        if report is not None and callable(report._evidence):
            report._evidence = report._evidence()
        return dict if report is None else report._evidence  # default: {}

    def __set__(self, report, value):
        report._evidence = value


@dataclass
class BoundaryReport:
    """Verdicts for the four boundary behaviors plus their evidence, built on
    its first read, once per report: verdict-only callers never build it."""
    no_extinction: Verdict
    no_explosion: Verdict
    infinity_behavior: InfinityBehavior
    method: str  # always "symbolic": every model is decided exactly
    evidence: Dict = _BuiltOnRead()

    def to_dict(self) -> Dict:
        return {
            "no_extinction": self.no_extinction.value,
            "no_explosion": self.no_explosion.value,
            "infinity_behavior": self.infinity_behavior.value,
            "method": self.method,
            "evidence": self.evidence,
        }


def _merge_power_terms(terms):
    """Group (coefficient, exponent, log power) terms of equal exponent and
    log power, dropping exact cancellations."""
    groups = []
    for coef, expo, logp in terms:
        for grp in groups:
            if grp[2] == logp and abs(grp[1] - expo) <= _EXPONENT_TOL:
                grp[0] += coef
                grp[3] = max(grp[3], abs(coef))
                break
        else:
            groups.append([coef, expo, logp, abs(coef)])
    kept = [(c, e, p) for c, e, p, m in groups if abs(c) > _COEF_REL_TOL * m]
    return sorted(kept, key=lambda t: (t[1], t[2]))


def _rate_ends(model: ValidatedModel):
    """The four rates' (coefficient, exponent) terms near zero and, as a
    second tuple, near infinity."""
    spec = model.spec
    return tuple(zip(spec.a0.end_terms(), spec.a1.end_terms(),
                     spec.a2.end_terms(), spec.a3.end_terms()))


def _phi_expansions(model: ValidatedModel, zero_rates, inf_rates):
    """phi near zero and near infinity as (coefficient, exponent, log
    power) terms, each with the exponent of the first order it leaves out,
    None where the terms are exact; exact and alike at both ends, they are
    one list.  ``zero_rates`` and ``inf_rates`` are ``_rate_ends``."""
    zero = _phi_end(model, zero_rates, True)
    if zero[1] is None and zero_rates == inf_rates:
        return zero, zero
    return zero, _phi_end(model, inf_rates, False)


def _phi_end(model: ValidatedModel, rates, toward_zero):
    """phi's terms at one end from the rates' terms there, and the
    exponent of the first order they leave out (see ``_phi_expansions``).

    Drift, diffusion and the full-support jump moment are single powers
    per rate term.  On a cut support the moment is, for u < u_max,
    Gamma(alpha) u^-alpha - c u_max^(1-alpha) / ((alpha-1) u)
    - (c u_max^-alpha / alpha) ln u + c u_max^-alpha (ln u_max / alpha
    + 1/alpha^2) + sum_k (-1)^(k+1) c u_max^(-alpha-k) u^k / (k (alpha+k)),
    and for u > u_max sum_(n>=2) (-1)^n m_n / (n u^n) with
    m_n = c u_max^(n-alpha) / (n-alpha).  The atoms enter through
    log1p(z/u) = ln z - ln u + log1p(u/z) near zero and its power series
    in z/u near infinity.  Each series carries _SERIES_TERMS orders.
    """
    t0, t1, t2, t3 = rates
    alpha = model.alpha
    cut_jumps = bool(t2) and not model.full_support
    atoms = bool(t3) and not model.nu_empty
    terms = [(-b0, r0 - 1.0, 0) for b0, r0 in t0]
    terms += [(0.5 * b1, r1 - 2.0, 0) for b1, r1 in t1]
    if toward_zero or not cut_jumps:
        terms += [(model.gamma_alpha * b2, r2 - alpha, 0) for b2, r2 in t2]
    cuts = []
    orders = range(1, _SERIES_TERMS + 1)
    if cut_jumps:
        um = model.u_max
        for b2, r2 in t2:
            c = b2 * model.c_alpha
            if toward_zero:
                terms += [(-c * um ** (1.0 - alpha) / (alpha - 1.0),
                           r2 - 1.0, 0),
                          (-c * um ** -alpha / alpha, r2, 1),
                          (c * um ** -alpha
                           * (math.log(um) / alpha + alpha ** -2), r2, 0)]
                terms += [((-1) ** (k + 1) * c * um ** (-alpha - k)
                           / (k * (alpha + k)), r2 + k, 0) for k in orders]
            else:
                terms += [((-1) ** n * c * um ** (n - alpha)
                           / (n * (n - alpha)), r2 - n, 0)
                          for n in range(2, _SERIES_TERMS + 2)]
        cuts.append(_cut(t2, toward_zero, _SERIES_TERMS + 1,
                         _SERIES_TERMS + 2))
    if atoms:
        z, w = model.nu_z, model.nu_w
        if toward_zero:
            mass, logs = float(w.sum()), float((w * np.log(z)).sum())
            sums = [float((w * z ** -k).sum()) for k in orders]
            for b3, r3 in t3:
                terms += [(b3 * mass, r3, 1), (-b3 * logs, r3, 0)]
                terms += [((-1) ** k * b3 * m / k, r3 + k, 0)
                          for k, m in zip(orders, sums)]
        else:
            sums = [float((w * z ** n).sum()) for n in orders]
            for b3, r3 in t3:
                terms += [((-1) ** n * b3 * m / n, r3 - n, 0)
                          for n, m in zip(orders, sums)]
        cuts.append(_cut(t3, toward_zero, _SERIES_TERMS + 1,
                         _SERIES_TERMS + 1))
    if not cuts:
        return terms, None
    return terms, min(cuts) if toward_zero else max(cuts)


def _cut(rate_terms, toward_zero, below, above):
    """Exponent of the first order a series times a rate leaves out: the
    series omits u^(r+below) near zero, u^(r-above) near infinity, for
    each term u^r of the rate (its terms run in increasing exponent)."""
    if toward_zero:
        return rate_terms[0][1] + below
    return rate_terms[-1][1] - above


def _leading_sign(merged, cut, toward_zero):
    """Sign of phi near zero or infinity from its merged terms and the
    exponent of the first order they leave out: 0 when nothing is left of
    exact terms (phi vanishes identically), None when the terms carried
    cancel down to the order left out.  Near zero the smallest exponent
    leads and ln u < 0; near infinity the largest does."""
    if not merged:
        return 0 if cut is None else None
    if toward_zero:
        coef, expo, logp = min(merged, key=lambda t: (t[1], -t[2]))
        decided = cut is None or expo < cut - _EXPONENT_TOL
        sign = ((coef > 0.0) - (coef < 0.0)) * (-1) ** logp
    else:
        coef, expo, logp = merged[-1]
        decided = cut is None or expo > cut + _EXPONENT_TOL
        sign = (coef > 0.0) - (coef < 0.0)
    return sign if decided else None


def _h_growth(model: ValidatedModel, inf_rates):
    """(exponent, log power) of the leading order of h_rho at infinity,
    None when h vanishes.  Each channel is nonnegative, so none cancels;
    with r the largest exponent of its rate near infinity, the last of
    its terms, diffusion gives u^(r-2); heavy jumps u^(r-alpha) (ln u)^-2
    on full support and u^(r-2) (ln u)^-2 on a cut one; atoms u^(r-2)
    (ln u)^-2."""
    _, t1, t2, t3 = inf_rates
    orders = []
    if t1:
        orders.append((t1[-1][1] - 2.0, 0))
    if t2:
        orders.append((t2[-1][1]
                       - (model.alpha if model.full_support else 2.0), -2))
    if t3 and not model.nu_empty:
        orders.append((t3[-1][1] - 2.0, -2))
    return max(orders, default=None)


def classify(model: ValidatedModel) -> BoundaryReport:
    """Classify the four boundary behaviors of a validated model.

    Every model is decided exactly, with no quadrature: each rate is a
    short sum of powers near zero and near infinity, so the verdicts are
    read from the leading terms of phi's expansions at each end and from
    the growth order of h_rho.  The evidence, built on its first read,
    prints phi's values on two fixed grids of small and large states, each
    nonzero rate called once on both.
    """
    zero_rates, inf_rates = _rate_ends(model)
    (zero, zero_cut), (inf, inf_cut) = _phi_expansions(model, zero_rates,
                                                       inf_rates)
    terms_zero = _merge_power_terms(zero)
    terms_inf = terms_zero if inf is zero else _merge_power_terms(inf)
    sign_zero = _leading_sign(terms_zero, zero_cut, True)
    sign_inf = _leading_sign(terms_inf, inf_cut, False)
    growth = _h_growth(model, inf_rates)
    h_superlog = growth is not None and growth[0] > _EXPONENT_TOL

    no_extinction = (Verdict.HOLDS if sign_zero is not None and sign_zero <= 0
                     else Verdict.INCONCLUSIVE)
    no_explosion = (Verdict.HOLDS if sign_inf is not None and sign_inf >= 0
                    else Verdict.INCONCLUSIVE)
    gap = None
    if sign_inf is None:
        infinity = InfinityBehavior.INCONCLUSIVE
        gap = "phi's terms near infinity cancel to every order carried"
    elif sign_inf <= 0 and not h_superlog:
        infinity = InfinityBehavior.STAYS_INFINITE
    elif sign_inf >= 0 and h_superlog:
        infinity = InfinityBehavior.COMES_DOWN_FROM_INFINITY
    else:
        infinity = InfinityBehavior.INCONCLUSIVE
        side, h = (">", "bounded") if sign_inf > 0 else ("<", "superlogarithmic")
        gap = f"the rules leave a gap: phi {side} 0 near infinity with h_rho {h}"

    return BoundaryReport(no_extinction, no_explosion, infinity, "symbolic",
                          partial(_evidence, model, terms_zero, terms_inf,
                                  sign_zero, sign_inf, growth, h_superlog, gap))


def _evidence(model, zero, inf, sign_zero, sign_inf, growth, superlog, gap):
    """``classify``'s evidence from its decision, with phi on the grid."""
    # the grid's values only; one that overflows reads inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        t0, t1, t2, t3 = _phi_terms(model, _PHI_GRID)
        phis = [[u, v] for u, v in zip(_SMALL_U_GRID + _LARGE_U_GRID,
                                       (t0 + t1 + t2 + t3).tolist())]
    return {
        "phi_terms": {"near_zero": [list(t) for t in zero],
                      "near_infinity": [list(t) for t in inf]},
        "phi_sign_near_zero": sign_zero,
        "phi_sign_near_infinity": sign_inf,
        "h_growth": None if growth is None else list(growth),
        "h_bounded": not superlog,
        "h_superlogarithmic": superlog,
        "infinity_gap": gap,
        "rho": None,
        "phi_small": phis[:len(_SMALL_U_GRID)],
        "phi_large": phis[len(_SMALL_U_GRID):],
    }
