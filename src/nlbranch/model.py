"""Process parameterization: rate functions, jump measures, validation.

A model is four nonnegative rate functions (drift, diffusion, heavy-jump
and atom-jump intensities), a one-sided stable jump measure on a support
U that is either all of (0,inf) or a bounded cut (0,u_max], and a finite
atomic measure living outside U.
"""

import bisect
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .numerics import gamma

__all__ = [
    "PowerLaw",
    "Tabulated",
    "RateFunction",
    "StableMeasure",
    "FiniteMeasure",
    "ModelSpec",
    "ValidatedModel",
    "CriticalityCheck",
    "ValidationError",
    "validate",
    "critical_deficit",
]

class ValidationError(ValueError):
    """Validation failure with a stable machine-readable code: for a model
    a failure mode, for a settings dataclass the field that failed."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class PowerLaw:
    """Rate u -> b * u**r with b >= 0, r >= 0."""
    b: float
    r: float

    def __call__(self, u):
        if self.b == 0.0:
            return np.zeros_like(np.asarray(u, dtype=float)) + 0.0
        return self.b * np.asarray(u, dtype=float) ** self.r

    @property
    def is_zero(self) -> bool:
        return self.b == 0.0

    def end_terms(self):
        """(coefficient, exponent) terms of the rate near 0 and near
        infinity: b u^r at both ends, one tuple, and none when b = 0."""
        terms = () if self.b == 0.0 else ((self.b, self.r),)
        return terms, terms


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear rate through ordered (u, value) knots.

    Evaluation clamps to the first/last knot value outside the table,
    which keeps the rate bounded on every bounded interval by
    construction.  The clamping is deliberate and callers relying on
    behavior beyond the table must extend it explicitly.
    """
    knots: Tuple[Tuple[float, float], ...]
    # the knot abscissae and values as arrays, built once
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, column in (("_xs", 0), ("_ys", 1)):
            arr = np.array([k[column] for k in self.knots])
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __call__(self, u):
        return np.interp(np.asarray(u, dtype=float), self._xs, self._ys)

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for _, v in self.knots)

    def end_terms(self):
        """(coefficient, exponent) terms of the rate near 0 and near
        infinity in increasing exponent, exact on an interval at each end,
        zero terms left out.  Past the last knot the rate is its value;
        below the first positive knot it is the first value, or, with a
        knot at u <= 0, the segment spanning 0+: intercept u^0 plus slope
        u^1."""
        xs, ys = self._xs.tolist(), self._ys.tolist()
        i = bisect.bisect_right(xs, 0.0)   # the knots at u <= 0
        if 0 < i < len(xs):
            slope = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
            zero = ((ys[i - 1] - slope * xs[i - 1], 0.0), (slope, 1.0))
        else:
            zero = ((ys[0] if i == 0 else ys[-1], 0.0),)
        return (tuple(t for t in zero if t[0] != 0.0),
                ((ys[-1], 0.0),) if ys[-1] != 0.0 else ())


RateFunction = Union[PowerLaw, Tabulated]


@dataclass(frozen=True)
class StableMeasure:
    """One-sided jump density c(alpha) z**(-1-alpha) on U.

    U is (0, inf) when ``u_max`` is None, else (0, u_max].  alpha must lie
    strictly inside (1, 2): jump activity is infinite but the quadratic
    small-jump moment and the linear tail moment both converge.
    """
    alpha: float
    u_max: Optional[float] = None

    def c_alpha(self) -> float:
        a = self.alpha
        return a * (a - 1.0) / gamma(2.0 - a)


@dataclass(frozen=True)
class FiniteMeasure:
    """Finitely many atoms (z_j, w_j) with z_j > 0, w_j > 0."""
    atoms: Tuple[Tuple[float, float], ...] = ()


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization: rates a0..a3, stable measure mu, atoms nu."""
    a0: RateFunction
    a1: RateFunction
    a2: RateFunction
    a3: RateFunction
    mu: StableMeasure
    nu: FiniteMeasure = FiniteMeasure()


@dataclass(frozen=True)
class ValidatedModel:
    """A ModelSpec that passed validation, with cached derived constants.

    Immutable after construction and safe to share across threads.
    """
    spec: ModelSpec
    alpha: float
    c_alpha: float
    gamma_alpha: float
    u_max: Optional[float]
    nu_z: np.ndarray = field(repr=False)
    nu_w: np.ndarray = field(repr=False)

    def a0(self, u):
        return self.spec.a0(u)

    def a1(self, u):
        return self.spec.a1(u)

    def a2(self, u):
        return self.spec.a2(u)

    def a3(self, u):
        return self.spec.a3(u)

    @property
    def nu_mass(self) -> float:
        return float(self.nu_w.sum())

    @property
    def full_support(self) -> bool:
        return self.u_max is None

    @property
    def nu_empty(self) -> bool:
        return self.nu_z.size == 0


def _check_rate(name: str, f: RateFunction) -> None:
    if isinstance(f, PowerLaw):
        if not np.isfinite(f.b) or f.b < 0.0:
            raise ValidationError(
                "negative_rate_coefficient",
                f"{name}: power-law coefficient must be finite and >= 0, got {f.b}")
        if not np.isfinite(f.r) or f.r < 0.0:
            raise ValidationError(
                "negative_rate_exponent",
                f"{name}: power-law exponent must be finite and >= 0, got {f.r}")
    elif isinstance(f, Tabulated):
        if len(f.knots) < 1:
            raise ValidationError("empty_table", f"{name}: needs at least one knot")
        us = [k[0] for k in f.knots]
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValidationError(
                "unsorted_table", f"{name}: knot abscissae must be increasing")
        if any((not np.isfinite(v)) or v < 0.0 for _, v in f.knots):
            raise ValidationError(
                "negative_rate_value", f"{name}: knot values must be finite and >= 0")
    else:
        raise ValidationError(
            "unsupported_rate_form", f"{name}: unknown rate function type {type(f)}")


def validate(spec: ModelSpec) -> ValidatedModel:
    """Check all model invariants; return the immutable validated form.

    Raises ValidationError with a distinct code per failure mode.
    """
    mu = spec.mu
    if not (np.isfinite(mu.alpha) and 1.0 < mu.alpha < 2.0):
        raise ValidationError(
            "alpha_out_of_range",
            f"stable index must lie strictly in (1, 2), got {mu.alpha}")
    if mu.u_max is not None and not (np.isfinite(mu.u_max) and mu.u_max > 0.0):
        raise ValidationError(
            "bad_support_cut", f"support cut must be positive, got {mu.u_max}")

    for name, f in (("a0", spec.a0), ("a1", spec.a1),
                    ("a2", spec.a2), ("a3", spec.a3)):
        _check_rate(name, f)
    if isinstance(spec.a0, PowerLaw) and spec.a0.b <= 0.0:
        raise ValidationError(
            "zero_drift_coefficient", "a0: power-law coefficient must be > 0")

    for z, w in spec.nu.atoms:
        if not (np.isfinite(z) and z > 0.0):
            raise ValidationError("bad_atom", f"atom location must be > 0, got {z}")
        if not (np.isfinite(w) and w > 0.0):
            raise ValidationError("bad_atom", f"atom weight must be > 0, got {w}")
        inside_u = mu.u_max is None or z <= mu.u_max
        if inside_u:
            raise ValidationError(
                "atom_inside_support",
                f"atom at z={z} lies inside the stable support U; atoms must "
                f"live on the complement")

    nu_z = np.array([z for z, _ in spec.nu.atoms], dtype=float)
    nu_w = np.array([w for _, w in spec.nu.atoms], dtype=float)
    return ValidatedModel(
        spec=spec,
        alpha=float(mu.alpha),
        c_alpha=mu.c_alpha(),
        gamma_alpha=gamma(float(mu.alpha)),
        u_max=None if mu.u_max is None else float(mu.u_max),
        nu_z=nu_z,
        nu_w=nu_w,
    )


@dataclass(frozen=True)
class CriticalityCheck:
    """Distance of a power-law model from the critical manifold.

    ``coefficient_deficit`` is b0 - b1/2 - Gamma(alpha) b2; the residuals
    compare the fluctuation exponents against the drift exponent
    (r1 - (r0+1) and r2 - (r0+alpha-1)) and are None when the matching
    coefficient vanishes.  On the manifold the drift index of the model is
    identically zero and first-order boundary criteria are silent.
    """
    coefficient_deficit: float
    r1_residual: Optional[float]
    r2_residual: Optional[float]
    is_critical: bool


_CRITICAL_TOL = 1e-12


def critical_deficit(model: ValidatedModel) -> CriticalityCheck:
    """Evaluate the critical-manifold equations for a power-law model.

    Requires pure power-law rates, full support U = (0, inf) and no atoms;
    anything else raises ValidationError("unsupported_rate_form").
    """
    spec = model.spec
    rates = (spec.a0, spec.a1, spec.a2, spec.a3)
    if not (all(isinstance(f, PowerLaw) for f in rates)
            and model.full_support and model.nu_empty):
        raise ValidationError(
            "unsupported_rate_form",
            "criticality check requires power-law rates, full stable support "
            "and an empty atomic measure")
    (b0, r0), (b1, r1), (b2, r2) = ((f.b, f.r) for f in rates[:3])
    deficit = b0 - 0.5 * b1 - model.gamma_alpha * b2
    r1_res = (r1 - (r0 + 1.0)) if b1 > 0.0 else None
    r2_res = (r2 - (r0 + model.alpha - 1.0)) if b2 > 0.0 else None

    scale = max(b0, 0.5 * b1 + model.gamma_alpha * b2)
    ok = abs(deficit) <= _CRITICAL_TOL * scale and b0 > 0.0
    for res in (r1_res, r2_res):
        if res is not None and abs(res) > _CRITICAL_TOL:
            ok = False
    return CriticalityCheck(
        coefficient_deficit=deficit,
        r1_residual=r1_res,
        r2_residual=r2_res,
        is_critical=ok,
    )
