from .special import gamma, x_minus_log1p
from .quadrature import QuadResult, QuadratureError, integrate_semiinfinite, integrate_unit
from .rng import StreamBundle

__all__ = [
    "gamma",
    "x_minus_log1p",
    "QuadResult",
    "QuadratureError",
    "integrate_semiinfinite",
    "integrate_unit",
    "StreamBundle",
]
