"""Boundary-behavior analysis and Monte Carlo verification for
continuous-state branching processes with state-dependent rates.

The package has three layers:

* ``nlbranch.numerics`` -- special functions, adaptive quadrature and
  counter-based random number streams,
* ``nlbranch.model`` / ``nlbranch.criteria`` -- process parameterization,
  validation and boundary classification (extinction, explosion, staying
  infinite, coming down from infinity),
* ``nlbranch.simulator`` / ``nlbranch.montecarlo`` -- jump-SDE path
  simulation and replicated first-passage estimation.

``nlbranch.cli`` exposes all of it behind the ``nlbranch`` command.
"""

__version__ = "0.1.0"

from .model import (
    FiniteMeasure,
    ModelSpec,
    PowerLaw,
    StableMeasure,
    Tabulated,
    ValidatedModel,
    ValidationError,
    critical_deficit,
    validate,
)
from .criteria import BoundaryReport, InfinityBehavior, Verdict, classify

__all__ = [
    "__version__",
    "PowerLaw",
    "Tabulated",
    "StableMeasure",
    "FiniteMeasure",
    "ModelSpec",
    "ValidatedModel",
    "ValidationError",
    "validate",
    "critical_deficit",
    "BoundaryReport",
    "Verdict",
    "InfinityBehavior",
    "classify",
]
