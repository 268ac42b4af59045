"""Intrinsic polynomial regression on Riemannian manifolds.

Curves of order k generalize polynomials to curved spaces: the k-th covariant
derivative of the velocity vanishes.  This package integrates such curves
forward on a manifold, differentiates a squared-distance objective with an
adjoint backward pass, fits initial conditions by descent, and reports fit
quality through the Frechet variance and the determination coefficient.

Shipped geometries: flat space, the unit sphere, the rotation group under a
left-invariant metric, and the shape space of labelled landmarks.
"""

from .geometry import (
    CutLocusError,
    Euclidean,
    GeometryError,
    Manifold,
    ShootingError,
)
from .kendall import (
    KendallShapeSpace,
    LandmarkConfig,
    to_preshape,
)
from .landmarks import LandmarkFileRecord, LandmarkFormatError, parse_landmarks
from .polyflow import (
    PolynomialState,
    Trajectory,
    collinearity_diagnostic,
    integrate_polynomial,
    sample_curve,
    time_grid,
)
from .regress import (
    FitConfig,
    FitResult,
    TimedDataset,
    ZeroVarianceError,
    fit_orders,
    fit_polynomial,
    frechet_mean,
    integrate_adjoint,
    r_squared,
)
from .so3 import MetricSpec, RotationGroup
from .sphere import Sphere

__version__ = "0.1.0"

__all__ = [
    "CutLocusError",
    "Euclidean",
    "GeometryError",
    "Manifold",
    "ShootingError",
    "KendallShapeSpace",
    "LandmarkConfig",
    "to_preshape",
    "LandmarkFileRecord",
    "LandmarkFormatError",
    "parse_landmarks",
    "PolynomialState",
    "Trajectory",
    "collinearity_diagnostic",
    "integrate_polynomial",
    "sample_curve",
    "time_grid",
    "FitConfig",
    "FitResult",
    "TimedDataset",
    "ZeroVarianceError",
    "fit_orders",
    "fit_polynomial",
    "frechet_mean",
    "integrate_adjoint",
    "r_squared",
    "MetricSpec",
    "RotationGroup",
    "Sphere",
    "__version__",
]
