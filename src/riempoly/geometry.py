"""Manifold contract shared by every geometry, plus the flat oracle space.

All geometries represent points and tangent vectors in ambient coordinates
(Lie-algebra coordinates for the rotation group).  Operations are pure
functions of their inputs; manifold objects are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import numpy as np


class GeometryError(Exception):
    """Base class for geometric failures."""


class CutLocusError(GeometryError):
    """Log map requested at or beyond the cut locus."""


class ShootingError(GeometryError):
    """Iterative log map failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class Manifold:
    """Abstract contract every geometry implements.

    Points and tangents are plain ndarrays.  Tangent-valued operations accept
    stacked inputs: any leading axes broadcast, the trailing axes are one
    tangent vector.
    """

    name: str = "manifold"
    point_shape: tuple = ()
    tangent_shape: tuple = ()
    tolerance: float = 1e-10

    def exp(self, p, v):
        """Point reached at time 1 along the geodesic from p with velocity v."""
        raise NotImplementedError

    def log(self, p, q):
        """Minimal tangent vector at p mapping to q under exp."""
        raise NotImplementedError

    def transport(self, p, direction, x):
        """Parallel transport of x along the geodesic s -> exp(p, s*direction), s in [0,1]."""
        raise NotImplementedError

    def step(self, p, v, stack):
        """One geodesic step: (project_point(exp(p, v)), transport(p, v, stack)).

        The forward integrator's per-node kernel.  Subclasses override it
        where the endpoint and the transport can share their work.
        """
        return self.project_point(self.exp(p, v)), self.transport(p, v, stack)

    def curvature(self, p, x, y, z):
        """Curvature operator R(x, y)z at p."""
        raise NotImplementedError

    def inner(self, p, x, y):
        """Metric inner product of tangents x, y at p."""
        raise NotImplementedError

    def norm(self, p, x) -> float:
        return float(np.sqrt(max(self.inner(p, x, x), 0.0)))

    def dist(self, p, q) -> float:
        return self.norm(p, self.log(p, q))

    def project_point(self, p):
        """Nearest representative on the constraint set (drift cleanup)."""
        raise NotImplementedError

    def project_tangent(self, p, x):
        """Projection of an ambient vector onto the tangent space at p."""
        raise NotImplementedError

    def point_residuals(self, p) -> dict:
        """Constraint residuals of p, keyed by invariant name."""
        raise NotImplementedError

    def tangent_residuals(self, p, x) -> dict:
        """Constraint residuals of a tangent vector x at p."""
        raise NotImplementedError

    def injectivity_radius(self, p) -> float:
        raise NotImplementedError

    def random_point(self, rng):
        raise NotImplementedError

    def random_tangent(self, rng, p):
        raise NotImplementedError

    # Batched conveniences.  Subclasses override where a vectorized or
    # structurally cheaper path exists; the defaults just loop.

    def log_many(self, points, targets):
        return np.stack([self.log(p, q) for p, q in zip(points, targets)])

    def dist_many(self, points, targets):
        return np.array([self.dist(p, q) for p, q in zip(points, targets)])

    def __repr__(self) -> str:
        return self.name


class Euclidean(Manifold):
    """Flat space R^n.  Exact closed forms; used as the correctness oracle."""

    tolerance = 1e-12

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.point_shape = (dim,)
        self.tangent_shape = (dim,)
        self.name = f"euclidean({dim})"

    def _check(self, *arrays):
        for a in arrays:
            if np.shape(a)[-1] != self.dim:
                raise ValueError(
                    f"expected trailing dimension {self.dim}, got {np.shape(a)}"
                )

    def exp(self, p, v):
        self._check(p, v)
        return p + v

    def log(self, p, q):
        self._check(p, q)
        return q - p

    def transport(self, p, direction, x):
        self._check(p, direction, x)
        return np.array(x, dtype=float, copy=True)

    def curvature(self, p, x, y, z):
        return np.zeros(np.broadcast(x, y, z).shape)

    def inner(self, p, x, y):
        return float(np.dot(x, y)) if np.ndim(x) == 1 and np.ndim(y) == 1 else np.sum(x * y, axis=-1)

    def dist(self, p, q) -> float:
        d = np.asarray(q) - np.asarray(p)
        return float(np.sqrt(np.dot(d, d)))

    def project_point(self, p):
        return np.asarray(p, dtype=float)

    def project_tangent(self, p, x):
        return np.asarray(x, dtype=float)

    def point_residuals(self, p) -> dict:
        return {}

    def tangent_residuals(self, p, x) -> dict:
        return {}

    def injectivity_radius(self, p) -> float:
        return np.inf

    def random_point(self, rng):
        return rng.standard_normal(self.dim)

    def random_tangent(self, rng, p):
        return rng.standard_normal(self.dim)

    def log_many(self, points, targets):
        return np.asarray(targets) - np.asarray(points)

    def dist_many(self, points, targets):
        d = np.asarray(targets) - np.asarray(points)
        return np.sqrt(np.sum(d * d, axis=-1))


# Fraction of the pulled-back endpoint gap added to the velocity per shot.
_SHOOTING_STEP = 0.5


def shooting_log(manifold, p, q, initial, *, tol=1e-9, max_iter=200, endpoint_gap=None):
    """Iterative log map: shoot the exponential, pull the endpoint gap back.

    Repeatedly takes one geodesic step from p with velocity v, which yields
    the endpoint and the velocity there, measures the remaining gap to q as
    a tangent vector at the endpoint, parallel transports that gap back
    along the reversed geodesic, and takes a descent step on v.  The step is
    halved whenever the endpoint error increases.

    endpoint_gap(end, q) must return a tangent at end pointing toward q and
    only needs to be first-order accurate; the fixed point is exact.
    """
    if endpoint_gap is None:
        endpoint_gap = lambda end, target: manifold.project_tangent(end, target - end)

    def miss(vec):
        end, moved = manifold.step(p, vec, vec[None])
        gap = endpoint_gap(end, q)
        return end, moved[0], gap, manifold.norm(end, gap)

    v = manifold.project_tangent(p, np.array(initial, dtype=float))
    end, v_end, gap, err = miss(v)
    step = _SHOOTING_STEP
    for _ in range(max_iter):
        if err <= tol:
            return v
        # ride the reversed geodesic to bring the endpoint gap back to p
        pulled = manifold.transport(end, -v_end, gap)
        trial = manifold.project_tangent(p, v + step * pulled)
        t_end, t_v_end, t_gap, t_err = miss(trial)
        if t_err < err:
            v, end, v_end, gap, err = trial, t_end, t_v_end, t_gap, t_err
        else:
            step *= 0.5
            if step < 1e-12:
                break
    if err <= tol:
        return v
    raise ShootingError(
        f"log map did not reach tolerance {tol:g} on {manifold.name}: "
        f"residual {err:.3e}", residual=err,
    )
