"""Unit n-sphere embedded in R^{n+1}: closed-form geodesic toolkit.

Geodesics are great circles, so every contract operation has an exact
expression; no time stepping is involved anywhere in this module.
"""

from __future__ import annotations

import numpy as np

from .geometry import CutLocusError, Manifold

# Below this angle the closed forms divide by ~0; switch to series branches.
_TINY_ANGLE = 1e-8

# Antipodal guard: log is undefined where p.q <= -1 + this margin.
_ANTIPODAL_MARGIN = 1e-9


class Sphere(Manifold):
    """S^n with the round metric induced from R^{n+1}."""

    tolerance = 1e-10

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        self.dim = dim
        self.point_shape = (dim + 1,)
        self.tangent_shape = (dim + 1,)
        self.name = f"sphere({dim})"

    # -- contract ----------------------------------------------------------

    def exp(self, p, v):
        """Great-circle point cos(|v|) p + sin(|v|) v/|v|, renormalized."""
        theta = np.sqrt(np.dot(v, v))
        if theta == 0.0:
            return np.array(p, dtype=float)
        if theta < _TINY_ANGLE:
            out = p + v
        else:
            out = np.cos(theta) * p + (np.sin(theta) / theta) * v
        return out / np.sqrt(np.dot(out, out))

    def log(self, p, q):
        """Exact log; see log_many."""
        return self.log_many(np.asarray(p)[None], np.asarray(q)[None])[0]

    def dist(self, p, q) -> float:
        return float(self.dist_many(np.asarray(p)[None], np.asarray(q)[None])[0])

    def transport(self, p, direction, x):
        """Parallel transport along exp(p, s*direction).

        The component of x orthogonal to the direction is untouched; the
        parallel component rotates with the geodesic.  Accepts stacked x.
        """
        theta = np.sqrt(np.dot(direction, direction))
        if theta < 1e-14:
            return np.array(x, dtype=float, copy=True)
        u = direction / theta
        a = np.dot(x, u)                      # scalar or (...,) stack
        rotated = np.cos(theta) * u - np.sin(theta) * p
        return x - np.multiply.outer(a, u) + np.multiply.outer(a, rotated)

    def curvature(self, p, x, y, z):
        """R(x, y)z = (y.z) x - (x.z) y; batches over leading axes.

        Sign follows the convention R(X,Y) = [grad_X, grad_Y] - grad_[X,Y],
        under which inner(R(X,Y)Y, X) is the positive sectional curvature and
        the reverse-pass multiplier fields oscillate instead of blowing up.
        """
        xz = np.asarray(np.sum(np.asarray(x) * z, axis=-1))
        yz = np.asarray(np.sum(np.asarray(y) * z, axis=-1))
        return yz[..., None] * x - xz[..., None] * y

    def inner(self, p, x, y):
        if np.ndim(x) == 1 and np.ndim(y) == 1:
            return float(np.dot(x, y))
        return np.sum(np.asarray(x) * y, axis=-1)

    def project_point(self, p):
        return p / np.sqrt(np.dot(p, p))

    def project_tangent(self, p, x):
        a = np.asarray(np.sum(np.asarray(x) * p, axis=-1))
        return x - a[..., None] * p

    def point_residuals(self, p) -> dict:
        return {"unit_norm": abs(float(np.sqrt(np.dot(p, p))) - 1.0)}

    def tangent_residuals(self, p, x) -> dict:
        return {"orthogonal_to_base": abs(float(np.dot(p, x)))}

    def injectivity_radius(self, p) -> float:
        return np.pi

    def random_point(self, rng):
        p = rng.standard_normal(self.dim + 1)
        return p / np.sqrt(np.dot(p, p))

    def random_tangent(self, rng, p):
        v = rng.standard_normal(self.dim + 1)
        v -= np.dot(v, p) * p
        return v

    # -- batched fast paths --------------------------------------------------

    def log_many(self, points, targets):
        points = np.asarray(points, dtype=float)
        targets = np.asarray(targets, dtype=float)
        c = np.sum(points * targets, axis=-1)
        if np.any(c <= -1.0 + _ANTIPODAL_MARGIN):
            bad = int(np.argmin(c))
            raise CutLocusError(
                f"log undefined for (nearly) antipodal points at batch index {bad}: "
                f"p.q = {np.ravel(c)[bad]:.12f}"
            )
        w = targets - c[..., None] * points
        wn = np.sqrt(np.sum(w * w, axis=-1))
        # chord-based angle is uniformly accurate, unlike arccos near 0
        chord = targets - points
        theta = 2.0 * np.arcsin(
            np.minimum(0.5 * np.sqrt(np.sum(chord * chord, axis=-1)), 1.0)
        )
        scale = np.where(wn < _TINY_ANGLE, 1.0, theta / np.where(wn == 0.0, 1.0, wn))
        return scale[..., None] * w

    def dist_many(self, points, targets):
        chord = np.asarray(targets, dtype=float) - np.asarray(points, dtype=float)
        return 2.0 * np.arcsin(
            np.minimum(0.5 * np.sqrt(np.sum(chord * chord, axis=-1)), 1.0)
        )
