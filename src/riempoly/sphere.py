"""Unit n-sphere embedded in R^{n+1}: closed-form geodesic toolkit.

Geodesics are great circles, so every contract operation has an exact
expression; no time stepping is involved anywhere in this module.  One
closed-form step finds the angle once and gives both the endpoint and the
transport; that step is a rotation, so a whole forward pass rolls in one
batched closed form, and the fit's gradient is its exact reverse; the log is
a batched, chord-based closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import CutLocusError, Manifold, roll, unroll

# Below this norm the log's scale theta / |w| divides by ~0 and is taken as 1.
_TINY_ANGLE = 1e-8

# Antipodal guard: log is undefined where p.q <= -1 + this margin.
_ANTIPODAL_MARGIN = 1e-9


class Sphere(Manifold):
    """S^n with the round metric induced from R^{n+1}."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        self.dim = dim
        self.point_shape = (dim + 1,)
        self.tangent_shape = (dim + 1,)
        self.name = f"sphere({dim})"

    # -- contract ----------------------------------------------------------

    def step(self, p, v, stack):
        """Great-circle step from p with velocity v, carrying a (stacked) field.

        With theta = |v| and u = v/theta the endpoint is
        cos(theta) p + sin(theta) u, renormalized.  Transport turns the u
        component of each row into cos(theta) u - sin(theta) p, the parallel
        direction at the endpoint, and leaves the rest of the row untouched.
        p, v and the rows are real, or complex with v and the rows Hermitian
        orthogonal to p: then the norms are Hermitian, a row's u component
        is its complex coefficient sum_j conj(u_j) x_j, and the step is the
        unitary turn of the complex plane {p, u} that planar shape space
        takes (see kendall).
        """
        p, stack = np.asarray(p), np.asarray(stack)
        theta = math.sqrt(np.dot(v.conj(), v).real)
        if theta == 0.0:
            return p, stack.copy()
        c, s = math.cos(theta), math.sin(theta)
        end = c * p + (s / theta) * v
        end = end / math.sqrt(np.dot(end.conj(), end).real)
        if theta < 1e-14:
            return end, stack.copy()
        u = v / theta
        a = np.add.reduce(stack * u.conj(), axis=-1)   # per row, whatever the stack size
        return end, stack + np.multiply.outer(a, c * u - s * p - u)

    def integrate(self, p, stack, times):
        """The forward flow in one closed form: each step turns the plane {p, v}.

        Returns the points and roll's set-up as the flow record, which
        pullback hands to unroll; no node's vectors are formed.
        """
        return roll(np.asarray(p, dtype=float), np.asarray(stack, dtype=float),
                    times, self.project_point)

    def curvature(self, p, x, y, z):
        """R(x, y)z = (y.z) x - (x.z) y; batches over leading axes.

        Sign follows the convention R(X,Y) = [grad_X, grad_Y] - grad_[X,Y],
        under which inner(R(X,Y)Y, X) is the positive sectional curvature and
        the reverse-pass multiplier fields oscillate instead of blowing up.
        """
        xz = np.asarray(np.add.reduce(np.asarray(x) * z, axis=-1))
        yz = np.asarray(np.add.reduce(np.asarray(y) * z, axis=-1))
        return yz[..., None] * x - xz[..., None] * y

    def pullback(self, traj, nodes, cotangents):
        """The exact reverse of the rolled flow (geometry.unroll) from its record."""
        return unroll(traj.points[0], traj.flow, nodes, cotangents)

    def project_point(self, p):
        """p, or each row of a stack, scaled to unit norm."""
        return p / np.sqrt(np.add.reduce(p * p, axis=-1, keepdims=True))

    def project_tangent(self, p, x):
        a = np.asarray(np.add.reduce(np.asarray(x) * p, axis=-1))
        return x - a[..., None] * p

    def log_many(self, points, targets):
        points = np.asarray(points, dtype=float)
        targets = np.asarray(targets, dtype=float)
        c = np.add.reduce(points * targets, axis=-1)
        if (c <= -1.0 + _ANTIPODAL_MARGIN).any():
            bad = int(np.argmin(c))
            raise CutLocusError(
                f"log undefined for (nearly) antipodal points at batch index {bad}: "
                f"p.q = {np.ravel(c)[bad]:.12f}"
            )
        w = targets - c[..., None] * points
        wn = np.sqrt(np.add.reduce(w * w, axis=-1))
        # chord-based angle is uniformly accurate, unlike arccos near 0
        chord = targets - points
        theta = 2.0 * np.arcsin(
            np.minimum(0.5 * np.sqrt(np.add.reduce(chord * chord, axis=-1)), 1.0)
        )
        scale = np.where(wn < _TINY_ANGLE, 1.0, theta / np.where(wn == 0.0, 1.0, wn))
        return scale[..., None] * w
