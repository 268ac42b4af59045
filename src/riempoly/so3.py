"""Rotation group with a left-invariant metric chosen by an SPD matrix.

Tangent vectors are kept left-trivialized: a tangent at a rotation R is the
vector omega in R^3 with Rdot = R @ hat(omega).  The metric is
<x, y> = x^T A y for a fixed symmetric positive-definite A; A = I gives the
bi-invariant case where geodesics are one-parameter subgroups.

Every rate comes from one Levi-Civita connection of left-invariant fields
(``connection``): the geodesic velocity, parallel transport and the
curvature operator.  One midpoint flow (``RotationGroup._flow``) integrates
the velocity and any stack of transported fields together, and serves
``exp`` (under a general metric), ``transport`` and ``step``.  For A = I the
endpoint is the exact rotation exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CutLocusError, Manifold, shooting_log

_SKEW_TOL = 1e-9

# component rolls: cross(x, y)[i] = x[i+1] y[i+2] - x[i+2] y[i+1], indices mod 3
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def hat(x):
    """Skew matrix of x, so that hat(x) @ y == cross(x, y)."""
    a, b, c = x
    return np.array([[0.0, -c, b], [c, 0.0, -a], [-b, a, 0.0]])


def vee(w):
    """Inverse of hat; rejects matrices that are not skew-symmetric."""
    w = np.asarray(w, dtype=float)
    sym = np.abs(w + w.T).max()
    if sym > _SKEW_TOL:
        raise ValueError(f"matrix is not skew-symmetric (residual {sym:.3e})")
    return np.array([w[2, 1], w[0, 2], w[1, 0]])


@dataclass(frozen=True)
class MetricSpec:
    """SPD matrix defining the left-invariant metric (inertia analog)."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.shape != (3, 3):
            raise ValueError("metric matrix must be 3x3")
        if np.abs(a - a.T).max() > 1e-12:
            raise ValueError("metric matrix must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] <= 0:
            raise ValueError("metric matrix must be positive definite")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "inverse", np.linalg.inv(a))
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def is_identity(self) -> bool:
        return bool(np.abs(self.matrix - np.eye(3)).max() < 1e-14)

    def inner(self, x, y):
        return np.sum((np.asarray(x) @ self.matrix) * y, axis=-1)


def _cross(x, y):
    """Broadcasting cross(x, y) from components; np.cross costs ~3x as much per call."""
    return x[..., _NEXT] * y[..., _PREV] - x[..., _PREV] * y[..., _NEXT]


def connection(x, y, metric: MetricSpec):
    """Levi-Civita connection of left-invariant fields, in the algebra.

    nabla_x y = (cross(x, y) - ad*_x y - ad*_y x) / 2, with the metric adjoint
    of the bracket ad*_x y = -cross(x, y A) A^-1.  Every rate of this module
    is built from it: a geodesic velocity w obeys w' = -nabla_w w, and a field
    x parallel along the geodesic obeys x' = -nabla_w x.  Broadcasts over
    stacked x and y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = metric.matrix
    return 0.5 * (_cross(x, y) + (_cross(x, y @ a) + _cross(y, x @ a)) @ metric.inverse)


def curvature(x, y, z, metric: MetricSpec):
    """Curvature operator R(x, y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z.

    Broadcasts over stacked x and y.  For the bi-invariant metric this
    collapses to cross(z, cross(x, y)) / 4.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        connection(x, connection(y, z, metric), metric)
        - connection(y, connection(x, z, metric), metric)
        - connection(_cross(x, y), z, metric)
    )


def rodrigues(w):
    """Exact 3x3 rotation exponential of hat(w)."""
    theta2 = float(np.dot(w, w))
    theta = np.sqrt(theta2)
    k = hat(w)
    if theta < 1e-6:
        # series keeps full precision where sin/theta would cancel
        s = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        c = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        s = np.sin(theta) / theta
        c = (1.0 - np.cos(theta)) / theta2
    return np.eye(3) + s * k + c * (k @ k)


def rotation_log(r):
    """Principal rotation vector w with rodrigues(w) == r."""
    tr = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(tr)
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-6:
        return 0.5 * skew * (1.0 + theta * theta / 6.0)
    if theta > np.pi - 1e-6:
        # axis from the dominant column of (r + I)/2; sign from the skew part
        b = (r + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(b)))
        axis = b[:, i] / np.sqrt(max(b[i, i], 1e-300))
        if np.dot(axis, skew) < 0:
            axis = -axis
        return theta * axis
    return (theta / (2.0 * np.sin(theta))) * skew


def _reorthonormalize(r):
    # one Newton step toward the polar factor; exact for small drift
    return r @ (1.5 * np.eye(3) - 0.5 * (r.T @ r))


class RotationGroup(Manifold):
    """SO(3) under a left-invariant metric; see the module docstring."""

    tolerance = 1e-8

    def __init__(self, metric: MetricSpec | None = None, max_step: float = 5e-3):
        self.metric = metric if metric is not None else MetricSpec(np.eye(3))
        self.max_step = max_step
        self.point_shape = (3, 3)
        self.tangent_shape = (3,)
        self.name = "so3" if self.metric.is_identity else "so3(A)"

    def _substeps(self, speed: float) -> int:
        return max(1, int(np.ceil(speed / self.max_step)))

    def _flow(self, p, v, stack):
        """Midpoint flow along the geodesic from p with velocity v.

        Returns the endpoint and the (stacked) fields of stack transported to
        it.  The velocity is parallel along its own geodesic, so it rides as
        row 0 of the one array f whose rows all obey f' = -nabla_w f.
        """
        w = np.asarray(v, dtype=float)
        stack = np.asarray(stack, dtype=float)
        r = np.array(p, dtype=float)
        speed = float(np.sqrt(np.dot(w, w)))
        if speed == 0.0:
            return r, stack.copy()
        f = np.concatenate([w[None], stack.reshape(-1, 3)])
        n = self._substeps(speed)
        h = 1.0 / n
        for _ in range(n):
            mid = f - 0.5 * h * connection(f[0], f, self.metric)
            r = _reorthonormalize(r @ rodrigues(h * mid[0]))
            f = f - h * connection(mid[0], mid, self.metric)
        return r, f[1:].reshape(stack.shape)

    def exp(self, p, v):
        """Midpoint-integrated geodesic flow; exact when A = I."""
        if not self.metric.is_identity:
            return self._flow(p, v, np.empty((0, 3)))[0]
        w = np.asarray(v, dtype=float)
        if np.dot(w, w) == 0.0:
            return np.array(p, dtype=float)
        return _reorthonormalize(p @ rodrigues(w))

    def log(self, p, q):
        rel = rotation_log(np.asarray(p).T @ q)
        angle = np.sqrt(np.dot(rel, rel))
        if angle > np.pi - 1e-9:
            raise CutLocusError("rotations are (nearly) antipodal")
        if self.metric.is_identity:
            return rel
        return shooting_log(
            self, p, q, rel,
            tol=1e-10, max_iter=200,
            endpoint_gap=lambda end, target: rotation_log(np.asarray(end).T @ target),
        )

    def transport(self, p, direction, x):
        """Transport along exp(p, s*direction); accepts stacked x."""
        return self._flow(p, direction, x)[1]

    def step(self, p, v, stack):
        """Endpoint and transported stack from one flow (exact endpoint when A = I)."""
        if self.metric.is_identity:
            return super().step(p, v, stack)
        end, moved = self._flow(p, v, stack)
        return self.project_point(end), moved

    def curvature(self, p, x, y, z):
        return curvature(x, y, z, self.metric)

    def inner(self, p, x, y):
        val = self.metric.inner(x, y)
        return float(val) if np.ndim(val) == 0 else val

    def project_point(self, p):
        u, _, vt = np.linalg.svd(np.asarray(p, dtype=float))
        r = u @ vt
        if np.linalg.det(r) < 0:
            u = u.copy()
            u[:, -1] = -u[:, -1]
            r = u @ vt
        return r

    def project_tangent(self, p, x):
        return np.array(x, dtype=float, copy=True)

    def point_residuals(self, p) -> dict:
        p = np.asarray(p, dtype=float)
        return {
            "orthogonality": float(np.abs(p.T @ p - np.eye(3)).max()),
            "determinant": abs(float(np.linalg.det(p)) - 1.0),
        }

    def tangent_residuals(self, p, x) -> dict:
        return {}

    def injectivity_radius(self, p) -> float:
        return np.pi * np.sqrt(self.metric.eigenvalues[0])

    def random_point(self, rng):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q

    def random_tangent(self, rng, p):
        return rng.standard_normal(3)
