"""Shape space of labelled landmark configurations modulo similarity.

A configuration of m landmarks in R^d is standardized by removing translation
(centroid to the origin) and scale (unit Frobenius norm), which places it on
the unit sphere of dimension m*d - 1.  Shapes are equivalence classes of
standardized configurations under rotation; we always compute with a sphere
representative and keep tangent vectors horizontal, i.e. orthogonal to the
rotation orbits.

Shapes inherit their geometry through a Riemannian submersion from the
preshape sphere, and horizontal geodesics of a submersion are great circles.
So one step, for every d, moves along the great circle of the horizontal
part of the velocity, and the log map is the horizontal sphere log toward
the Procrustes-aligned target.  Planar shapes (d = 2) form complex
projective space (Kendall 1984, "Shape manifolds, Procrustean metrics, and
complex projective spaces"; Dryden & Mardia, "Statistical Shape Analysis",
ch. 4), and compute in that form: with the landmarks read as a complex
m-vector (_complex), the complex structure J, which turns every landmark by
90 degrees, is multiplication by i and parallel, so the step is the
sphere's own great-circle step on the complex vectors, a unitary rotation;
a whole forward pass rolls in one batched closed form, whose exact reverse
gives the fit's gradient with no curvature and no D x D matrix; the
Procrustes rotation is one phase, that of w = sum_j conj(p_j) q_j; and the
sphere log toward the target turned by that phase is horizontal as it
stands.  For d >= 3 alignment takes an SVD, and transport has no closed
form; it integrates the horizontal lift's linear ODE along the step's
great circle by RK4, fourth order in a fixed substep (Guigui, Maignant,
Trouve & Pennec 2021, "Parallel transport on Kendall shape spaces").  The
curvature is exact for every d: the horizontal sphere curvature plus
O'Neill's A-tensor terms of the submersion; the d >= 3 gradient, the default
recursion, couples through the curvature.  For d >= 3 the vertical space at
p is {p S : S skew}, and one Sylvester solve, M S + S M = C with M = p^T p,
in the eigenbasis of M, serves the curvature, the transport and the
horizontal projections of step, project_tangent and log_many; for d = 2 the
vertical space is the line of Jp, which project_tangent removes with the
normal rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CutLocusError, Manifold, roll, unroll
from .sphere import Sphere

# eigenvalue sums of M = p^T p below this belong to rotations that (nearly)
# fix a degenerate, e.g. collinear, shape: no vertical direction
_BASIS_DROP = 1e-10
# largest RK4 substep, in radians of the great circle, of the d >= 3 transport
_SUBSTEP = 0.05


@dataclass(frozen=True)
class LandmarkConfig:
    """Standardized landmark configuration with its removed similarity part."""

    points: np.ndarray          # (m, d), centered, unit Frobenius norm
    centroid: np.ndarray        # translation removed from the raw input
    scale: float                # Frobenius norm removed from the raw input

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def flat(self) -> np.ndarray:
        return self.points.reshape(-1)


def to_preshape(raw) -> LandmarkConfig:
    """Center and rescale a raw m x d configuration onto the preshape sphere.

    The centroid is subtracted and the result divided by its Frobenius
    norm, by the same routine that standardizes a whole stack of records
    (bit for bit the same per configuration).
    """
    points, centroids, scales = _preshapes(np.asarray(raw, dtype=float)[None])
    return LandmarkConfig(points=points[0], centroid=centroids[0], scale=float(scales[0]))


def _preshapes(stack):
    """Center and rescale an (n, m, d) stack: (points, centroids, scales).

    A configuration whose landmarks all coincide raises ValueError naming
    its index in the stack.
    """
    if stack.ndim != 3 or stack.shape[1] < 2:
        raise ValueError("expected (m, d) configurations with at least two landmarks")
    if stack.shape[1] * stack.shape[2] < 3:
        raise ValueError("m*d must be at least 3")
    centroids = stack.mean(axis=1)
    centered = stack - centroids[:, None]
    scales = np.sqrt(np.add.reduce(centered * centered, axis=(1, 2)))
    degenerate = scales < 1e-14
    if degenerate.any():
        raise ValueError(f"record {np.argmax(degenerate)} is a degenerate configuration: "
                         "all landmarks coincide")
    return centered / scales[:, None, None], centroids, scales


def _complex(a):
    """A planar flat vector, or a stack of them, with its landmarks read as complex numbers.

    A view of the same memory, copied only when a is not contiguous floats.
    """
    return np.ascontiguousarray(a, dtype=float).view(complex)


def _optimal_rotations(targets, bases):
    """Batched Kabsch rotations R in SO(d), d >= 3, acting on landmark rows
    as x -> R x, that align each (m, d) target onto its base.

    The SVD of B^T T, with a sign on the smallest singular value that
    excludes reflections.
    """
    m = np.swapaxes(bases, -1, -2) @ targets
    u, _, vt = np.linalg.svd(m)
    signs = np.ones(m.shape[:2])
    signs[:, -1] = np.sign(np.linalg.det(u @ vt))
    return (u * signs[:, None]) @ vt


def _align_many(targets, bases):
    """Each (m, d) target rotated onto its base.

    For d = 2, with the landmarks of base and target read as complex numbers
    p_j and q_j, the target turns by minus the phase of w = sum_j conj(p_j)
    q_j: it becomes q conj(w) / |w| (Kendall 1984; Dryden & Mardia, ch. 4).
    Where w = 0 the shapes are maximally remote, every rotation is optimal,
    and the target is returned unchanged.  For d >= 3 it takes the Kabsch
    rotation (_optimal_rotations).
    """
    if targets.shape[-1] != 2:
        return targets @ np.swapaxes(_optimal_rotations(targets, bases), -1, -2)
    q, p = _complex(targets)[..., 0], _complex(bases)[..., 0]
    w = np.add.reduce(p.conj() * q, axis=-1, keepdims=True)
    norm = np.abs(w)
    w, norm = np.where(norm > 0.0, w, 1.0), np.where(norm > 0.0, norm, 1.0)
    return (q * (w.conj() / norm)).view(float).reshape(targets.shape)


def _sylvester_basis(pm):
    """The eigenbasis q of M = pm^T pm and the weights -1/(mu_i + mu_j).

    Batches over leading axes.  Eigenvalue sums below _BASIS_DROP belong to
    rotations that fix a degenerate shape (no vertical direction), so their
    weights are zero.
    """
    mu, q = np.linalg.eigh(np.swapaxes(pm, -1, -2) @ pm)
    sums = mu[..., :, None] + mu[..., None, :]
    return q, np.where(sums > _BASIS_DROP, -1.0 / np.maximum(sums, _BASIS_DROP), 0.0)


def _vertical_skew(q, inv, a, b):
    """The skew S with M S + S M = -(a^T b - b^T a), from _sylvester_basis of M.

    In the eigenbasis of M the equation is diagonal, S'_ij = -C'_ij /
    (mu_i + mu_j).  With a and b tangent at the preshape p, p S is the
    vertical part of the submersion's A-tensor, A_a b (see _oneill); with a
    any vector and b = p, p S is the vertical part of a (see
    KendallShapeSpace._vertical).
    """
    c = np.swapaxes(a, -1, -2) @ b
    qt = np.swapaxes(q, -1, -2)
    return q @ (inv * (qt @ (c - np.swapaxes(c, -1, -2)) @ q)) @ qt


class KendallShapeSpace(Manifold):
    """Shape space of m landmarks in R^d, via preshape-sphere representatives.

    Points are flat vectors of length m*d.  All tangent vectors are kept in
    the horizontal subspace; the similarity group is quotiented out by
    Procrustes alignment wherever two shapes meet (log, dist); the vertical
    part of a vector is along Jp for d = 2 and comes from _vertical's one
    Sylvester solve for d >= 3.  For d = 2 the step, the roll and its
    reverse and the log take the landmarks as complex m-vectors, with
    J x = i x.  Every map is exact but the d >= 3 transport, which is fourth
    order in its RK4 substep of at most _SUBSTEP radians.
    """

    def __init__(self, m: int, d: int):
        if m * d < 3 or m < 2 or d < 2:
            raise ValueError("need m >= 2 landmarks in dimension d >= 2 with m*d >= 3")
        self.m = m
        self.d = d
        self.point_shape = (m * d,)
        self.tangent_shape = (m * d,)
        self.name = f"kendall({m},{d})"
        self._sphere = Sphere(m * d - 1)
        # orthonormal rows spanning the translations of the configuration
        self._centering = np.tile(np.eye(d), (1, m)) / np.sqrt(m)

    # -- shape helpers -------------------------------------------------------

    def _mat(self, flat):
        return np.reshape(flat, np.shape(flat)[:-1] + (self.m, self.d))

    def from_landmarks(self, raw) -> np.ndarray:
        return to_preshape(raw).flat()

    def _normal_rows(self, p):
        """Orthonormal rows spanning the translations and p, and Jp when d = 2.

        They are mutually orthogonal, so one matrix product projects them all
        out; for d = 2, Jp spans the whole vertical space at p.
        """
        if self.d == 2:
            return np.concatenate([self._centering, p[None], (1j * _complex(p)).view(float)[None]])
        return np.concatenate([self._centering, p[None]])

    def _vertical(self, p, x, basis=None):
        """The vertical part of x at p for d >= 3, batched over matching leading axes.

        It is p S, where the skew S solves M S + S M = p^T x - x^T p with
        M = p^T p (_vertical_skew): that S minimizes |x - p S| over skew S,
        so p S is the orthogonal projection of x onto the rotation orbit's
        tangent space {p S}.  basis is _sylvester_basis of M when the caller
        has it.  For d = 2 no caller needs it: the vertical line of Jp is
        one of _normal_rows, and the planar log is horizontal as it is.
        """
        pm = self._mat(p)
        q, inv = _sylvester_basis(pm) if basis is None else basis
        return (pm @ _vertical_skew(q, inv, self._mat(x), pm)).reshape(np.shape(x))

    @staticmethod
    def _project_out(x, rows):
        x = np.asarray(x, dtype=float)
        return x - (x @ rows.T) @ rows

    # -- contract ------------------------------------------------------------

    def step(self, p, v, stack):
        """Horizontal great-circle step from p, carrying a (stacked) field.

        With h the horizontal part of v, theta its norm and u its direction,
        the endpoint is cos(theta) p + sin(theta) u, re-projected: horizontal
        great circles are the shape-space geodesics, so this is exact for
        every d.  For d = 2 the step is the sphere's, on the landmarks read
        as complex m-vectors: J is multiplication by i and parallel, so each
        row's complex coefficient along u turns with the geodesic, and the
        rest of the row stays fixed.  For d >= 3 the stack is carried along
        the same great circle by _lift's RK4.
        """
        p = np.asarray(p, dtype=float)
        stack = np.asarray(stack, dtype=float)
        h = self.project_tangent(p, v)
        theta = math.sqrt(h @ h)
        if theta == 0.0:
            return p, stack.copy()
        if self.d == 2:
            end, moved = self._sphere.step(_complex(p), _complex(h), _complex(stack))
            return self.project_point(end.view(float)), moved.view(float)
        c, s = math.cos(theta), math.sin(theta)
        u = h / theta
        end = c * p + s * u
        end = end - (end @ self._centering.T) @ self._centering
        end = end / math.sqrt((end * end).sum())
        return end, self._lift(p, u, theta, stack)

    def integrate(self, p, stack, times):
        """The forward flow; for d = 2 in one closed form (see geometry.roll).

        Read as a complex m-vector, with J multiplication by i, the planar
        step turns the complex plane {p, u} by theta, so the flow rolls with
        complex turns, kept in real form; the points are re-centered and
        normalized in one project_point call.  The stack is taken as
        horizontal at p, as every fitted state's is.  Returns the points and
        roll's set-up as the flow record, for pullback; no node's vectors
        are formed.
        d >= 3 takes one step per node and records every node's vectors.
        """
        if self.d != 2:
            return super().integrate(p, stack, times)
        points, flow = roll(_complex(p), _complex(stack), times,
                            lambda z: self.project_point(z.view(float)).view(complex))
        return points.view(float), flow

    def _lift(self, p, u, theta, stack):
        """Transport of the stack along cos(t) p + sin(t) u, t in [0, theta], by RK4.

        A parallel field's horizontal lift X along the horizontal great
        circle gamma solves the linear ODE X' = -<gamma', X> gamma +
        gamma S(gamma', X), the sphere's transport plus the A-tensor term
        (_vertical_skew at M = gamma^T gamma; Guigui, Maignant, Trouve &
        Pennec 2021, "Parallel transport on Kendall shape spaces").  Classical
        RK4 with ceil(theta / _SUBSTEP) equal substeps, fourth order in the
        substep, with one batched d x d eigh over every distinct stage time.
        Any d; the step takes it for d >= 3.  An empty stack does no work.
        """
        if stack.size == 0:
            return stack.copy()
        # every distinct stage time, half a substep apart
        t, half = np.linspace(0.0, theta, 2 * math.ceil(theta / _SUBSTEP) + 1, retstep=True)
        gammas = self._mat(np.cos(t)[:, None] * p + np.sin(t)[:, None] * u)
        speeds = self._mat(np.cos(t)[:, None] * u - np.sin(t)[:, None] * p)
        q, inv = _sylvester_basis(gammas)

        def rate(i, x):
            along = np.add.reduce(x * speeds[i], axis=(-2, -1))[:, None, None]
            return gammas[i] @ _vertical_skew(q[i], inv[i], speeds[i], x) - along * gammas[i]

        x = stack.reshape(-1, self.m, self.d)
        for i in range(0, len(t) - 1, 2):
            k1 = rate(i, x)
            k2 = rate(i + 1, x + half * k1)
            k3 = rate(i + 1, x + half * k2)
            k4 = rate(i + 2, x + 2.0 * half * k3)
            x = x + half / 3.0 * (k1 + 2.0 * (k2 + k3) + k4)
        return x.reshape(stack.shape)

    def curvature(self, p, x, y, z):
        """Curvature R(x, y)z of shape space for horizontal x, y, z at p.

        O'Neill's formula for the Riemannian submersion from the preshape
        sphere: R(X,Y)Z = H[R~(X,Y)Z + 2 A_Z A_X Y - A_X A_Y Z - A_Y A_Z X],
        with R~ the sphere curvature, H the horizontal projection and A the
        submersion's A-tensor (see _oneill), for every d.  For d = 2 (complex
        projective space) the A-terms close to <JY,Z>JX - <JX,Z>JY +
        2<X,JY>JZ, and the sectional curvature of orthonormal X, Y is
        1 + 3<JX,Y>^2, in [1, 4].  For d >= 3 the sectional curvature is at
        least 1, and the fit's gradient couples through it; on d = 2 the
        gradient reverses the roll and takes none.  Batches over leading
        axes.  One Sylvester basis at p serves the A-terms and H.
        """
        p = np.asarray(p, dtype=float)
        x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
        basis = _sylvester_basis(self._mat(p))
        return self.project_tangent(
            p, self._sphere.curvature(p, x, y, z) + self._oneill(basis, x, y, z), basis
        )

    def pullback(self, traj, nodes, cotangents):
        """For d = 2, the exact reverse of the rolled flow in complex form.

        geometry.unroll of integrate's flow record, roll's set-up, on the
        landmarks read as complex m-vectors.  d >= 3 keeps the default
        recursion, first order in the spacing, which reads every node's
        vectors from the step loop's record and carries the multipliers
        themselves node by node with the RK4 transport (see Manifold).
        Order k >= 1.
        """
        if self.d != 2:
            return super().pullback(traj, nodes, cotangents)
        return unroll(_complex(traj.points[0]), traj.flow, nodes,
                      _complex(cotangents)).view(float)

    def _oneill(self, basis, x, y, z):
        """The A-terms of curvature, 2 Z S(X,Y) - X S(Y,Z) - Y S(Z,X), any d.

        With p and tangents as m x d matrices, the vertical vectors at p are
        p S for skew S, and A_X Y = p S(X,Y), where S solves the Sylvester
        equation M S + S M = -(X^T Y - Y^T X) with M = p^T p (_vertical_skew);
        then A_Z (p S) = H(Z S).  basis is _sylvester_basis of M.
        """
        q, inv = basis
        xm, ym, zm = self._mat(x), self._mat(y), self._mat(z)
        terms = (2.0 * zm @ _vertical_skew(q, inv, xm, ym)
                 - xm @ _vertical_skew(q, inv, ym, zm) - ym @ _vertical_skew(q, inv, zm, xm))
        return terms.reshape(np.broadcast_shapes(x.shape, y.shape, z.shape))

    def project_point(self, p):
        flat = self._project_out(p, self._centering)
        return flat / np.sqrt(np.add.reduce(flat * flat, axis=-1, keepdims=True))

    def project_tangent(self, p, x, basis=None):
        """Remove centering, sphere-normal and vertical components of x.

        Accepts stacked x with a single base point p; basis is
        _sylvester_basis at p when the caller has it (see _vertical).
        """
        p = np.asarray(p, dtype=float)
        h = self._project_out(x, self._normal_rows(p))
        return h if self.d == 2 else h - self._vertical(p, h, basis)

    def log_many(self, points, targets):
        """Exact quotient log via alignment, batched over matching rows.

        Aligning the target to the base point makes the connecting sphere
        geodesic horizontal, so the horizontal projection of the sphere log
        is the shape-space log.  For d = 2, with z and q the landmarks read
        as complex m-vectors and w = sum_j conj(z_j) q_j, the aligned target
        q conj(w) / |w| is formed in place, with no alignment helper; its
        real inner product with z is c = |w|, and the sphere log toward it,
        along u = aligned - c z, needs no vertical correction: <u, iz> =
        Im(sum_j conj(z_j) u_j) = Im(c - c |z|^2) = 0.
        """
        points = np.asarray(points, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if self.d == 2:
            z, q = _complex(points), _complex(targets)
            w = np.add.reduce(z.conj() * q, axis=-1, keepdims=True)
            c = np.abs(w)
        else:
            aligned = _align_many(self._mat(targets), self._mat(points)).reshape(targets.shape)
            c = np.add.reduce(points * aligned, axis=-1)
        if (c <= 1e-12).any():
            raise CutLocusError("shapes are (nearly) maximally remote")
        if self.d == 2:
            return self._sphere.log_many(points, (q * (w.conj() / c)).view(float))
        logs = self._sphere.log_many(points, aligned)
        return logs - self._vertical(points, logs)
