"""Rotation group with a left-invariant metric chosen by an SPD matrix.

Tangent vectors are kept left-trivialized: a tangent at a rotation R is the
vector omega in R^3 with Rdot = R @ hat(omega).  The metric is
<x, y> = x^T A y for a fixed symmetric positive-definite A; A = I gives the
bi-invariant case where geodesics are one-parameter subgroups.

Every rate comes from one Levi-Civita connection of left-invariant fields
(``connection``): the geodesic velocity, parallel transport and the
curvature operator.  In the algebra the connection is a fixed bilinear form
and the curvature a fixed trilinear one, so MetricSpec builds both tensors
once per metric and every call is one contraction with one of them.
One flow kernel (``RotationGroup._flow``) carries the velocity and any
stack of transported fields together and serves ``step``, ``integrate``
and the log; no rate depends on the rotation, so only the endpoints are
composed from the substeps' turns.  Under a general metric a chord of at
most ``_MAX_STEP`` takes one midpoint substep, and a longer one classical
Runge-Kutta substeps of at most ``_RK4_STEP``, each turning by a
fourth-order Magnus step.  For A = I the flow is a closed form: the
endpoint is the exact rotation exponential, and transport rotates a field
by rodrigues(-w/2).  A velocity that is not finite raises ValueError.  A
forward pass is the base class's step loop run in the algebra, with every
node's rotation composed from one running product of all the turns, and
keeps the step loop's record.  step is the one-point kernel, which
Manifold's exp and transport apply row by row, and only step takes a polar
factor: a product of exact turns, a node's or a shot's endpoint, is a
rotation to rounding.  Where a stiff metric's flow overflows, that factor
fails, and step raises GeometryError naming the velocity.  The
fit's gradient is the base class's recursion, one curvature per node, with
its node maps built and applied in blocks as batched running products: each
block's transports, as 3x3 matrices, take one flow of the basis.  The log
of each pair, in ``log_many``, is the principal rotation vector; under a
general metric ``geometry.shooting_log``, the lockstep loop that shoots
every pair at once, starts from its inverse through the connection, to
third order up to one radian and to second order beyond, and shoots it onto
the metric's geodesic.  So the flow, ``rotation_log``, ``_compose`` and
``project_point`` all batch over a leading pair axis, and a row's result
does not depend on the rows beside it.  A shot whose frame is singular
leaves its own pair open, with a NaN gap, and the others go on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (CutLocusError, GeometryError, Manifold, _running_products, flat_flow,
                       shooting_log)

# component rolls: cross(x, y)[i] = x[i+1] y[i+2] - x[i+2] y[i+1], indices mod 3
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
# I and hat(e_i) as rows, hat(w) = w @ _HATS, as literals: no import-time numpy calls
_EYE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_HATS = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0],
                  [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)
# rotation_log's entries of a flattened r: r21, r02, r10, then r12, r20, r01,
# then the diagonal
_LOG_ENTRIES = np.array([7, 2, 3, 5, 6, 1, 0, 4, 8])
# longest chord of the general-metric flow, in the norm of the velocity, taken
# as one midpoint substep; a longer one takes Runge-Kutta substeps
_MAX_STEP = 5e-3
# longest Runge-Kutta substep of a longer chord: a sweep of chords up to 1.2
# in metric units erred at most 0.64x the midpoint rule at _MAX_STEP under
# diag(1, 1, 10), where 0.1 erred up to 8.3x and 0.15 up to 67x
_RK4_STEP = 0.05
# largest principal angle, in radians, whose shot starts from the log's cubic
# inverse; beyond it the start stops at the second order.  A bound chosen
# between two measurements, not a measured crossover: in a sweep of 40 pairs
# under diag(1, 1, 10) the cubic start converged on every pair the
# second-order one did up to 0.99 rad, and lost one at 1.97 rad (first gap
# 4.06 against 1.23).  Under diag(1, 2, 3) both starts converged on all of 96
# random pairs up to 2.4 rad.  Under stronger anisotropy most pairs fail
# from either start, and each start converges on a few that the other
# misses: of 542 random pairs up to 1.3 rad under diag(1, 1, 10),
# (1, 1, 30), (1, 10, 100) and (1, 1, 100), the cubic start lost 8 (the
# nearest at 0.17 rad, under diag(1, 1, 100)) and won 9
_CUBIC_START_ANGLE = 1.0
# bytes of the reverse pass's node maps built at once; its peak memory is a few
# times this, whatever the step count
_BLOCK_BYTES = 1 << 13


def hat(x):
    """Skew matrix of x, so that hat(x) @ y == cross(x, y); batches over leading axes."""
    return (np.asarray(x, dtype=float) @ _HATS).reshape(np.shape(x)[:-1] + (3, 3))


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
        object.__setattr__(self, "is_identity",
                           bool(np.abs(a - np.eye(3)).max() < 1e-14))
        # Gamma[i, j] = nabla_{e_i} e_j, the formula of ``connection`` on the
        # basis, kept as (3, 9) rows for one product with a stack of x
        x, y = np.eye(3)[:, None], np.eye(3)
        gamma = 0.5 * (_cross(x, y)
                       + (_cross(x, a) + _cross(y, a[:, None])) @ self.inverse)
        object.__setattr__(self, "christoffel", gamma.reshape(3, 9))
        # R[i, j, l] = R(e_i, e_j) e_l from the nested connection, kept as
        # (3, 27) rows for ``curvature``
        x, y, z = np.eye(3)[:, None, None], np.eye(3)[:, None], np.eye(3)
        riemann = (connection(x, connection(y, z, self), self)
                   - connection(y, connection(x, z, self), self)
                   - connection(_cross(x, y), z, self))
        object.__setattr__(self, "riemann", riemann.reshape(3, 27))

    def inner(self, x, y):
        return np.add.reduce((np.asarray(x) @ self.matrix) * y, axis=-1)


def _cross(x, y):
    """Broadcasting cross(x, y) from components; np.cross costs ~3x as much per call."""
    return x[..., _NEXT] * y[..., _PREV] - x[..., _PREV] * y[..., _NEXT]


def connection(x, y, metric: MetricSpec):
    """Levi-Civita connection of left-invariant fields, in the algebra.

    nabla_x y = (cross(x, y) - ad*_x y - ad*_y x) / 2, with the metric adjoint
    of the bracket ad*_x y = -cross(x, y A) A^-1.  That is a fixed bilinear
    form, nabla_x y = sum_ij x_i y_j Gamma_ij with Gamma_ij = nabla_{e_i} e_j
    (the Euler-Arnold reduction), so MetricSpec builds Gamma once per metric
    and each call is one contraction with it.  Every rate of this module is
    built from it: a geodesic velocity w obeys w' = -nabla_w w, and a field
    x parallel along the geodesic obeys x' = -nabla_w x.  Broadcasts over
    stacked x and y.
    """
    x = np.asarray(x, dtype=float)
    rates = (x @ metric.christoffel).reshape(x.shape[:-1] + (3, 3))
    return (np.asarray(y, dtype=float)[..., None, :] @ rates)[..., 0, :]


def _along(f, metric: MetricSpec):
    """connection(f_0, f_i, metric) for every row f_i of each stack f, f_0 its first.

    One product of the stacked rows with the rates of their own row 0.
    """
    return f @ (f[..., :1, :] @ metric.christoffel).reshape(f.shape[:-2] + (3, 3))


def curvature(x, y, z, metric: MetricSpec):
    """Curvature operator R(x, y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z.

    Left-invariant fields make it a fixed trilinear form in the algebra,
    R(x, y)z = sum_ijl x_i y_j z_l R(e_i, e_j)e_l, so MetricSpec builds that
    tensor once per metric from the connection and each call is one
    contraction with it.  Broadcasts over stacked x, y and z.  For the
    bi-invariant metric this collapses to cross(z, cross(x, y)) / 4.
    """
    x = np.asarray(x, dtype=float)
    rates = (x @ metric.riemann).reshape(x.shape[:-1] + (3, 9))
    rates = np.asarray(y, dtype=float)[..., None, :] @ rates
    rates = rates.reshape(rates.shape[:-2] + (3, 3))
    return (np.asarray(z, dtype=float)[..., None, :] @ rates)[..., 0, :]


def rodrigues(w):
    """Exact 3x3 rotation exponential of hat(w); batches over leading axes of w."""
    k = hat(w)
    theta2 = np.add.reduce(np.square(w), axis=-1)[..., None, None]
    small = theta2 < 1e-12                      # angles below 1e-6
    safe2 = np.where(small, 1.0, theta2)
    theta = np.sqrt(safe2)
    s, c = np.sin(theta) / theta, (1.0 - np.cos(theta)) / safe2
    if small.any():
        # the series keeps full precision where sin/theta would cancel
        t2 = theta2[small]
        s[small] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        c[small] = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    return _EYE + s * k + c * (k @ k)


def rotation_log(r):
    """Principal rotation vector w with rodrigues(w) == r; batches over leading axes.

    The skew part and the trace come from one gather of r's nine entries.
    """
    r = np.asarray(r, dtype=float)
    entries = r.reshape(r.shape[:-2] + (9,))[..., _LOG_ENTRIES]
    # the gather comes out column-major; the logs leave row-major, as products
    # of them downstream (the fit's phi @ logs) round by layout
    skew = np.subtract(entries[..., :3], entries[..., 3:6], order="C")
    # |skew| = 2 sin(theta) and tr r - 1 = 2 cos(theta): arctan2 keeps the
    # angle accurate near a half turn, where arccos of the trace loses half
    # its digits
    twice_sin = np.sqrt(np.add.reduce(skew * skew, axis=-1))
    theta = np.arctan2(twice_sin, np.add.reduce(entries[..., 6:], axis=-1) - 1.0)
    small = theta < 1e-6                        # the series: theta / sin would cancel
    flat = theta > np.pi - 1e-6                 # the axis: skew has lost its digits
    scale = np.where(small, 0.5 + theta * theta / 12.0,
                     theta / np.where(small | flat, 1.0, twice_sin))
    w = scale[..., None] * skew
    if flat.any():
        # axis from the dominant column of (r + I)/2; sign from the skew part
        b = (r[flat] + _EYE) / 2.0
        diag = np.diagonal(b, axis1=-2, axis2=-1)
        rows, i = np.arange(len(b)), np.argmax(diag, axis=-1)
        axis = b[rows, :, i] / np.sqrt(np.maximum(diag[rows, i], 1e-300))[:, None]
        sign = np.where(np.add.reduce(axis * skew[flat], axis=-1) < 0, -1.0, 1.0)
        w[flat] = (sign * theta[flat])[:, None] * axis
    return w


def _compose(p, turns):
    """p times the exact rotation of each turn in order; batches over p's leading axes.

    turns stacks the turns along its first axis, each of p's shape less one
    axis: row b of every turn acts on p[b].  The rotations of all the turns
    come from one batched rodrigues, and a zero turn is I bit for bit, so a
    row that takes fewer turns than the others holds still.  Left
    unprojected: the product of exact turns is a rotation to within
    rounding: step takes its polar factor, and the shots read it as it is.
    """
    p = np.asarray(p, dtype=float)
    return functools.reduce(np.matmul, rodrigues(np.reshape(turns, (-1,) + p.shape[:-1])), p)


def _framed(v):
    """The flow's one array for v and the basis: each velocity of v as row 0, then I.

    One flow of it carries e_1..e_3 along v, so its fields are the rows of
    the transport's matrix.
    """
    f = np.empty(v.shape[:-1] + (4, 3))
    f[..., 0, :] = v
    f[..., 1:, :] = _EYE
    return f


class RotationGroup(Manifold):
    """SO(3) under a left-invariant metric; see the module docstring."""

    def __init__(self, metric: MetricSpec | None = None):
        self.metric = metric if metric is not None else MetricSpec(np.eye(3))
        self.point_shape = (3, 3)
        self.tangent_shape = (3,)
        self.name = "so3" if self.metric.is_identity else "so3(A)"

    def _flow(self, f):
        """Every row of f carried along the geodesic of its row 0: the one flow kernel.

        f is (..., rows, 3): row 0 of each stack is a velocity w and the
        rows after it the fields that ride along it, all obeying
        f' = -nabla_w f (the velocity is parallel along its own geodesic).
        Returns the carried fields, f's rows after row 0, and the turns the
        endpoint composes: none when every velocity is zero.  Every chord
        |w| is read once, as a Python float: their sum is the all-zero test,
        and one that is not finite raises ValueError before either metric's
        branch.  For A = I, where w is constant and a field obeys
        x' = -cross(w, x)/2, the one turn is w itself and a field turns by
        rodrigues(-w/2).  Under a general metric each row picks its scheme
        from its own chord |w|: up to _MAX_STEP one midpoint substep
        (``_midpoint``), beyond it ceil(|w| / _RK4_STEP) classical
        Runge-Kutta substeps (``_rk4``).  A batch that mixes the two runs
        each on its own rows, and a row that has taken its turns holds
        still, its later turns zero.  No rate reads the rotation, so the
        flow never forms it: ``_compose``, or integrate's running product,
        builds the rotations from the turns.
        """
        w = f[..., 0, :]
        # chords as Python numbers, so that a one-velocity call costs what
        # scalar bookkeeping does; their sum is zero only when every one is
        speeds = [math.sqrt(a * a + b * b + c * c) for a, b, c in w.reshape(-1, 3).tolist()]
        total = sum(speeds)
        if not math.isfinite(total):
            row = next(i for i, s in enumerate(speeds) if not math.isfinite(s))
            raise ValueError(f"velocity is not finite: row {row} has chord length {speeds[row]}")
        if not total:
            return f[..., 1:, :].copy(), []
        if self.metric.is_identity:
            return f[..., 1:, :] @ np.swapaxes(rodrigues(-0.5 * w), -1, -2), [w]
        near = [s <= _MAX_STEP for s in speeds]
        if all(near):
            return self._midpoint(f)
        counts = [math.ceil(s / _RK4_STEP) for s in speeds if s > _MAX_STEP]
        if not any(near):
            return self._rk4(f, counts)
        # a mixed batch: each scheme on its own rows, their turns put in place
        rows = f.reshape((-1,) + f.shape[-2:])
        near = np.array(near)
        fields = np.empty(rows[:, 1:].shape)
        (fields[near], (mid,)), (fields[~near], far) = (self._midpoint(rows[near]),
                                                        self._rk4(rows[~near], counts))
        turns = np.zeros((len(far),) + rows[:, 0].shape)
        turns[0, near], turns[:, ~near] = mid, far
        return (fields.reshape(f.shape[:-2] + fields.shape[1:]),
                list(turns.reshape((len(far),) + w.shape)))

    def _midpoint(self, f):
        """One midpoint substep over the whole chord: the carried fields and its one turn."""
        mid = f - 0.5 * _along(f, self.metric)
        return (f - _along(mid, self.metric))[..., 1:, :], [mid[..., 0, :]]

    def _rk4(self, f, counts):
        """Classical Runge-Kutta in counts[b] equal substeps for the stack of row b.

        Each substep's turn is the fourth-order Magnus step h/6 (w_0 + 4
        w_1/2 + w_1) + h^2/12 cross(w_0, w_1) of R' = R hat(w), with w_1/2
        from the scheme's third-order dense output at the half step (weights
        5/24, 1/6, 1/6, -1/24).  A row that has taken its substeps takes
        h = 0 after them: its fields hold still and its turns are zero.
        """
        most = max(counts)
        if min(counts) == most:                 # a count every row shares keeps h a float
            h, ends = 1.0 / most, ()
        else:
            n = np.reshape(counts, f.shape[:-2] + (1, 1))
            h, ends = 1.0 / n, set(counts)
        turns = []
        for i in range(most):
            if i in ends:                       # rows that are done hold still
                h = np.where(n > i, h, 0.0)
            k1 = _along(f, self.metric)
            k2 = _along(f - 0.5 * h * k1, self.metric)
            k3 = _along(f - 0.5 * h * k2, self.metric)
            k4 = _along(f - h * k3, self.metric)
            w0 = f[..., :1, :]
            half = w0 - h * (5.0 / 24.0 * k1 + (k2 + k3) / 6.0 - k4 / 24.0)[..., :1, :]
            f = f - h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            w1 = f[..., :1, :]
            turns.append((h / 6.0 * (w0 + 4.0 * half + w1)
                          + h * h / 12.0 * _cross(w0, w1))[..., 0, :])
        return f[..., 1:, :], turns

    def step(self, p, v, stack):
        """Endpoint and transported stack: one point p, one velocity v, the fields of stack.

        The velocity and the fields take one flow, and the endpoint is the
        polar factor of p times the flow's turns.  Where the flow has
        overflowed, as an RK4 substep too long for a stiff metric lets it,
        that factor fails, and GeometryError names the velocity.  Batches
        take the base class's exp and transport, one step per row.
        """
        moved, turns = self._flow(np.concatenate([v[None], np.reshape(stack, (-1, 3))]))
        try:
            end = self.project_point(_compose(p, turns)) if turns else p
        except np.linalg.LinAlgError:
            raise GeometryError(f"{self.name} flow overflowed at velocity {v.tolist()}") from None
        return end, moved.reshape(np.shape(stack))

    def integrate(self, p, stack, times):
        """The step loop's flow in the algebra, where no rate reads the rotation.

        Every step is one ``_flow`` of its flat_flow matrix times the
        vectors, whose row 0 is the chord: the kernel step runs, with no
        dispatch around it.  It forms no rotation: the turns of all the
        steps take one batched rodrigues and one running product, and each
        node is p times the product of the turns up to it, with no polar
        factor: a running product of exact turns is a rotation to rounding
        (a few 1e-13 off over 4,000 steps).  A node before the first
        turn is p itself.  The record is the step loop's, bit for bit: the
        vectors of every node and the matrix of every step.
        """
        stack = np.asarray(stack, dtype=float)
        flats = flat_flow(np.diff(times), len(stack))
        vels = np.empty((len(times),) + stack.shape)
        vels[0] = stack
        turns, counts = [], np.zeros(len(times), dtype=int)
        for n, flat in enumerate(flats, start=1):
            vels[n], taken = self._flow(flat @ vels[n - 1])
            turns += taken
            counts[n] = len(turns)
        points = np.repeat(np.asarray(p, dtype=float)[None], len(times), axis=0)
        if turns:
            turned = counts > 0
            prefix = _running_products(rodrigues(np.array(turns)))
            points[turned] = points[0] @ prefix[counts[turned] - 1]
        return points, (vels, flats)

    def pullback(self, traj, nodes, cotangents):
        """The default recursion as batched running products of its node maps.

        The recursion takes the multipliers lam from node n to node n - 1
        by a linear map A_n of the (k + 1) x 3 array (``_node_maps``),
        after adding the cotangent G_n to row 0.  So the gradient is sum_n
        A_1 ... A_n (G_n in row 0), plus G_0.  The maps up to the last
        observed node are built and taken in blocks of at most _BLOCK_BYTES,
        so memory stays flat in the step count: one _running_products per
        block, each product carried on from the blocks before it.
        """
        k = traj.flow[0].shape[1]
        size = 3 * (k + 1)
        block = max(1, _BLOCK_BYTES // (8 * size * size))
        lam, carry = np.zeros((size, 1)), np.eye(size)
        for start in range(0, nodes[-1], block):
            stop = min(start + block, nodes[-1])
            prefix = carry @ _running_products(self._node_maps(traj, start, stop))
            inside = (nodes > start) & (nodes <= stop)
            lam += np.add.reduce(prefix[nodes[inside] - start - 1, :, :3]
                                 @ cotangents[inside][..., None], axis=0)
            carry = prefix[-1]
        lam = lam.reshape(k + 1, 3)
        if nodes[0] == 0:
            lam[0] += cotangents[0]
        return lam

    def _node_maps(self, traj, start, stop):
        """The recursion's maps A_n, start < n <= stop, as 3(k + 1)-square matrices.

        A_n acts on the multipliers flattened row by row: the curvature
        coupling lam[0] += h sum_i R(v_{n,i}, lam[i], v_{n,1}), then
        flats[n - 1]^T on the row axis, then the transport from node n along
        -h v_{n,1} on the vector axis, as a matrix: the block's transports of
        the basis take one batched call.  The coupling is the identity but
        for row 0's blocks, and the row and vector maps each take one
        product on their own axis.
        """
        vels, flats = traj.flow
        count, k = stop - start, vels.shape[1]
        size = 3 * (k + 1)
        times = traj.times[start:stop + 1]
        h = (times[1:] - times[:-1])[:, None, None, None]
        v = vels[start + 1:stop + 1]
        back = self._flow(_framed(-h[:, 0, 0] * v[:, 0]))[0]
        # R(v_i, e_b, v_1)[a] at every node, as [node, i, b, a]
        coupled = curvature(v[:, :, None], _EYE, v[:, :1, None], self.metric)
        maps = np.zeros((count, size, size))
        maps.reshape(count, -1)[:, ::size + 1] = 1.0
        maps[:, :3, 3:] = (h * coupled.transpose(0, 3, 1, 2)).reshape(count, 3, 3 * k)
        rows = np.zeros((count, k + 1, k + 1))
        rows[:, 0, 0] = 1.0
        rows[:, 1:] = flats[start:stop].transpose(0, 2, 1)
        maps = (rows @ maps.reshape(count, k + 1, 3 * size)).reshape(count, k + 1, 3, size)
        return (back.transpose(0, 2, 1)[:, None] @ maps).reshape(count, size, size)

    def log_many(self, points, targets):
        """Each pair's log: the principal rotation vector, shot to the metric's geodesic.

        Under a general metric the geodesic with velocity v ends at the
        principal rotation vector r, and the Magnus expansion inverts to
        v = r + g / 2 + (nabla_g r + nabla_r g + cross(r, g)) / 12 + O(|r|^4)
        with g = nabla_r r (Iserles, Munthe-Kaas, Norsett & Zanna 2000,
        "Lie-group methods").  So a pair with |r| at most
        _CUBIC_START_ANGLE starts its shots there, with a first gap of
        fourth order in |r|; a farther pair starts from r + g / 2, whose gap
        is third order, as the cubic term overshoots under strong
        anisotropy.  A pair whose principal angle is zero starts from zero,
        its first shot's gap is exactly zero, and it leaves the batch then.
        One point against a batch of targets is broadcast for the shots.
        """
        points, targets = np.asarray(points, dtype=float), np.asarray(targets, dtype=float)
        rel = rotation_log(np.swapaxes(points, -1, -2) @ targets)
        angle = np.sqrt(np.add.reduce(rel * rel, axis=-1))
        far = angle > np.pi - 1e-9
        if far.any():
            bad = int(np.argmax(far))
            raise CutLocusError(
                f"log undefined for (nearly) antipodal rotations at batch index {bad}: "
                f"angle {np.ravel(angle)[bad]:.12f} rad"
            )
        if self.metric.is_identity:
            return rel
        g = connection(rel, rel, self.metric)
        third = connection(g, rel, self.metric) + connection(rel, g, self.metric) + _cross(rel, g)
        near = angle[..., None] <= _CUBIC_START_ANGLE
        points = np.broadcast_to(points, targets.shape) if points.ndim == 2 else points
        return self._shoot(points, targets, rel + 0.5 * g + np.where(near, third / 12.0, 0.0))

    def _shoot(self, points, targets, v):
        """The logs under a general metric: geometry.shooting_log's lockstep loop.

        A shot from p with velocity v is one flow of v and the basis
        e_1..e_3 (``_framed``), whose rows E are then the transports of the
        basis.  Its endpoint gap, rotation_log(end^T q), is tangent at the
        end, and the inverse of the shot's own transport pulls it back to p
        as gap E^-1.  The endpoint, only ever read by rotation_log, is the
        product of exact turns, orthogonal to within rounding, so it takes no
        polar factor, as integrate's nodes take none.  A pair leaves the
        batch once the gap's metric norm is at most 1e-10.  A pair whose
        frame is singular, as an overflowed flow's can be, takes a NaN gap,
        so it stays open and the others go on.
        """
        def shot(rows, vel):
            frame, turns = self._flow(_framed(vel))
            end = _compose(points[rows], turns)
            gap = rotation_log(np.swapaxes(end, -1, -2) @ targets[rows])
            try:
                pulled = np.linalg.solve(np.swapaxes(frame, -1, -2), gap[..., None])[..., 0]
            except np.linalg.LinAlgError:       # a singular frame's pair takes a NaN gap
                singular = ~(np.abs(np.linalg.det(frame)) > 0.0)
                frame[singular], gap[singular] = _EYE, np.nan
                pulled = np.linalg.solve(np.swapaxes(frame, -1, -2), gap[..., None])[..., 0]
            return pulled, np.sqrt(self.metric.inner(gap, gap))

        return shooting_log(shot, v, name=self.name, tol=1e-10)

    def curvature(self, p, x, y, z):
        return curvature(x, y, z, self.metric)

    def inner(self, p, x, y):
        val = self.metric.inner(x, y)
        return float(val) if np.ndim(val) == 0 else val

    def project_point(self, p):
        """Nearest rotation (polar factor); batches over leading axes."""
        u, _, vt = np.linalg.svd(np.asarray(p, dtype=float))
        r = u @ vt
        flip = np.linalg.det(r) < 0
        if flip.ndim or flip:                   # a stack takes the fix row by row
            u[..., -1] *= np.where(flip, -1.0, 1.0)[..., None]
            r = u @ vt
        return r

    def project_tangent(self, p, x):
        return np.array(x, dtype=float, copy=True)
