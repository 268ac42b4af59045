"""Forward integration of intrinsic polynomial curves of any order.

A curve of order k is driven by k tangent vectors v_1 .. v_k: the velocity is
v_1, each v_i feeds the covariant rate of v_{i-1}, and v_k is covariantly
constant.  One integrator step increments every vector inside the current
tangent space, parallel transports the results along the small geodesic step,
and moves the base point with the exponential map.  First order by design;
the step count is the accuracy knob.  The whole pass is one
Manifold.integrate call: by default one Manifold.step per node, and on the
sphere and planar shape space, where every step is a rotation, one batched
closed form (geometry.roll): in the frame that moves with the curve the
vectors form a flat polynomial, and the curve is that polynomial rolled onto
the manifold (Jupp & Kent 1987, "Fitting smooth paths to spherical data").

The k vectors travel as one (k, *tangent_shape) array in PolynomialState.  A
Trajectory keeps the nodes' times and points and the pass's flow record,
exactly what the geometry's own reverse reads: every node's vectors from the
step loop, the set-up from the roll, and nothing at order zero, the constant
curve, which takes no reverse pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import IntegrationError, Manifold  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class PolynomialState:
    """Initial (or nodal) data of an order-k curve: base point plus k vectors.

    The vectors are kept as one float array; () is an order-zero state.
    """

    gamma: np.ndarray
    vels: np.ndarray             # (k, *tangent_shape)

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "vels", np.asarray(self.vels, dtype=float))

    @property
    def order(self) -> int:
        return len(self.vels)

    def residuals(self, manifold: Manifold) -> dict:
        """Worst constraint residuals of the base point and every vector."""
        out = dict(manifold.point_residuals(self.gamma))
        for i, v in enumerate(self.vels, start=1):
            for key, val in manifold.tangent_residuals(self.gamma, v).items():
                out[f"v{i}_{key}"] = val
        return out


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid record of an integrated curve.

    flow is the record Manifold.integrate returned for the geometry's own
    pullback: every node's vectors, (n_nodes, order, *tangent_shape), from
    the step loop, and the roll's set-up on a rolled pass, which the reverse
    reads instead of rebuilding.  It is None at order zero only.
    """

    times: np.ndarray            # (n_nodes,)
    points: np.ndarray           # (n_nodes, *point_shape)
    flow: object                 # Manifold.integrate's record, or None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def __len__(self) -> int:
        return len(self.times)

    def node_index(self, t):
        """Nearest grid node of a time, or of each time in an array.

        Exact midpoints resolve to the earlier node.  Times more than half a
        step off the grid (1e-9 off a zero-length one) or NaN raise ValueError.
        """
        t = np.asarray(t, dtype=float)
        if self.dt == 0.0:
            x = np.where(np.abs(t - self.times[0]) <= 1e-9, 0.0, np.nan)
        else:
            x = t / self.dt
        idx = np.ceil(x - 0.5)            # round half down
        outside = ~((idx >= 0) & (idx < len(self.times)))
        if np.any(outside):
            raise ValueError(f"time {t[outside][0]} outside [0, {self.times[-1]}]")
        return idx.astype(int) if t.ndim else int(idx)


def integrate_polynomial(manifold: Manifold, state: PolynomialState,
                         duration: float, steps: int) -> Trajectory:
    """Integrate an order-k curve over [0, duration] with the given step count.

    A failed step raises IntegrationError carrying its index.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    k = state.order
    dt = duration / steps
    if k:
        points, flow = manifold.integrate(
            state.gamma, state.vels.reshape((k,) + manifold.tangent_shape), dt, steps)
    else:
        # order zero: the constant curve, with nothing to reverse
        points, flow = np.repeat(state.gamma[None], steps + 1, axis=0), None
    return Trajectory(times=np.linspace(0.0, duration, steps + 1), points=points,
                      flow=flow)


def sample_curve(traj: Trajectory, times) -> np.ndarray:
    """Curve points at the requested times, snapped to the nearest grid node."""
    return traj.points[traj.node_index(np.atleast_1d(times))]


def collinearity_diagnostic(manifold: Manifold, state: PolynomialState) -> float:
    """How close the initial vectors are to a common line through v_1.

    Returns the smallest absolute cosine between v_1 and any other nonzero
    v_i, so 1 means a pure time reparametrization of a geodesic image and 0
    means some vector is orthogonal to the velocity.
    """
    if state.order < 2:
        raise ValueError("diagnostic needs at least two vectors (order >= 2)")
    p = state.gamma
    v1 = state.vels[0]
    n1 = manifold.norm(p, v1)
    if n1 == 0.0:
        raise ValueError("diagnostic undefined for zero initial velocity")
    score = 1.0
    for v in state.vels[1:]:
        nv = manifold.norm(p, v)
        if nv == 0.0:
            continue
        cosine = abs(manifold.inner(p, v, v1)) / (nv * n1)
        score = min(score, cosine)
    return score
