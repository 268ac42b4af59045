"""Forward integration of intrinsic polynomial curves of any order.

A curve of order k is driven by k tangent vectors v_1 .. v_k: the velocity is
v_1, each v_i feeds the covariant rate of v_{i-1}, and v_k is covariantly
constant.  It is integrated on a time grid (time_grid) whose nodes include
every time the caller asks about, so no time is ever snapped.  Each step
follows the flat polynomial's exact move over it: the vectors take their
Taylor increment inside the current tangent space, and one geodesic step
along the flat chord moves the base point and carries them by parallel
transport.  The scheme is exact in flat space and second order elsewhere;
the densest spacing is the accuracy knob.  The whole pass is one
Manifold.integrate call: by default one Manifold.step per node, which flat
space runs, on SO(3) the same steps in the algebra with the rotations
composed once, and on the sphere and planar shape space, where every step
is a rotation, one batched closed form (geometry.roll): in
the frame that moves with the curve the vectors form a flat polynomial, and
the curve is that polynomial rolled onto the manifold (Jupp & Kent 1987,
"Fitting smooth paths to spherical data").

The k vectors travel as one (k, *tangent_shape) array in PolynomialState.  A
Trajectory keeps the nodes' times and points and the pass's flow record,
exactly what the geometry's own reverse reads: every node's vectors and
every step's matrix from the step loop, in flat space, on SO(3) and on
shape space of d >= 3, the set-up from the roll, and nothing at order
zero, the constant curve, which takes no reverse pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Manifold


def time_grid(duration: float, steps: int, at=()) -> np.ndarray:
    """Nodes on [0, duration] that include every time of at, bit for bit.

    The knots are 0, duration and the times of at.  Each gap between knots
    is split evenly into ceil(gap * steps / duration) steps, at least one,
    so no step is longer than duration / steps; the ratio is rounded to 9
    decimals first, so that a gap of a whole number of steps is not split
    once more for rounding.  duration = 0 gives the single node 0.
    """
    knots = np.unique(np.concatenate([[0.0, duration], np.asarray(at, dtype=float)]))
    if steps < 1 or not (knots[0] >= 0.0 and knots[-1] <= duration):
        raise ValueError(f"need steps >= 1, duration >= 0 and times in [0, {duration}]")
    gaps = np.diff(knots)
    counts = np.maximum(np.ceil(np.round(gaps * steps / duration, 9)), 1).astype(int)
    gap = np.repeat(np.arange(len(gaps)), counts)           # each node's gap
    offset = np.arange(len(gap)) - (np.cumsum(counts) - counts)[gap]
    return np.append(knots[gap] + offset * (gaps / counts)[gap], knots[-1])


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
        """Drift of the base point ("point") and of each vector ("v1" .. "vk")."""
        out = {"point": float(manifold.point_residual(self.gamma))}
        if self.order:
            rows = manifold.tangent_residual(self.gamma, self.vels)
            out.update((f"v{i}", float(r)) for i, r in enumerate(rows, start=1))
        return out


@dataclass(frozen=True)
class Trajectory:
    """Record of an integrated curve on its time grid.

    flow is the record Manifold.integrate returned for the geometry's own
    pullback: from the step loop, which SO(3) runs in its algebra, every
    node's vectors, (n_nodes, order, *tangent_shape), and every step's
    flat_flow matrix; on a rolled pass the roll's set-up, which the
    reverse reads instead of rebuilding.  It is None at order zero only.
    """

    times: np.ndarray            # (n_nodes,), increasing
    points: np.ndarray           # (n_nodes, *point_shape)
    flow: object                 # Manifold.integrate's record, or None

    def __len__(self) -> int:
        return len(self.times)

    def node_index(self, t):
        """Index of the node at a time, or of each time in an array.

        A time that is not a node of the grid, bit for bit, raises ValueError.
        """
        t = np.asarray(t, dtype=float)
        idx = np.minimum(self.times.searchsorted(t), len(self.times) - 1)
        missing = self.times[idx] != t
        if missing.any():
            raise ValueError(f"time {np.atleast_1d(t)[np.atleast_1d(missing)][0]} "
                             "is not a node of the grid")
        return idx if t.ndim else int(idx)


def integrate_polynomial(manifold: Manifold, state: PolynomialState,
                         times) -> Trajectory:
    """Integrate an order-k curve over the nodes times, the state at the first.

    times must be finite and increasing; time_grid builds one that holds
    given times.  A strictly increasing grid between finite ends is finite.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or not len(times) or not (times[1:] > times[:-1]).all()
            or not (-np.inf < times[0] and times[-1] < np.inf)):
        raise ValueError("times must be a non-empty, finite, increasing grid")
    k = state.order
    if k:
        points, flow = manifold.integrate(
            state.gamma, state.vels.reshape((k,) + manifold.tangent_shape), times)
    else:
        # order zero: the constant curve, with nothing to reverse
        points, flow = np.repeat(state.gamma[None], len(times), axis=0), None
    return Trajectory(times=times, points=points, flow=flow)


def sample_curve(traj: Trajectory, times) -> np.ndarray:
    """Curve points at the requested times, for display: each at its nearest node.

    A time midway between two nodes takes the earlier one.  NaN and times
    outside the grid raise ValueError.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    grid = traj.times
    if not np.all((t >= grid[0]) & (t <= grid[-1])):
        raise ValueError(f"times must lie in [{grid[0]}, {grid[-1]}]")
    return traj.points[np.searchsorted((grid[:-1] + grid[1:]) / 2, t)]


def collinearity_diagnostic(manifold: Manifold, state: PolynomialState) -> float:
    """How close the initial vectors are to a common line through v_1.

    Returns the smallest absolute cosine between v_1 and any other nonzero
    v_i, so 1 means a pure time reparametrization of a geodesic image and 0
    means some vector is orthogonal to the velocity.
    """
    if state.order < 2:
        raise ValueError("diagnostic needs at least two vectors (order >= 2)")
    p, (v1, *rest) = state.gamma, state.vels
    n1 = manifold.norm(p, v1)
    if n1 == 0.0:
        raise ValueError("diagnostic undefined for zero initial velocity")
    return min([1.0] + [abs(manifold.inner(p, v, v1)) / (nv * n1) for v in rest
                        if (nv := manifold.norm(p, v)) != 0.0])
