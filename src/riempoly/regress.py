"""Parameter estimation for intrinsic polynomial regression.

The squared-distance objective is differentiated with an adjoint system
integrated backward along the fitted curve: multiplier vectors start at zero
at the final time, pick up a jump from every observation they pass, couple to
the state through the curvature operator, and arrive at t = 0 carrying the
negative gradients with respect to the initial conditions.  A descent loop
with a monotone backtracking line search updates the base point through the
exponential map and the vectors through parallel transport.

Descent is preconditioned with the normal-equation metric of the time
design.  With phi_i(n) = dt^i C(n, i), the falling-factorial basis of the
discrete integrator, and n_j the node of observation j, the objective in
flat space is a quadratic with Hessian G (x) I, G = (2/N) sum_j phi(n_j)
phi(n_j)^T.  Every iteration moves along -P g, with P = G^-1 acting on the
stack axis of the gradient, so the first (unit) step is exact in flat space
and the badly scaled t^i/i! blocks are balanced on a curved one.  Later step
lengths are Barzilai-Borwein steps measured in the same metric.  When the
design has fewer distinct nodes than k+1, G is singular and P keeps the
identity on its null space.  The stopping test stays on the unpreconditioned
metric norm of the gradient.

Observation times are snapped to the nearest trajectory node once, up front;
the time axis is affinely rescaled to [0, 1] internally and every reported
quantity carries the mapping back to original units.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import GeometryError, Manifold
from .polyflow import (
    PolynomialState,
    Trajectory,
    collinearity_diagnostic,
    integrate_polynomial,
)

_MAX_ORDER = 6          # guard against runaway stiffness
_MIN_LINE_STEP = 1e-14
_SHRINK = 0.5           # backtracking factor of the line search
_DRIFT_TOL = 1e-6       # largest constraint residual of accepted parameters


class ZeroVarianceError(ValueError):
    """All observations coincide; the determination coefficient is undefined."""


@dataclass(frozen=True)
class TimedDataset:
    """Observations (t_i, y_i) on a manifold, sorted by time."""

    manifold: Manifold
    times: np.ndarray            # (n,)
    points: np.ndarray           # (n, *point_shape)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("need at least one observation")
        if points.shape != (len(times),) + self.manifold.point_shape:
            raise ValueError("points do not match the manifold point shape")
        order = np.argsort(times, kind="stable")
        object.__setattr__(self, "times", times[order])
        object.__setattr__(self, "points", points[order])

    @property
    def size(self) -> int:
        return len(self.times)

    def rescaled(self) -> tuple["TimedDataset", float, float]:
        """Copy with times mapped affinely onto [0, 1]; returns (data, t0, scale)."""
        t0 = float(self.times[0])
        span = float(self.times[-1] - self.times[0])
        if span <= 0.0:
            return (TimedDataset(self.manifold, np.zeros_like(self.times), self.points),
                    t0, 1.0)
        times = (self.times - t0) / span
        return TimedDataset(self.manifold, times, self.points), t0, span


@dataclass(frozen=True)
class FitConfig:
    """One regression run: curve order, integration grid and stopping rule.

    The descent itself has no knobs: it is preconditioned Barzilai-Borwein
    with a unit first step and halving backtracking.
    """

    order: int
    steps: int = 100              # trajectory nodes per unit of internal time
    max_iters: int = 2000
    tol: float = 1e-6             # on the metric norm of the stacked gradient

    def __post_init__(self):
        if not (0 <= self.order <= _MAX_ORDER):
            raise ValueError(f"order must be between 0 and {_MAX_ORDER}")
        if min(self.steps, self.max_iters) < 1 or self.tol <= 0:
            raise ValueError("steps, max_iters and tol must be positive")


@dataclass(frozen=True)
class AdjointGradients:
    """Gradients of the objective at t = 0: base point and one per vector."""

    base: np.ndarray
    vels: tuple

    def stacked(self):
        return (self.base,) + tuple(self.vels)


@dataclass
class FitResult:
    """Estimated initial conditions with fit statistics and the descent trace."""

    manifold_name: str
    params: PolynomialState              # internal time units on [0, 1]
    params_original: PolynomialState     # velocities per original time unit
    trajectory: Trajectory               # params integrated over [0, 1]; gives sse
    sse: float
    frechet_variance: float
    r_squared: float
    iterations: int
    converged: bool
    grad_norm: float
    stop_reason: str                     # "tolerance" | "line_search" | "max_iters"
    objective_trace: list = field(default_factory=list)
    collinearity: float = None
    time_offset: float = 0.0
    time_scale: float = 1.0


def objective_sse(manifold: Manifold, traj: Trajectory, data: TimedDataset) -> float:
    """Mean squared geodesic distance from the curve to the observations."""
    return _sse_at_nodes(manifold, traj, _snap_nodes(traj, data), data.points)


def _sse_at_nodes(manifold, traj, nodes, points) -> float:
    try:
        dists = manifold.dist_many(traj.points[nodes], points)
    except GeometryError as exc:
        raise GeometryError(f"objective failed on an observation: {exc}") from exc
    return float(np.mean(np.square(dists)))


def _snap_nodes(traj: Trajectory, data: TimedDataset) -> np.ndarray:
    return np.array([traj.node_index(float(t)) for t in data.times], dtype=int)


def integrate_adjoint(manifold: Manifold, traj: Trajectory,
                      data: TimedDataset) -> AdjointGradients:
    """Backward pass along a stored trajectory.

    The observation jumps (2/N) log_{gamma(n_j)} y_j come from one batched
    log_many call over all observations at their snapped nodes, summed per
    node.  The pass then walks the trajectory from its final node to the
    first.  At each node the order-zero multiplier absorbs the curvature
    coupling and, at an observed node, its jump; every multiplier is
    incremented by its predecessor and the whole stack is transported one
    node backward.  Returns the negated multipliers, i.e. the gradients.
    """
    k = traj.order
    n_steps = len(traj) - 1
    dt = traj.dt

    nodes = _snap_nodes(traj, data)
    observed = set(nodes.tolist())
    jumps = np.zeros((len(traj),) + manifold.tangent_shape)
    np.add.at(jumps, nodes, manifold.log_many(traj.points[nodes], data.points))
    jumps *= 2.0 / data.size

    lam = np.zeros((k + 1,) + manifold.tangent_shape)
    for n in range(n_steps, 0, -1):
        gamma = traj.points[n]
        vels = traj.vels[n]
        if k:
            w = vels[0]
            lam[0] += dt * np.sum(
                manifold.curvature(gamma, vels, lam[1:], vels[0]), axis=0
            )
        else:
            w = np.zeros(manifold.tangent_shape)
        if n in observed:
            lam[0] += jumps[n]
        back = -dt * w
        incremented = lam.copy()
        incremented[1:] += dt * lam[:-1]
        lam = manifold.transport(gamma, back, incremented)
        lam = np.asarray(
            manifold.project_tangent(traj.points[n - 1], lam), dtype=float
        )
    if 0 in observed:
        lam[0] += jumps[0]
    return AdjointGradients(base=-lam[0], vels=tuple(-lam[1:]))


def frechet_mean(manifold: Manifold, points, tol: float = 1e-9,
                 max_iter: int = 200) -> np.ndarray:
    """Minimizer of the mean squared distance, by gradient fixed-point steps."""
    points = np.asarray(points, dtype=float)
    mean = np.array(points[0], dtype=float)
    step = 1.0
    value = float(np.mean(np.square(manifold.dist_many(
        np.broadcast_to(mean, points.shape), points))))
    for _ in range(max_iter):
        logs = manifold.log_many(np.broadcast_to(mean, points.shape), points)
        grad = logs.mean(axis=0)
        if manifold.norm(mean, grad) <= tol:
            return mean
        while step >= 1e-12:
            candidate = manifold.project_point(manifold.exp(mean, step * grad))
            cand_value = float(np.mean(np.square(manifold.dist_many(
                np.broadcast_to(candidate, points.shape), points))))
            if cand_value <= value:
                mean, value = candidate, cand_value
                step = min(1.0, step * 2.0)
                break
            step *= 0.5
        else:
            break
    logs = manifold.log_many(np.broadcast_to(mean, points.shape), points)
    if manifold.norm(mean, logs.mean(axis=0)) > max(tol, 1e-6):
        raise GeometryError("mean iteration did not converge")
    return mean


def frechet_variance(manifold: Manifold, points, mean=None) -> float:
    points = np.asarray(points, dtype=float)
    if mean is None:
        mean = frechet_mean(manifold, points)
    d = manifold.dist_many(np.broadcast_to(mean, points.shape), points)
    return float(np.mean(np.square(d)))


def r_squared(sse: float, variance: float) -> float:
    """Determination coefficient 1 - SSE/variance."""
    if variance <= 0.0:
        raise ZeroVarianceError(
            "total variance is zero (all observations identical)"
        )
    return 1.0 - sse / variance


def fit_polynomial(manifold: Manifold, data: TimedDataset, config: FitConfig,
                   initial: PolynomialState | None = None) -> FitResult:
    """Estimate initial conditions of an order-k curve by descent.

    Starts from the mean of the data with zero vectors unless an explicit
    initial state (in internal [0, 1] time units) is supplied.  Accepted
    iterations strictly decrease the objective; parameters that drift more
    than 1e-6 off the manifold raise GeometryError.  The result keeps the
    trajectory of the accepted parameters, the one its SSE was measured on.
    """
    k = config.order
    if data.size < k + 1:
        warnings.warn(
            f"only {data.size} observations for order {k}: fit is underdetermined",
            stacklevel=2,
        )
    internal, t0, span = data.rescaled()
    one_time = internal.times[-1] == 0.0
    if one_time and k > 0:
        raise ValueError("all observations share one time; only order 0 is defined")

    steps = 1 if one_time else config.steps
    variance_mean = frechet_mean(manifold, internal.points)
    variance = frechet_variance(manifold, internal.points, mean=variance_mean)

    if initial is not None:
        if initial.order != k:
            raise ValueError("initial state order does not match the configuration")
        state = PolynomialState(
            np.asarray(initial.gamma, dtype=float),
            tuple(np.asarray(v, dtype=float) for v in initial.vels),
        )
    else:
        state = PolynomialState(
            variance_mean, tuple(np.zeros(manifold.tangent_shape) for _ in range(k))
        )

    nodes = None

    def evaluate(s: PolynomialState):
        nonlocal nodes
        traj = integrate_polynomial(manifold, s, 1.0, steps)
        if nodes is None:
            nodes = _snap_nodes(traj, internal)
        return traj, _sse_at_nodes(manifold, traj, nodes, internal.points)

    traj, value = evaluate(state)
    gram, precond = _design_metric(nodes, traj.dt, k)
    trace = [value]
    eta = 1.0
    converged = False
    stop_reason = "max_iters"
    grad_norm = np.inf
    prev_grad = prev_move = None
    iterations = 0

    for iteration in range(config.max_iters):
        grads = integrate_adjoint(manifold, traj, internal)
        grad = np.stack(grads.stacked())            # (k+1, *tangent_shape)
        grad_norm = float(np.sqrt(_stack_inner(manifold, state.gamma, grad, grad)))
        if grad_norm <= config.tol:
            converged = True
            stop_reason = "tolerance"
            break

        if prev_grad is not None:
            eta = _barzilai_borwein(manifold, state.gamma, grad, prev_grad,
                                    prev_move, eta, iteration, gram, precond)
        # P is positive definite, so -P g is always a descent direction
        direction = -_along_stack(precond, grad)
        found = _line_search(manifold, state, direction, eta, value, evaluate)
        if found is None:
            stop_reason = "line_search"
            break
        state_new, traj_new, value_new, eta_used = found
        iterations = iteration + 1
        worst = max(state_new.residuals(manifold).values(), default=0.0)
        if worst > _DRIFT_TOL:
            raise GeometryError(
                f"parameters drifted off the manifold (residual {worst:.3e})"
            )

        move = eta_used * direction[0]
        prev_grad = manifold.project_tangent(
            state_new.gamma, manifold.transport(state.gamma, move, grad)
        )
        prev_move = eta_used * np.asarray(manifold.project_tangent(
            state_new.gamma, manifold.transport(state.gamma, move, direction)
        ))
        state, traj, value = state_new, traj_new, value_new
        trace.append(value)

    sse = value
    if k == 0:
        # the order-zero fit is itself the variance-defining mean
        variance = sse
    r2 = r_squared(sse, variance)

    vels_original = tuple(
        v / span ** i for i, v in enumerate(state.vels, start=1)
    ) if span != 1.0 else state.vels
    collinearity = None
    if k >= 2 and manifold.norm(state.gamma, state.vels[0]) > 0:
        collinearity = collinearity_diagnostic(manifold, state)

    return FitResult(
        manifold_name=manifold.name,
        params=state,
        params_original=PolynomialState(state.gamma, vels_original),
        trajectory=traj,
        sse=sse,
        frechet_variance=variance,
        r_squared=r2,
        iterations=iterations,
        converged=converged,
        grad_norm=grad_norm,
        stop_reason=stop_reason,
        objective_trace=trace,
        collinearity=collinearity,
        time_offset=t0,
        time_scale=span,
    )


def fit_orders(manifold: Manifold, data: TimedDataset, orders, config: FitConfig,
               warm_start: bool = True) -> dict:
    """Fit several orders, optionally seeding each from the previous result.

    Warm starting pads the previous optimum with one zero vector, so the
    objective can only improve with the order.
    """
    results = {}
    previous = None
    for k in sorted(orders):
        cfg = replace(config, order=k)
        initial = None
        if warm_start and previous is not None and previous.params.order < k:
            pad = tuple(
                np.zeros(manifold.tangent_shape)
                for _ in range(k - previous.params.order)
            )
            initial = PolynomialState(previous.params.gamma,
                                      previous.params.vels + pad)
        results[k] = fit_polynomial(manifold, data, cfg, initial=initial)
        previous = results[k]
    return results


def _line_search(manifold, state, direction, eta, value, evaluate):
    """Halve the step from eta until the objective strictly decreases.

    Returns (state, trajectory, objective, step), or None once the step falls
    below _MIN_LINE_STEP or no longer moves the state by a single bit.
    """
    e = eta
    while e >= _MIN_LINE_STEP:
        candidate = _retract_state(manifold, state, direction, e)
        if np.array_equal(candidate.gamma, state.gamma) and all(
            np.array_equal(a, b) for a, b in zip(candidate.vels, state.vels)
        ):
            return None
        traj, val = evaluate(candidate)
        if val < value:
            return candidate, traj, val, e
        e *= _SHRINK
    return None


def _retract_state(manifold, state, direction, eta):
    move = eta * direction[0]
    new_gamma = manifold.project_point(manifold.exp(state.gamma, move))
    if state.order:
        stacked = np.stack([
            v + eta * d for v, d in zip(state.vels, direction[1:])
        ])
        moved = manifold.transport(state.gamma, move, stacked)
        moved = np.asarray(manifold.project_tangent(new_gamma, moved), dtype=float)
        return PolynomialState(new_gamma, tuple(moved))
    return PolynomialState(new_gamma, ())


def _design_metric(nodes, dt, order):
    """Normal-equation metric G of the time design and its preconditioner P.

    G = (2/N) sum_j phi(n_j) phi(n_j)^T with phi_i(n) = dt^i C(n, i).  The
    falling factorials are a polynomial basis, so G has rank min(k+1, number
    of distinct nodes).  P inverts G on its range and is the identity on the
    null space: pinv(G) plus the projector onto ker G.
    """
    nodes = np.asarray(nodes, dtype=float)
    phi = np.ones((order + 1, len(nodes)))
    for i in range(1, order + 1):
        phi[i] = phi[i - 1] * (nodes - (i - 1)) * dt / i
    gram = (2.0 / len(nodes)) * phi @ phi.T
    rank = min(order + 1, len(np.unique(nodes)))
    vals, vecs = np.linalg.eigh(gram)             # ascending
    scale = np.ones(order + 1)
    scale[order + 1 - rank:] = 1.0 / vals[order + 1 - rank:]
    return gram, (vecs * scale) @ vecs.T


def _along_stack(matrix, stack):
    """Apply a (k+1) x (k+1) matrix to the stack axis of (k+1, *tangent)."""
    return np.tensordot(matrix, stack, axes=1)


def _stack_inner(manifold, gamma, a, b) -> float:
    """Metric inner product of two stacks of tangents at gamma."""
    return float(np.sum(manifold.inner(gamma, a, b)))


def _barzilai_borwein(manifold, gamma, grad, prev_grad, prev_move, eta, iteration,
                      gram, precond):
    """Alternating BB steps in the design metric: <s,Gs>/<s,y>, <s,y>/<y,Py>."""
    s = prev_move
    y = np.asarray(grad) - np.asarray(prev_grad)
    sy = _stack_inner(manifold, gamma, s, y)
    if sy <= 0:
        return eta
    if iteration % 2:
        yy = _stack_inner(manifold, gamma, y, _along_stack(precond, y))
        return sy / yy if yy > 0 else eta
    ss = _stack_inner(manifold, gamma, s, _along_stack(gram, s))
    return ss / sy
