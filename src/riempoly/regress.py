"""Parameter estimation for intrinsic polynomial regression.

The fit computes one thing per candidate curve: the residual logs
log_{gamma(t_j)} y_j, one batched Manifold.log_many call over the
observations at their own nodes: the fit's time grid, built once per fit
(polyflow.time_grid), holds every observation time as a node.  The
objective is their mean squared metric norm, and the accepted candidate's
logs give the gradient and the reported distances, so no (node,
observation) pair is logged twice.

The objective is differentiated by one Manifold.pullback call: the
gradient of the objective at every observed node, -(2/N) times the logs
observed there, is carried back to the initial conditions over the whole
pass, the reverse of the one Manifold.integrate call of the forward pass.
The data are sorted by time, so each node's logs are one run of rows and
one reduceat sums them.  On the sphere and planar shape space, whose
forward pass rolls, the pullback is the exact reverse of the roll
(geometry.unroll), a cumulative sum rather than a recursion, so the
gradient is that of the discrete objective the descent minimizes; flat
space has its closed form.  Elsewhere it is the default, the continuous
adjoint system discretized backward along the fitted curve, first order in
the spacing: multipliers start at zero at the final time, pick up a jump
from every observation they pass, couple to the state through the
curvature operator, and are carried back by parallel transport, node by
node, arriving at t = 0 carrying the gradients; on SO(3) each node's
transport is a matrix recorded by the forward pass, and the node maps are
applied as batched running products.

A start with zero vectors, as from the mean or padded from order zero, is
the constant curve, flat to first order (Jupp & Kent 1987): its gradient is
the time design times the residual logs, row i the tangent part of -(2/N)
sum_j phi_i(t_j) log_j, and it takes neither a forward nor a reverse pass.

A descent loop with a monotone backtracking line search moves every
candidate with one Manifold.step: the base point along the geodesic, and
the incremented vectors, the gradient and the direction by parallel
transport to the new point.  The gradient and the vectors are single arrays
with the order on the first axis: (k+1, *tangent_shape) and
(k, *tangent_shape).

Descent is preconditioned with the normal-equation metric of the time
design.  With phi_i(t) = t^i / i!, the flat curve's monomial basis, the
objective in flat space is a quadratic with Hessian G (x) I, G = (2/N)
sum_j phi(t_j) phi(t_j)^T over the observation times t_j.  Every
iteration moves along -P g, with P = G^-1 acting on the stack axis of the
gradient, so the first (unit) step is exact in flat space and the badly
scaled t^i/i! blocks are balanced on a curved one.  Later step lengths are
Barzilai-Borwein steps measured in the same metric.  When the design has
fewer distinct times than k+1, G is singular and P keeps the identity on
its null space.  The stopping test stays on the unpreconditioned metric
norm of the gradient.

Each observation's node is found once per fit on its grid, which holds
every observation time bit for bit; the time axis is affinely rescaled to
[0, 1] internally and every reported quantity carries the mapping back to
original units.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import CutLocusError, GeometryError, Manifold, flat_pullback, monomials
from .polyflow import (
    PolynomialState,
    Trajectory,
    collinearity_diagnostic,
    integrate_polynomial,
    time_grid,
)

_MAX_ORDER = 6          # guard against runaway stiffness
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
        finite = np.isfinite(points.reshape(len(times), -1)).all(axis=1)
        finite &= np.isfinite(times)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(
                f"observation {bad} (time {times[bad]}) has a non-finite value"
            )
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
    steps: int = 100              # densest steps per unit of internal time
    max_iters: int = 2000
    tol: float = 1e-6             # on the metric norm of the stacked gradient

    def __post_init__(self):
        if not (0 <= self.order <= _MAX_ORDER):
            raise ValueError(f"order must be between 0 and {_MAX_ORDER}")
        if min(self.steps, self.max_iters) < 1 or self.tol <= 0:
            raise ValueError("steps, max_iters and tol must be positive")


@dataclass
class FitResult:
    """Estimated initial conditions with fit statistics and the descent trace."""

    manifold_name: str
    params: PolynomialState              # internal time units on [0, 1]
    params_original: PolynomialState     # velocities per original time unit
    trajectory: Trajectory               # params integrated over [0, 1]; gives sse
    logs: np.ndarray                     # its residual logs, one row per observation
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
    elapsed_seconds: float = 0.0         # wall time of this fit_polynomial call


def _residuals(manifold: Manifold, bases, targets):
    """Logs from each base row to its target row, and their mean squared norm.

    One batched log_many call.  The mean squared metric norm of the logs is
    the one definition of the objective and of the Frechet variance.
    """
    logs = manifold.log_many(bases, targets)
    squares = manifold.inner(bases, logs, logs)
    return logs, float(np.add.reduce(squares, axis=None) / squares.size)


def _objective(manifold: Manifold, observed, data: TimedDataset):
    """Residual logs from the curve's observed points, a failed log reported as such."""
    try:
        return _residuals(manifold, observed, data.points)
    except GeometryError as exc:
        raise GeometryError(f"objective failed on an observation: {exc}") from exc


def integrate_adjoint(manifold: Manifold, traj: Trajectory,
                      data: TimedDataset, logs) -> np.ndarray:
    """The objective's gradient at traj's initial conditions.

    logs holds the residual logs log_{gamma(t_j)} y_j of traj, one row per
    observation at its node, as the objective computed them, so
    the pass itself takes no log.  The objective's gradient at the point of
    an observed node is -(2/N) times the sum of the logs observed there;
    Manifold.pullback carries those cotangents back to the initial
    conditions.  The data are sorted by time, so each node's logs are one
    run of rows, summed by one reduceat.  At order zero, the one trajectory
    without a flow record, the gradient is the tangent part of the logs'
    sum (_constant_gradient), with no reverse pass.  The fit takes that
    closed form at any start with zero vectors, and this pass for every
    later gradient.  Returns the (k+1, *tangent_shape) gradient: base point
    first, then one row per vector.
    """
    if traj.flow is None:
        return _constant_gradient(manifold, traj.points[0], data.times, logs, 0)
    nodes = traj.node_index(data.times)
    starts = np.concatenate(([True], nodes[1:] != nodes[:-1])).nonzero()[0]  # run starts
    cotangents = np.add.reduceat(logs, starts, axis=0) * (-2.0 / data.size)
    return manifold.pullback(traj, nodes[starts], cotangents)


def _constant_gradient(manifold: Manifold, p, times, logs, order: int) -> np.ndarray:
    """The gradient at the constant curve at p, whose residual logs are logs.

    Row i is the tangent part of -(2/N) sum_j phi_i(t_j) log_j (flat_pullback).
    """
    return manifold.project_tangent(
        p, flat_pullback(monomials(times, order), (-2.0 / len(times)) * logs))


_TIE_ULPS = 4           # variances this close are told apart by the gradient


def _mean_step_accepted(value, grad_norm, cand_value, cand_grad_norm) -> bool:
    """A lower variance wins; within _TIE_ULPS ulps, a lower gradient norm."""
    gap = cand_value - value
    if abs(gap) <= _TIE_ULPS * np.spacing(value):
        return cand_grad_norm < grad_norm
    return gap < 0.0


def _frechet_mean_and_variance(manifold, points, tol=1e-9, max_iter=200):
    """Frechet mean, the mean squared distance to it, and the logs there.

    Every candidate is one log_many call: its logs give the variance that
    scores it and, once accepted, the next gradient, their mean.  Near the
    optimum the variance stops resolving a decrease, so a candidate whose
    variance is within _TIE_ULPS units in the last place of the current one
    is accepted only if it lowers the gradient norm.  A candidate at the cut
    locus of an observation is rejected like one that does not descend.
    The iteration starts at the first observation from which every log is
    defined; if none is, the last one's CutLocusError propagates.  A final
    gradient norm above tol warns; above max(tol, 1e-6) it raises.
    Returns (mean, variance, logs), the logs' rows matching points.
    """
    points = np.asarray(points, dtype=float)

    def evaluate(mean):
        logs, value = _residuals(manifold, mean[None].repeat(len(points), axis=0), points)
        grad = np.add.reduce(logs) / len(logs)
        return mean, logs, value, grad, manifold.norm(mean, grad)

    # the first observation whose logs to all the others are defined
    for start in points[:-1]:
        try:
            current = evaluate(np.array(start, dtype=float))
            break
        except CutLocusError:
            pass
    else:
        current = evaluate(np.array(points[-1], dtype=float))
    step = 1.0
    for _ in range(max_iter):
        mean, _, value, grad, grad_norm = current
        if grad_norm <= tol:
            break
        while step >= 1e-12:
            try:
                candidate = evaluate(manifold.exp(mean, step * grad))
            except CutLocusError:
                candidate = None
            if candidate is not None and _mean_step_accepted(
                    value, grad_norm, candidate[2], candidate[4]):
                current = candidate
                step = min(1.0, step * 2.0)
                break
            step *= 0.5
        else:
            break
    mean, logs, value, _, grad_norm = current
    if grad_norm > max(tol, 1e-6):
        raise GeometryError("mean iteration did not converge")
    if grad_norm > tol:
        warnings.warn(f"Frechet mean stopped at gradient norm {grad_norm:.3g}, "
                      f"above its tol {tol:g}", RuntimeWarning, stacklevel=3)
    return mean, value, logs


def frechet_mean(manifold: Manifold, points, tol: float = 1e-9,
                 max_iter: int = 200) -> np.ndarray:
    """Minimizer of the mean squared distance, by gradient fixed-point steps."""
    return _frechet_mean_and_variance(manifold, points, tol, max_iter)[0]


def r_squared(sse: float, variance: float) -> float:
    """Determination coefficient 1 - SSE/variance."""
    if variance <= 0.0:
        raise ZeroVarianceError(
            "total variance is zero (all observations identical)"
        )
    return 1.0 - sse / variance


def fit_polynomial(manifold: Manifold, data: TimedDataset, config: FitConfig,
                   initial: PolynomialState | None = None, *,
                   _frechet=None, _previous=None) -> FitResult:
    """Estimate initial conditions of an order-k curve by descent.

    Starts from the mean of the data with zero vectors unless an explicit
    initial state (in internal [0, 1] time units) is supplied; the mean's
    logs and variance are then the starting curve's residual logs and
    objective.  A start with zero vectors takes no pass (see the module).
    An initial state more than 1e-6 off the manifold (its point or its
    vectors' tangency) raises ValueError.  Accepted iterations strictly
    decrease the objective; a candidate at the cut locus of an
    observation counts as rejected.  Parameters that drift more than 1e-6
    off the manifold raise GeometryError.  The result keeps the trajectory
    of the accepted parameters, the one its SSE was measured on, and its
    residual logs, so reports take no log of their own.
    ``_frechet`` and ``_previous`` are private to ``fit_orders``: the data's
    Frechet mean, variance and logs, computed once for all orders, and the
    lower order's result that ``initial`` pads.  When the padded curve meets
    the observed nodes at the lower optimum's points bit for bit, that
    result's logs and SSE are the starting logs and objective.
    """
    started = time.perf_counter()
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

    grid = time_grid(1.0, 1 if one_time else config.steps, internal.times)
    if _frechet is None:
        _frechet = _frechet_mean_and_variance(manifold, internal.points)
    variance_mean, variance, mean_logs = _frechet

    shape = (k,) + manifold.tangent_shape
    if initial is None:
        state = PolynomialState(variance_mean, np.zeros(shape))
    elif initial.vels.shape == shape or (k == 0 and initial.vels.size == 0):
        state = PolynomialState(initial.gamma, initial.vels.reshape(shape))
        residuals = state.residuals(manifold)
        worst = max(residuals, key=residuals.get)
        # a NaN point residual comes first and stays the max: it fails too
        if not residuals[worst] <= _DRIFT_TOL:
            raise ValueError(
                f"initial state is off the manifold: {worst} residual "
                f"{residuals[worst]:.3e} exceeds {_DRIFT_TOL:g}"
            )
    else:
        raise ValueError(
            f"initial vectors have shape {initial.vels.shape}; order {k} "
            f"on {manifold.name} needs {shape}"
        )

    # the constant start is its base point at every node and takes no pass;
    # it is integrated for the result only if no step is accepted
    traj = integrate_polynomial(manifold, state, grid) if state.vels.any() else None
    nodes = np.searchsorted(grid, internal.times)       # every time is a node
    observed = (np.broadcast_to(state.gamma, internal.points.shape) if traj is None
                else traj.points[nodes])
    if initial is None:
        # the constant curve at the mean: its residual logs and objective
        # are the mean's logs and variance
        logs, value = mean_logs, variance
    elif (_previous is not None and observed.tobytes()
            == _previous.trajectory.points[nodes].tobytes()):
        logs, value = _previous.logs, _previous.sse
    else:
        logs, value = _objective(manifold, observed, internal)

    def evaluate(s: PolynomialState):
        """Integrate a candidate; its residual logs and objective in one log_many."""
        traj = integrate_polynomial(manifold, s, grid)
        return (traj,) + _residuals(manifold, traj.points[nodes], internal.points)

    gram, precond = _design_metric(internal.times, k)
    trace = [value]
    eta = 1.0
    stop_reason = "max_iters"
    grad_norm = np.inf
    memory = None
    iterations = 0

    for iteration in range(config.max_iters):
        grad = (_constant_gradient(manifold, state.gamma, internal.times, logs, k)
                if traj is None else integrate_adjoint(manifold, traj, internal, logs))
        grad_norm = float(np.sqrt(_stack_inner(manifold, state.gamma, grad, grad)))
        if grad_norm <= config.tol:
            stop_reason = "tolerance"
            break

        if memory is not None:
            eta = _barzilai_borwein(manifold, state.gamma, grad, *memory,
                                    eta, iteration, gram, precond)
        # P is positive definite, so -P g is always a descent direction
        direction = -_along_stack(precond, grad)
        found = _line_search(manifold, state, grad, direction, eta, value,
                             evaluate)
        if found is None:
            stop_reason = "line_search"
            break
        state, traj, logs, value, memory = found
        iterations = iteration + 1
        worst = max(state.residuals(manifold).values())
        if not worst <= _DRIFT_TOL:
            raise GeometryError(
                f"parameters drifted off the manifold (residual {worst:.3e})"
            )
        trace.append(value)

    if traj is None:
        traj = integrate_polynomial(manifold, state, grid)
    if k == 0:
        # the order-zero fit is itself the variance-defining mean
        variance = value

    # scalar powers: numpy's array power can differ from them in the last bit
    powers = np.array([span ** i for i in range(1, k + 1)])
    vels_original = state.vels / powers.reshape((k,) + (1,) * (state.vels.ndim - 1))
    collinearity = None
    if k >= 2 and manifold.norm(state.gamma, state.vels[0]) > 0:
        collinearity = collinearity_diagnostic(manifold, state)

    return FitResult(
        manifold_name=manifold.name,
        params=state,
        params_original=PolynomialState(state.gamma, vels_original),
        trajectory=traj,
        logs=logs,
        sse=value,
        frechet_variance=variance,
        r_squared=r_squared(value, variance),
        iterations=iterations,
        converged=stop_reason == "tolerance",
        grad_norm=grad_norm,
        stop_reason=stop_reason,
        objective_trace=trace,
        collinearity=collinearity,
        time_offset=t0,
        time_scale=span,
        elapsed_seconds=time.perf_counter() - started,
    )


def fit_orders(manifold: Manifold, data: TimedDataset, orders, config: FitConfig) -> dict:
    """Fit several orders, each seeded from the previous result.

    The previous optimum is padded with zero vectors, so the objective can
    only improve with the order; where the padded curve passes the previous
    curve's observed points bit for bit, it starts from the previous logs
    and SSE without a log of its own.  Every order reuses the dataset's one
    Frechet mean and variance; a repeated order is fitted once.
    """
    results = {}
    previous = None
    frechet = _frechet_mean_and_variance(manifold, data.points)
    for k in sorted(set(orders)):
        initial = None
        if previous is not None and previous.params.order < k:
            pad = np.zeros((k - previous.params.order,) + manifold.tangent_shape)
            initial = PolynomialState(previous.params.gamma,
                                      np.concatenate([previous.params.vels, pad]))
        results[k] = fit_polynomial(manifold, data, replace(config, order=k),
                                    initial=initial, _frechet=frechet, _previous=previous)
        previous = results[k]
    return results


def _line_search(manifold, state, grad, direction, eta, value, evaluate):
    """Halve the step from eta until the objective strictly decreases.

    A candidate with step e is one Manifold.step along e * direction[0] that
    carries the rows [vels + e * direction[1:], grad, direction] to the new
    base point.  A candidate at the cut locus of an observation, where its
    residual log is undefined, is rejected like one that does not descend.
    Returns (state, trajectory, logs, objective, memory), where memory
    is the Barzilai-Borwein pair (grad, e * direction) at the accepted point,
    or None once the predicted decrease e <g, P g> falls below the rounding
    unit of the objective, np.spacing(value): a smaller decrease cannot be
    told from rounding.
    """
    k = state.order
    e = eta
    slope = -_stack_inner(manifold, state.gamma, grad, direction)   # <g, P g>
    while e * slope >= np.spacing(value):
        rows = np.concatenate([state.vels + e * direction[1:], grad, direction])
        gamma, moved = manifold.step(state.gamma, e * direction[0], rows)
        moved = np.asarray(manifold.project_tangent(gamma, moved), dtype=float)
        candidate = PolynomialState(gamma, moved[:k])
        try:
            traj, logs, val = evaluate(candidate)
        except CutLocusError:
            val = np.inf                    # rejected: the step shrinks
        if val < value:
            return (candidate, traj, logs, val,
                    (moved[k:2 * k + 1], e * moved[2 * k + 1:]))
        e *= _SHRINK
    return None


def _design_metric(times, order):
    """Normal-equation metric G of the time design and its preconditioner P.

    G = (2/N) sum_j phi(t_j) phi(t_j)^T with phi_i(t) = t^i / i! at the
    observation times, so G has rank min(k+1, number of distinct times).
    P inverts G on its range and is the identity on the null space: pinv(G)
    plus the projector onto ker G.
    """
    phi = monomials(times, order)
    gram = (2.0 / len(times)) * phi @ phi.T
    rank = min(order + 1, len(np.unique(times)))
    vals, vecs = np.linalg.eigh(gram)             # ascending
    scale = np.ones(order + 1)
    scale[order + 1 - rank:] = 1.0 / vals[order + 1 - rank:]
    return gram, (vecs * scale) @ vecs.T


def _along_stack(matrix, stack):
    """Apply a (k+1) x (k+1) matrix to the stack axis of (k+1, *tangent)."""
    return (matrix @ stack.reshape(len(stack), -1)).reshape(stack.shape)


def _stack_inner(manifold, gamma, a, b) -> float:
    """Metric inner product of two stacks of tangents at gamma."""
    return float(np.add.reduce(manifold.inner(gamma, a, b), axis=None))


def _barzilai_borwein(manifold, gamma, grad, prev_grad, prev_move, eta, iteration,
                      gram, precond):
    """Alternating BB steps in the design metric: <s,Gs>/<s,y>, <s,y>/<y,Py>."""
    s = prev_move
    y = grad - prev_grad
    sy = _stack_inner(manifold, gamma, s, y)
    if sy <= 0:
        return eta
    if iteration % 2:
        yy = _stack_inner(manifold, gamma, y, _along_stack(precond, y))
        return sy / yy if yy > 0 else eta
    ss = _stack_inner(manifold, gamma, s, _along_stack(gram, s))
    return ss / sy
