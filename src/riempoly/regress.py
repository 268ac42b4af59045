"""Parameter estimation for intrinsic polynomial regression.

The fit computes one thing per candidate curve: the residual logs
log_{gamma(t_j)} y_j, one batched Manifold.log_many call over the
observations at their own nodes: the fits' time grid (polyflow.time_grid)
holds every observation time as a node.  The objective is their mean
squared metric norm, and the accepted candidate's logs give the gradient
and the reported distances, so no (node, observation) pair is logged
twice.

The objective is differentiated by one Manifold.pullback call: the
gradient of the objective at every observed node, -(2/N) times the logs
observed there, is carried back to the initial conditions over the whole
pass, the reverse of the one Manifold.integrate call of the forward pass.
The data are sorted by time, so each node's logs are one run of rows and
one reduceat sums them.  On the sphere and planar shape space, whose
forward pass rolls, the pullback is the exact reverse of the roll
(geometry.unroll), a cumulative sum rather than a recursion, so the
gradient is that of the discrete objective the descent minimizes.
Elsewhere it is the default, the continuous adjoint system discretized
backward along the fitted curve, first order in the spacing and exact in
flat space: multipliers start at zero at the final time, pick up a jump
from every observation they pass, couple to the state through the
curvature operator, and are carried back by parallel transport, node by
node, arriving at t = 0 carrying the gradients; on SO(3) the node maps are
built and applied in blocks as batched running products.

A state with zero vectors, as a start from the mean or padded from order
zero, is the constant curve, flat to first order (Jupp & Kent 1987): its
gradient is the time design times the residual logs, row i the tangent
part of -(2/N) sum_j phi_i(t_j) log_j, and it takes neither a forward nor
a reverse pass.  At order zero every curve is constant, and that closed
form is the whole gradient: -2 times the mean of the logs.  One rule
observes every start and candidate (_Plan.observe): a state with zero
vectors, every order-zero one among them, is its point alone, its logs
taken at that point with no pass and no gather of rows; any other state
is integrated once.  A result without a pass is integrated once, at the
end.

There is one descent loop.  The order-zero fit is the Frechet mean of the
data (its objective is the mean squared distance), and its SSE is the
Frechet variance; it comes first, once per plan (below), under the fit's
FitConfig, so R^2 = 1 - SSE_k / SSE_0 compares two fits at the same
tolerance, and frechet_mean is the same fit at gradient tol 2 * tol.  The
loop moves every line-search candidate with one Manifold.step: the base
point along the geodesic, and the incremented vectors, the gradient, the
direction and the quasi-Newton pairs by parallel transport.  A candidate is
accepted when it lowers the objective by more than a few units in the last
place; near the optimum the objective cannot resolve a decrease, and a
candidate within that band is accepted if it lowers the gradient norm
instead.  The gradient and the vectors are single arrays with the order on
the first axis: (k+1, *tangent_shape) and (k, *tangent_shape).

Descent is L-BFGS (Liu & Nocedal 1989) in the normal-equation metric of
the time design.  With phi_i(t) = t^i / i!, the flat curve's monomial
basis, the objective in flat space is a quadratic with Hessian G (x) I,
G = (2/N) sum_j phi(t_j) phi(t_j)^T over the observation times t_j.  The
initial inverse Hessian is P = G^-1 on the stack axis, so the first unit
step, along -P g, is exact in flat space.  The last _MEMORY pairs (s, y)
ride along by parallel transport, an isometry, with the 1/<s, y> of their
making (Ring & Wirth 2012); a pair with <s, y> <= 0 is dropped.  When the
design has fewer distinct times than k+1, G is singular and P keeps the
identity on its null space.  The stopping test stays on the
unpreconditioned metric norm of the gradient, and is made on every state
the descent holds, the one its last permitted iteration reached included.

A plan (_Plan) holds what the fits of one (data, config) share, and is
read-only once built: the data with its time axis affinely rescaled to
[0, 1], the grid, which holds every observation time bit for bit, each
observation's node on it, and the order-zero fit, run when the plan is
built.  The order-zero fit starts at the middle observation of the
time-sorted data, then works outward to the first whose logs to all the
others are defined: the middle of a curve's data lies nearer its mean than
either end.  The orders of one fit_orders call share one plan;
fit_polynomial and frechet_mean called alone build their own.  One rule
picks a descent's start: no initial state is the mean with zero vectors,
whose curve is the order-zero fit's, so it takes that fit's logs and
objective and no log; a supplied initial state is observed as a candidate
is.  Every reported quantity carries the time mapping back to original
units.
"""

from __future__ import annotations

import time
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .geometry import CutLocusError, GeometryError, Manifold, monomials
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
_TIE_ULPS = 4           # objectives this close are told apart by the gradient norm
_MEMORY = 3             # (s, y) pairs of the L-BFGS inverse Hessian


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

    The descent itself has no knobs: it is L-BFGS from the design metric
    with halving backtracking from a unit step.
    """

    order: int
    steps: int = 100              # densest steps per unit of internal time
    max_iters: int = 2000
    tol: float = 1e-6             # on the metric norm of the stacked gradient

    def __post_init__(self):
        if not (0 <= self.order <= _MAX_ORDER):
            raise ValueError(f"order must be between 0 and {_MAX_ORDER}")
        for name, least in (("steps", 1), ("max_iters", 1), ("tol", 0)):
            value = getattr(self, name)
            if not (value > 0 and least <= value < np.inf):     # False for NaN
                raise ValueError(f"steps, max_iters and tol must be positive and finite, "
                                 f"got {name}={value}")
        for name in ("order", "steps", "max_iters"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"order, steps and max_iters must be integers, "
                                 f"got {name}={value!r}")


@dataclass
class FitResult:
    """Estimated initial conditions with fit statistics and the descent trace."""

    manifold_name: str
    params: PolynomialState              # internal time units on [0, 1]
    params_original: PolynomialState     # velocities per original time unit
    trajectory: Trajectory               # params integrated over [0, 1]; gives sse
    observed: np.ndarray                 # its point at each observation's node
    logs: np.ndarray                     # the residual logs there, one row per observation
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


def integrate_adjoint(manifold: Manifold, traj: Trajectory, nodes, logs) -> np.ndarray:
    """The objective's gradient at traj's initial conditions.

    logs holds the residual logs log_{gamma(t_j)} y_j of traj, one row per
    observation, as the objective computed them, so the pass itself takes
    no log, and nodes holds each observation's node index on traj, in
    non-decreasing order (traj.node_index of the sorted times; a fit's plan
    holds them).  Anything else raises ValueError.  The objective's
    gradient at the point of an observed node is -(2/N) times the sum of
    the logs observed there; Manifold.pullback carries those cotangents
    back to the initial conditions.  Each node's logs are one run of rows,
    summed by one reduceat.  At order zero, the one trajectory without a
    flow record, the gradient is the tangent part of the logs' sum
    (_constant_gradient), with no reverse pass.  The fit takes that closed
    form at any state with zero vectors, and this pass for every other
    gradient.  Returns the (k+1, *tangent_shape) gradient: base point
    first, then one row per vector.
    """
    nodes = np.asarray(nodes)
    if nodes.shape != (len(logs),) or nodes.dtype.kind not in "iu":
        raise ValueError(f"need one integer node index per row of logs, got "
                         f"{nodes.dtype} nodes of shape {nodes.shape} for {len(logs)} rows")
    if (nodes[1:] < nodes[:-1]).any():
        raise ValueError("nodes must be in non-decreasing order")
    if len(nodes) and not (0 <= nodes[0] and nodes[-1] < len(traj)):
        raise ValueError(f"nodes must index the {len(traj)} nodes of traj, "
                         f"got {nodes[0]} .. {nodes[-1]}")
    if traj.flow is None:
        return _constant_gradient(manifold, traj.points[0], np.ones((1, len(logs))), logs)
    starts = np.concatenate(([True], nodes[1:] != nodes[:-1])).nonzero()[0]
    cotangents = np.add.reduceat(logs, starts, axis=0) * (-2.0 / len(logs))
    return manifold.pullback(traj, nodes[starts], cotangents)


def _constant_gradient(manifold: Manifold, p, phi, logs) -> np.ndarray:
    """The gradient at the constant curve at p, whose residual logs are logs.

    phi is the time design, monomials at the observation times t_j; row i
    is the tangent part of -(2/N) sum_j phi_i(t_j) log_j.  Vectors dv added
    to zero vectors move the curve at t_j by sum_i phi_i(t_j) dv_i to first
    order on every geometry, so this closed form needs no reverse pass.
    """
    cotangents = (-2.0 / len(logs)) * logs
    rows = phi @ cotangents.reshape(len(logs), -1)
    return manifold.project_tangent(p, rows.reshape((-1,) + logs.shape[1:]))


def frechet_mean(manifold: Manifold, points, tol: float = 1e-9,
                 max_iter: int = 200) -> np.ndarray:
    """Minimizer of the mean squared distance: the order-zero fit of the points.

    The fit's gradient is -2 times the mean of the logs at the current
    point, so it runs at gradient tol 2 * tol, for at most max_iter
    iterations.  It starts at the middle point of points, as given, or at
    the nearest to it whose logs to all the others are defined, the lower
    index first; if none is, the last one's CutLocusError propagates.  The
    descent never integrates a curve: each candidate takes its logs at its
    own point.  A mean log at the returned point whose norm is above tol
    warns; above max(tol, 1e-6) it raises GeometryError.  A max_iter that is
    not a positive integer (a bool is not one), or a tol that is not
    positive or whose double is not finite, a NaN among them, raises
    ValueError naming the argument and the value given.
    """
    if isinstance(max_iter, bool) or not (isinstance(max_iter, Integral) and max_iter >= 1):
        raise ValueError(f"max_iter must be a positive integer, got max_iter={max_iter!r}")
    if not 0.0 < 2.0 * tol < np.inf:                   # False for NaN
        raise ValueError(f"tol must be positive and 2 * tol finite, got tol={tol!r}")
    mean = _Plan(manifold, TimedDataset(manifold, np.zeros(len(points)), points),
                 FitConfig(order=0, max_iters=max_iter, tol=2.0 * tol)).zero
    mean_log = manifold.norm(mean.state.gamma, np.add.reduce(mean.logs) / len(mean.logs))
    if mean_log > max(tol, 1e-6):
        raise GeometryError("mean iteration did not converge")
    if mean_log > tol:
        warnings.warn(f"Frechet mean stopped at gradient norm {mean_log:.3g}, "
                      f"above its tol {tol:g}", RuntimeWarning, stacklevel=2)
    return mean.state.gamma


def r_squared(sse: float, variance: float) -> float:
    """Determination coefficient 1 - SSE/variance."""
    if variance <= 0.0:
        raise ZeroVarianceError(
            "total variance is zero (all observations identical)"
        )
    return 1.0 - sse / variance


# Where one descent stopped: its state, the state's pass (None for a state
# with zero vectors, as plan.observe takes it), logs and objective, and the
# record; trace holds the starting objective and then one value per accepted
# iteration.
_Descent = namedtuple("_Descent", "state traj logs value stop_reason grad_norm trace")


class _Plan:
    """One dataset made ready for its fits under config; read-only once built.

    It holds the data on [0, 1] with the offset and scale of the original
    times, the fits' grid (data of one time take the grid [0, 1] of one
    step), each observation's node on it, and zero, the order-zero fit
    under config, whose point is the Frechet mean and whose SSE the
    variance.  That fit starts at the middle observation, then works
    outward, the lower of two at one distance first, and takes the first
    whose logs to all the others are defined; if none is, the last one's
    CutLocusError propagates.  Its descent integrates no curve, so
    zero.traj is None.
    """

    def __init__(self, manifold: Manifold, data: TimedDataset, config: FitConfig):
        self.manifold = manifold
        self.data, self.offset, self.scale = data.rescaled()
        times, points = self.data.times, self.data.points
        self.grid = time_grid(1.0, 1 if times[-1] == 0.0 else config.steps, times)
        self.nodes = np.searchsorted(self.grid, times)
        # the middle observation first, then outward, the lower of two at one distance first
        outward = np.argsort(np.abs(2 * np.arange(len(points)) - (len(points) - 1)),
                             kind="stable")
        for i in outward:
            state = PolynomialState(points[i], np.zeros((0,) + manifold.tangent_shape))
            try:
                observed = self.observe(state)
                break
            except CutLocusError:
                if i == outward[-1]:
                    raise
        self.zero = _descend(self, config, state, *observed)

    def observe(self, state: PolynomialState):
        """The state's pass, residual logs and objective, in one log_many.

        A state whose vectors are all zero, every order-zero state among
        them, is its base point at every node: its logs are taken there,
        with no pass (None) and no gather of rows.
        """
        points = self.data.points
        if not np.count_nonzero(state.vels):
            return (None,) + _residuals(self.manifold, np.broadcast_to(state.gamma, points.shape),
                                        points)
        traj = integrate_polynomial(self.manifold, state, self.grid)
        return (traj,) + _residuals(self.manifold, traj.points[self.nodes], points)


def fit_polynomial(manifold: Manifold, data: TimedDataset, config: FitConfig,
                   initial: PolynomialState | None = None, *, _plan=None) -> FitResult:
    """Estimate initial conditions of an order-k curve by descent.

    The plan of the data (_Plan) holds the order-zero fit under config,
    from the middle observation, or the nearest outward whose logs are all
    defined: its point is the data's Frechet mean and its SSE the Frechet
    variance, so R^2 = 1 - SSE_k / SSE_0 with both fits at the same
    tolerance.  At order zero without an initial state, that fit is the
    result, and its curve, which no order-zero candidate needed, is
    integrated once for the result.  Otherwise,
    without an initial state the descent starts from the mean with zero
    vectors, the order-zero fit's curve, and takes that fit's logs and SSE
    with no log and no pass.  An initial state (in internal [0, 1] time
    units) is observed as every candidate is (_Plan.observe): one log_many,
    and a pass only if it has nonzero vectors.  An initial state more than
    1e-6 off the manifold (its point or its vectors' tangency) raises
    ValueError naming the worst part, a NaN the worst of all, and fewer
    distinct observation times than k + 1 warn that the fit is
    underdetermined.  Candidates are accepted as _line_search says.
    Parameters that drift more than 1e-6 off the manifold raise
    GeometryError.  The result is converged when its descent
    and the order-zero fit both reached the tolerance; stop_reason is its
    own descent's.  It keeps the trajectory of the accepted parameters, the
    one its SSE was measured on, its point at each observation's node and
    the residual logs there, so reports take no log of their own.
    ``_plan`` is private to ``fit_orders``, which makes one plan of the data
    for all its orders and only reads it.
    """
    started = time.perf_counter()
    k = config.order
    plan = _plan or _Plan(manifold, data, config)
    if plan.data.times[-1] == 0.0 and k > 0:
        raise ValueError("all observations share one time; only order 0 is defined")
    distinct = len(np.unique(plan.data.times))
    if distinct < k + 1:
        warnings.warn(f"only {distinct} distinct observation times for order {k}: "
                      "fit is underdetermined", stacklevel=2)
    zero = plan.zero

    shape = (k,) + manifold.tangent_shape
    if initial is None:
        state = PolynomialState(zero.state.gamma, np.zeros(shape))
        fit = zero if k == 0 else _descend(plan, config, state, None, zero.logs, zero.value)
    elif initial.vels.shape == shape or (k == 0 and initial.vels.size == 0):
        state = PolynomialState(initial.gamma, initial.vels.reshape(shape))
        worst, residual = _drift(manifold, state)
        if not residual <= _DRIFT_TOL:
            raise ValueError(f"initial state is off the manifold: {worst} residual "
                             f"{residual:.3e} exceeds {_DRIFT_TOL:g}")
        try:
            observed = plan.observe(state)
        except GeometryError as exc:
            raise GeometryError(f"objective failed on an observation: {exc}") from exc
        fit = _descend(plan, config, state, *observed)
    else:
        raise ValueError(
            f"initial vectors have shape {initial.vels.shape}; order {k} "
            f"on {manifold.name} needs {shape}"
        )
    state = fit.state
    traj = (fit.traj if fit.traj is not None
            else integrate_polynomial(manifold, state, plan.grid))

    # scalar powers: numpy's array power can differ from them in the last bit
    powers = np.array([plan.scale ** i for i in range(1, k + 1)])
    vels_original = state.vels / powers.reshape((k,) + (1,) * (state.vels.ndim - 1))
    collinearity = None
    if k >= 2 and manifold.norm(state.gamma, state.vels[0]) > 0:
        collinearity = collinearity_diagnostic(manifold, state)

    return FitResult(
        manifold_name=manifold.name,
        params=state,
        params_original=PolynomialState(state.gamma, vels_original),
        trajectory=traj,
        observed=traj.points[plan.nodes],
        logs=fit.logs,
        sse=fit.value,
        frechet_variance=zero.value,
        r_squared=r_squared(fit.value, zero.value),
        iterations=len(fit.trace) - 1,
        converged=fit.stop_reason == zero.stop_reason == "tolerance",
        grad_norm=fit.grad_norm,
        stop_reason=fit.stop_reason,
        objective_trace=fit.trace,
        collinearity=collinearity,
        time_offset=plan.offset,
        time_scale=plan.scale,
        elapsed_seconds=time.perf_counter() - started,
    )


def fit_orders(manifold: Manifold, data: TimedDataset, orders, config: FitConfig) -> dict:
    """Fit several orders, each seeded from the previous result.

    Every order shares one plan of the data (_Plan), built first: its
    order-zero fit under config gives every order its Frechet variance, is
    the order-zero result if order 0 was requested, and is not part of
    that result's elapsed time.  The lowest requested order above zero
    starts from the mean with zero vectors (initial None), the order-zero
    optimum padded.  Each higher one starts from the previous optimum
    padded with zero vectors, so the objective can only improve with the
    order; that start takes one log_many.  A repeated order is fitted once.
    """
    plan = _Plan(manifold, data, config)
    results = {}
    previous = None
    for k in sorted(set(orders)):
        initial = None
        if previous is not None:
            pad = np.zeros((k - previous.params.order,) + manifold.tangent_shape)
            initial = PolynomialState(previous.params.gamma,
                                      np.concatenate([previous.params.vels, pad]))
        results[k] = fit_polynomial(manifold, data, replace(config, order=k),
                                    initial=initial, _plan=plan)
        previous = results[k] if k else None    # order zero's padding is the mean start
    return results


def _descend(plan: _Plan, config, state, traj, logs, value) -> _Descent:
    """L-BFGS descent on plan's data from state with its pass, logs and objective.

    Every candidate is observed by plan.observe, so traj is None for a state
    with zero vectors, every order-zero one among them.  The time design's
    monomials and metric are built once, by one _design_metric; a state
    without a pass takes the closed-form gradient, any other one
    integrate_adjoint pass.  The tolerance is tested on every state the
    loop holds, the one reached by the last permitted iteration included,
    so the gradient norm reported is the returned state's.  The plan is
    only read.
    """
    manifold = plan.manifold
    k = state.order
    phi, _, precond = _design_metric(plan.data.times, k)

    def gradient(s: PolynomialState, traj, logs):
        if traj is None:                    # the constant curve: no pass
            return _constant_gradient(manifold, s.gamma, phi, logs)
        return integrate_adjoint(manifold, traj, plan.nodes, logs)

    trace = [value]
    stop_reason = "max_iters"
    grad = carried = None
    pairs, rho = np.zeros((0, k + 1) + manifold.tangent_shape), []  # (s, y) rows, 1/<s, y>
    for iteration in range(config.max_iters + 1):
        if grad is None:
            grad = gradient(state, traj, logs)
        grad_norm = _stack_norm(manifold, state.gamma, grad)
        if grad_norm <= config.tol:
            stop_reason = "tolerance"
            break
        if iteration == config.max_iters:
            break

        if carried is not None:
            s, y = carried[1], grad - carried[0]
            pairs = carried[2:]
            sy = _stack_inner(manifold, state.gamma, s, y)
            if sy > 0:
                pairs = np.concatenate([pairs, [s, y]])[-2 * _MEMORY:]
                rho = (rho + [1.0 / sy])[-_MEMORY:]
        direction = _lbfgs_direction(manifold, state.gamma, grad, pairs, rho, precond)
        found = _line_search(manifold, state, grad, grad_norm, direction, pairs, value,
                             plan.observe, gradient)
        if found is None:
            stop_reason = "line_search"
            break
        state, traj, logs, value, carried, grad = found
        worst, residual = _drift(manifold, state)
        if not residual <= _DRIFT_TOL:
            raise GeometryError(f"parameters drifted off the manifold: {worst} residual "
                                f"{residual:.3e} exceeds {_DRIFT_TOL:g}")
        trace.append(value)
    return _Descent(state, traj, logs, value, stop_reason, grad_norm, trace)


def _drift(manifold: Manifold, state: PolynomialState):
    """The part of state farthest off the manifold, "point" or "v1" .. "vk", and its residual.

    A NaN residual counts as the farthest, wherever it comes.
    """
    residuals = state.residuals(manifold)
    worst = max(residuals, key=lambda part: np.inf if np.isnan(residuals[part])
                else residuals[part])
    return worst, residuals[worst]


def _line_search(manifold, state, grad, grad_norm, direction, pairs, value, evaluate,
                 gradient):
    """Halve the step from 1 until a candidate beats the current objective.

    A candidate with step e is one Manifold.step along e * direction[0] that
    carries the rows [vels + e * direction[1:], grad, direction, pairs] to
    the new base point.  It wins if its objective is below value by more
    than _TIE_ULPS units in the last place of value.  Near the optimum the
    objective stops resolving a decrease, so a candidate within that band,
    a tie, wins if its gradient norm is below grad_norm: the objective
    trace can rise by at most _TIE_ULPS ulps, and only on an accepted tie.
    A candidate at the cut locus of an observation, where its residual log
    is undefined, is rejected like one that does not descend.  After the
    unit step the search gives up once the predicted decrease -e <g,
    direction> falls below np.spacing(value), and returns None; otherwise
    (state, trajectory, logs, objective, carried, gradient): carried holds
    the moved [grad, e * direction, pairs], gradient is a tie's or None.
    """
    k = state.order
    e = 1.0
    slope = -_stack_inner(manifold, state.gamma, grad, direction)
    tie = _TIE_ULPS * np.spacing(value)
    while True:
        rows = np.concatenate([state.vels + e * direction[1:], grad, direction,
                               pairs.reshape((-1,) + grad.shape[1:])])
        gamma, moved = manifold.step(state.gamma, e * direction[0], rows)
        moved = np.asarray(manifold.project_tangent(gamma, moved), dtype=float)
        candidate = PolynomialState(gamma, moved[:k])
        carried = moved[k:].reshape((-1,) + grad.shape)
        carried[1] *= e
        try:
            traj, logs, val = evaluate(candidate)
        except CutLocusError:
            val = np.inf                    # rejected: the step shrinks
        if val < value - tie:
            return candidate, traj, logs, val, carried, None
        if abs(val - value) <= tie:
            cand_grad = gradient(candidate, traj, logs)
            if _stack_norm(manifold, gamma, cand_grad) < grad_norm:
                return candidate, traj, logs, val, carried, cand_grad
        e *= _SHRINK
        if not e * slope >= np.spacing(value):
            return None


def _design_metric(times, order):
    """The time design phi, its normal-equation metric G and preconditioner P.

    phi is monomials at the observation times, phi_i(t) = t^i / i!, and
    G = (2/N) sum_j phi(t_j) phi(t_j)^T, so G has rank min(k+1, number of
    distinct times).  P inverts G on its range and is the identity on the
    null space: pinv(G) plus the projector onto ker G.
    """
    phi = monomials(times, order)
    gram = (2.0 / len(times)) * phi @ phi.T
    rank = min(order + 1, len(np.unique(times)))
    vals, vecs = np.linalg.eigh(gram)             # ascending
    scale = np.ones(order + 1)
    scale[order + 1 - rank:] = 1.0 / vals[order + 1 - rank:]
    return phi, gram, (vecs * scale) @ vecs.T


def _along_stack(matrix, stack):
    """Apply a (k+1) x (k+1) matrix to the stack axis of (k+1, *tangent)."""
    return (matrix @ stack.reshape(len(stack), -1)).reshape(stack.shape)


def _stack_inner(manifold, gamma, a, b) -> float:
    """Metric inner product of two stacks of tangents at gamma."""
    return float(np.add.reduce(manifold.inner(gamma, a, b), axis=None))


def _stack_norm(manifold, gamma, a) -> float:
    """Metric norm of a stack of tangents at gamma."""
    return float(np.sqrt(_stack_inner(manifold, gamma, a, a)))


def _lbfgs_direction(manifold, gamma, grad, pairs, rho, precond):
    """-H g by the two-loop recursion over the (s, y) pairs, oldest first, from H = P.

    Every 1/<s, y> kept is positive, so H is positive definite.
    """
    s, y = pairs[::2], pairs[1::2]
    alpha = [0.0] * len(rho)
    for i in reversed(range(len(rho))):
        alpha[i] = rho[i] * _stack_inner(manifold, gamma, s[i], grad)
        grad = grad - alpha[i] * y[i]
    d = _along_stack(precond, grad)
    for i in range(len(rho)):
        d = d + (alpha[i] - rho[i] * _stack_inner(manifold, gamma, y[i], d)) * s[i]
    return -d
