"""Shared fixtures and oracle helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

import riempoly as rp
from riempoly import so3
from riempoly.regress import integrate_adjoint, objective_sse

# deterministic examples and no per-example deadline: the suite must give
# the same verdict on every run, however loaded the machine
settings.register_profile("riempoly", derandomize=True, deadline=None)
settings.load_profile("riempoly")


def make_manifold(name):
    if name == "euclidean":
        return rp.Euclidean(2)
    if name == "sphere":
        return rp.Sphere(2)
    if name == "so3":
        return rp.RotationGroup()
    if name == "so3_general":
        return rp.RotationGroup(rp.MetricSpec(np.diag([1.0, 2.0, 3.0])))
    if name == "kendall":
        return rp.KendallShapeSpace(3, 2)
    raise ValueError(name)


MANIFOLD_NAMES = ["euclidean", "sphere", "so3", "kendall"]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tangent_basis(manifold, p):
    """Metric-orthonormal basis of the tangent space at p."""
    dim = int(np.prod(manifold.tangent_shape))
    basis = []
    for i in range(dim):
        flat = np.zeros(dim)
        flat[i] = 1.0
        v = np.asarray(
            manifold.project_tangent(p, flat.reshape(manifold.tangent_shape)),
            dtype=float,
        )
        for b in basis:
            v = v - manifold.inner(p, v, b) * b
        n = manifold.norm(p, v)
        if n > 1e-8:
            basis.append(v / n)
    return basis


def unit_tangent(manifold, rng, p, scale=1.0):
    v = manifold.random_tangent(rng, p)
    return v / max(manifold.norm(p, v), 1e-300) * scale


def shifted_state(manifold, state, move):
    """State carried to exp(gamma, move): vectors follow by transport."""
    new_gamma = manifold.project_point(manifold.exp(state.gamma, move))
    if state.order:
        stacked = manifold.transport(state.gamma, move, np.stack(state.vels))
        stacked = np.asarray(
            manifold.project_tangent(new_gamma, stacked), dtype=float
        )
        return rp.PolynomialState(new_gamma, tuple(stacked))
    return rp.PolynomialState(new_gamma, ())


def random_fit_problem(manifold, k, rng, scale=0.1, obs_scale_factor=0.3,
                       steps=1000, times=(0.0, 0.33, 0.71, 1.0)):
    """A small regression instance: smooth state plus nearby observations."""
    p = manifold.random_point(rng)
    vels = tuple(unit_tangent(manifold, rng, p, scale) for _ in range(k))
    state = rp.PolynomialState(p, vels)
    traj = rp.integrate_polynomial(manifold, state, 1.0, steps)
    t_obs = np.array(times)
    pts = []
    for t in t_obs:
        g = traj.points[traj.node_index(float(t))]
        w = unit_tangent(manifold, rng, g, obs_scale_factor * scale)
        pts.append(manifold.project_point(manifold.exp(g, w)))
    data = rp.TimedDataset(manifold, t_obs, np.stack(pts))
    return state, traj, data


def fd_gradient(manifold, data, state, duration, steps, h=1e-5):
    """Central finite differences of the objective in an orthonormal frame.

    Base-point differences move along the exponential map with the vectors
    carried by parallel transport, matching the variation the reverse pass
    differentiates.  Returns (k+1, n_basis) components plus the basis.
    """

    def energy(s):
        traj = rp.integrate_polynomial(manifold, s, duration, steps)
        return objective_sse(manifold, traj, data)

    k = state.order
    basis = tangent_basis(manifold, state.gamma)
    rows = []
    comps = []
    for b in basis:
        vals = []
        for sign in (+1.0, -1.0):
            vals.append(energy(shifted_state(manifold, state, sign * h * b)))
        comps.append((vals[0] - vals[1]) / (2.0 * h))
    rows.append(comps)
    for i in range(k):
        comps = []
        for b in basis:
            vals = []
            for sign in (+1.0, -1.0):
                vels = list(state.vels)
                vels[i] = vels[i] + sign * h * b
                vals.append(energy(rp.PolynomialState(state.gamma, tuple(vels))))
            comps.append((vals[0] - vals[1]) / (2.0 * h))
        rows.append(comps)
    return np.array(rows), basis


def adjoint_vs_fd(manifold, k, rng, scale=0.1, steps=1000,
                  times=(0.0, 0.33, 0.71, 1.0)):
    """Relative mismatch between the reverse pass and finite differences."""
    state, traj, data = random_fit_problem(manifold, k, rng, scale=scale,
                                           steps=steps, times=times)
    grads = integrate_adjoint(manifold, traj, data)
    fd, basis = fd_gradient(manifold, data, state, 1.0, steps)
    adj = np.array([
        [manifold.inner(state.gamma, g, b) for b in basis]
        for g in grads.stacked()
    ])
    num = float(np.sqrt(np.sum((adj - fd) ** 2)))
    den = float(np.sqrt(np.sum(fd ** 2)))
    return num / max(den, 1e-300)


def log_log_slope(hs, errs):
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def integrate_geodesic(rotation, omega, duration, dt, metric=None):
    """First-order SO(3) geodesic oracle, exposed with its step size.

    Each step multiplies on the right by the exact rotation exponential of
    dt * hat(omega) and advances omega by an Euler step of the reduced
    geodesic equation omega' = -connection(omega, omega).  Error is O(dt) for
    a general metric and exactly zero for the bi-invariant one, where the
    factors commute.  Returns the final rotation and body velocity.
    """
    if metric is None:
        metric = so3.MetricSpec(np.eye(3))
    w = np.array(omega, dtype=float)
    steps = max(1, int(round(duration / dt)))
    h = duration / steps
    r = np.array(rotation, dtype=float)
    for _ in range(steps):
        r = so3._reorthonormalize(r @ so3.rodrigues(h * w))
        w = w - h * so3.connection(w, w, metric)
    return r, w
