"""Estimation machinery: objective, reverse pass, descent, statistics."""

import math
import warnings

import numpy as np
import pytest

import riempoly.regress
import riempoly as rp
from riempoly.regress import ZeroVarianceError, _design_metric, integrate_adjoint
from conftest import adjoint_vs_fd, make_manifold, random_fit_problem, unit_tangent


def falling_factorial_to_monomial(k, dt):
    """Monomial coefficients of the discrete basis t(t-dt)..(t-(j-1)dt)/j!."""
    out = np.zeros((k + 1, k + 1))
    out[0, 0] = 1.0
    for j in range(1, k + 1):
        prev = out[:, j - 1] * math.factorial(j - 1)
        poly = np.zeros(k + 1)
        poly[1:] += prev[:-1]
        poly -= (j - 1) * dt * prev
        out[:, j] = poly / math.factorial(j)
    return out


def polyfit_data(k, rng):
    """20 noisy samples of a degree-k polynomial on [0, 1], on the line."""
    line = rp.Euclidean(1)
    t = np.linspace(0.0, 1.0, 20)
    coeffs = np.array([0.3, -1.2, 2.0, 1.5])[: k + 1]
    y = sum(c * t**j for j, c in enumerate(coeffs))
    y = y + 0.02 * rng.standard_normal(20)
    return rp.TimedDataset(line, t, y[:, None])


class TestDesignMetric:
    def test_full_rank_inverse(self):
        nodes = np.array([0, 13, 40, 77, 120, 200])
        gram, precond = _design_metric(nodes, 1.0 / 200, 3)
        assert np.abs(precond @ gram - np.eye(4)).max() < 1e-9

    def test_matches_falling_factorial_design(self):
        # phi_i(n) = dt^i C(n, i): the discrete curve's monomial map applied
        # to the node times
        dt, nodes = 1.0 / 50, np.array([0, 7, 25, 50])
        gram, _ = _design_metric(nodes, dt, 3)
        phi = np.array([[dt ** i * math.comb(int(n), i) for n in nodes]
                        for i in range(4)])
        assert np.abs(gram - 0.5 * phi @ phi.T).max() < 1e-14

    def test_rank_deficient_design(self):
        # two distinct nodes for three blocks: pinv on the range, identity
        # on the null space
        gram, precond = _design_metric(np.array([0, 50, 50]), 1.0 / 50, 2)
        pinv = np.linalg.pinv(gram)
        expected = pinv + np.eye(3) - gram @ pinv
        assert np.abs(precond - expected).max() < 1e-9


class TestObjective:
    def test_exact_samples_give_zero(self, rng):
        sphere = rp.Sphere(2)
        state, traj, _ = random_fit_problem(sphere, 2, rng, steps=200)
        times = np.array([0.0, 0.5, 1.0])
        pts = np.stack([traj.points[traj.node_index(t)] for t in times])
        data = rp.TimedDataset(sphere, times, pts)
        assert rp.objective_sse(sphere, traj, data) < 1e-28

    def test_single_observation_squared_distance(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        traj = rp.integrate_polynomial(sphere, rp.PolynomialState(p, ()), 1.0, 10)
        theta = 0.7
        y = sphere.exp(p, unit_tangent(sphere, rng, p, theta))
        data = rp.TimedDataset(sphere, np.array([0.4]), y[None])
        assert rp.objective_sse(sphere, traj, data) == pytest.approx(theta**2, abs=1e-12)

    def test_flat_space_matches_classical_residual(self, rng):
        line = rp.Euclidean(1)
        t = np.linspace(0.0, 1.0, 12)
        y = 0.8 * t - 0.3 + 0.05 * rng.standard_normal(12)
        state = rp.PolynomialState(np.array([-0.3]), (np.array([0.8]),))
        traj = rp.integrate_polynomial(line, state, 1.0, 1200)
        data = rp.TimedDataset(line, t, y[:, None])
        snapped = np.round(t * 1200) / 1200
        fitted = -0.3 + 0.8 * snapped
        classical = float(np.mean((fitted - y) ** 2))
        assert rp.objective_sse(line, traj, data) == pytest.approx(classical, abs=1e-10)


class TestAdjoint:
    def test_zero_gradients_on_interpolated_data(self, rng):
        sphere = rp.Sphere(2)
        state, traj, _ = random_fit_problem(sphere, 2, rng, steps=500)
        times = np.array([0.0, 0.25, 0.75, 1.0])
        pts = np.stack([traj.points[traj.node_index(t)] for t in times])
        data = rp.TimedDataset(sphere, times, pts)
        grads = integrate_adjoint(sphere, traj, data)
        assert max(np.abs(g).max() for g in grads.stacked()) < 1e-8

    def test_order_zero_reduces_to_mean_of_logs(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        traj = rp.integrate_polynomial(sphere, rp.PolynomialState(p, ()), 1.0, 100)
        pts = np.stack([
            sphere.exp(p, unit_tangent(sphere, rng, p, 0.4)) for _ in range(5)
        ])
        data = rp.TimedDataset(sphere, np.linspace(0, 1, 5), pts)
        grads = integrate_adjoint(sphere, traj, data)
        logs = sphere.log_many(np.broadcast_to(p, pts.shape), pts)
        expected = -(2.0 / 5.0) * logs.sum(axis=0)
        assert np.abs(grads.base - expected).max() < 1e-12

    @pytest.mark.parametrize("name,k", [("euclidean", 3), ("sphere", 2)])
    def test_matches_finite_differences(self, name, k, rng):
        rel = adjoint_vs_fd(make_manifold(name), k, rng, steps=400)
        assert rel < 1e-3

    @pytest.mark.parametrize("name", ["sphere", "kendall"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_shared_nodes_match_finite_differences(self, name, k, rng):
        # several observations on the first node, on one interior node and
        # on the last one: their jumps are summed per node
        times = (0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
        rel = adjoint_vs_fd(make_manifold(name), k, rng, steps=400, times=times)
        assert rel < 1e-3

    def test_gradients_are_tangent(self, rng):
        sphere = rp.Sphere(2)
        state, traj, data = random_fit_problem(sphere, 2, rng, steps=300)
        grads = integrate_adjoint(sphere, traj, data)
        for g in grads.stacked():
            assert abs(np.dot(g, state.gamma)) < 1e-10


class TestFrechetMean:
    def test_all_points_equal(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        assert np.abs(rp.frechet_mean(sphere, np.tile(p, (4, 1))) - p).max() < 1e-12

    def test_two_point_midpoint(self):
        sphere = rp.Sphere(2)
        pts = np.array([[1.0, 0, 0], [0.0, 1.0, 0]])
        mean = rp.frechet_mean(sphere, pts)
        r = 1.0 / np.sqrt(2.0)
        assert np.abs(mean - np.array([r, r, 0.0])).max() < 1e-9

    def test_flat_space_arithmetic_mean(self, rng):
        plane = rp.Euclidean(2)
        pts = rng.standard_normal((7, 2))
        assert np.abs(rp.frechet_mean(plane, pts) - pts.mean(axis=0)).max() < 1e-10

    def test_gradient_vanishes(self, rng):
        sphere = rp.Sphere(2)
        pts = np.stack([sphere.random_point(rng) for _ in range(3)])
        pts = np.stack([p if p[0] > 0 else -p for p in pts])
        mean = rp.frechet_mean(sphere, pts, tol=1e-11)
        logs = sphere.log_many(np.broadcast_to(mean, pts.shape), pts)
        assert np.linalg.norm(logs.mean(axis=0)) < 1e-10


class TestRSquared:
    def test_extremes(self):
        assert rp.r_squared(0.7, 0.7) == 0.0
        assert rp.r_squared(0.0, 0.5) == 1.0

    def test_zero_variance_signaled(self):
        with pytest.raises(ZeroVarianceError):
            rp.r_squared(0.0, 0.0)


class TestFitPolynomial:
    def test_order_zero_two_points(self):
        sphere = rp.Sphere(2)
        data = rp.TimedDataset(sphere, np.array([0.0, 1.0]),
                               np.array([[1.0, 0, 0], [0.0, 1.0, 0]]))
        res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=0, steps=20))
        r = 1.0 / np.sqrt(2.0)
        assert np.abs(res.params.gamma - np.array([r, r, 0.0])).max() < 1e-7
        assert res.frechet_variance == pytest.approx((np.pi / 4.0) ** 2, abs=1e-9)
        assert res.r_squared == 0.0
        assert res.sse == res.frechet_variance

    def test_order_zero_agrees_with_frechet_mean(self, rng):
        sphere = rp.Sphere(2)
        pts = np.stack([sphere.random_point(rng) for _ in range(5)])
        pts = np.stack([p if p[2] > 0 else -p for p in pts])
        data = rp.TimedDataset(sphere, np.linspace(0, 1, 5), pts)
        res = rp.fit_polynomial(
            sphere, data, rp.FitConfig(order=0, steps=20, tol=1e-10)
        )
        mean = rp.frechet_mean(sphere, pts, tol=1e-10)
        assert np.abs(res.params.gamma - mean).max() < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flat_space_matches_polyfit(self, k, rng):
        data = polyfit_data(k, rng)
        t, y = data.times, data.points[:, 0]
        line = data.manifold
        cfg = rp.FitConfig(order=k, steps=200, max_iters=20000, tol=1e-11)
        res = rp.fit_polynomial(line, data, cfg)
        dt = 1.0 / 200
        snapped = np.round(t * 200) / 200
        ref = np.polyfit(snapped, y, k)[::-1]
        basis_change = falling_factorial_to_monomial(k, dt)
        fitted = basis_change @ np.array(
            [res.params.gamma[0]] + [v[0] for v in res.params.vels]
        )
        assert np.abs(fitted - ref).max() < 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flat_space_converges_in_one_iteration(self, k, rng):
        # the design metric is the flat objective's Hessian, so the first
        # preconditioned unit step lands on the least-squares solution
        data = polyfit_data(k, rng)
        cfg = rp.FitConfig(order=k, steps=200, max_iters=50, tol=1e-11)
        res = rp.fit_polynomial(data.manifold, data, cfg)
        assert res.converged
        assert res.stop_reason == "tolerance"
        assert res.iterations == 1

    def test_line_search_exhaustion_reported(self, rng):
        # below round-off no step decreases the objective any more
        data = polyfit_data(2, rng)
        cfg = rp.FitConfig(order=2, steps=200, max_iters=200, tol=1e-300)
        res = rp.fit_polynomial(data.manifold, data, cfg)
        assert not res.converged
        assert res.stop_reason == "line_search"
        assert res.iterations < cfg.max_iters

    def test_line_search_stops_once_the_state_stops_moving(self, rng, monkeypatch):
        # a step too small to change a single bit must not be integrated: the
        # returned parameters are integrated once, when they were accepted
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 2, rng, scale=0.5, steps=100)
        integrated = []

        def recording_integrate(manifold, state, *args, **kwargs):
            integrated.append(state)
            return rp.integrate_polynomial(manifold, state, *args, **kwargs)

        monkeypatch.setattr(riempoly.regress, "integrate_polynomial",
                            recording_integrate)
        cfg = rp.FitConfig(order=2, steps=80, max_iters=200, tol=1e-300)
        res = rp.fit_polynomial(sphere, data, cfg)
        assert res.stop_reason == "line_search"
        same = [
            s for s in integrated
            if np.array_equal(s.gamma, res.params.gamma)
            and all(np.array_equal(a, b) for a, b in zip(s.vels, res.params.vels))
        ]
        assert len(same) == 1

    def test_exact_interpolation_of_generating_polynomial(self, rng):
        # k+1 points from a random order-k curve are interpolated
        line = rp.Euclidean(2)
        k = 3
        state = rp.PolynomialState(
            rng.standard_normal(2), tuple(rng.standard_normal(2) for _ in range(k))
        )
        steps = 240
        traj = rp.integrate_polynomial(line, state, 1.0, steps)
        times = np.linspace(0.0, 1.0, k + 1)
        pts = np.stack([traj.points[traj.node_index(t)] for t in times])
        data = rp.TimedDataset(line, times, pts)
        cfg = rp.FitConfig(order=k, steps=steps, max_iters=30000, tol=1e-12)
        res = rp.fit_polynomial(line, data, cfg)
        assert res.sse < 1e-8

    def test_monotone_descent_trace(self, rng):
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 2, rng, scale=0.4, steps=100)
        res = rp.fit_polynomial(
            sphere, data, rp.FitConfig(order=2, steps=100, max_iters=60)
        )
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) < 0)

    def test_r_squared_within_unit_interval(self, rng):
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, scale=0.5, steps=100)
        res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=1, steps=100))
        assert 0.0 <= res.r_squared <= 1.0
        assert res.sse <= res.frechet_variance

    def test_nesting_with_warm_start(self, rng):
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(
            sphere, 2, rng, scale=0.5, steps=100,
            times=(0.0, 0.2, 0.45, 0.7, 0.9, 1.0),
        )
        results = rp.fit_orders(
            sphere, data, (0, 1, 2, 3),
            rp.FitConfig(order=0, steps=100, max_iters=300),
        )
        assert results[1].sse <= results[0].sse + 1e-9
        assert results[2].sse <= results[1].sse + 1e-9
        assert results[3].sse <= results[2].sse + 1e-9

    def test_underdetermined_warns(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        data = rp.TimedDataset(sphere, np.array([0.0, 1.0]),
                               np.stack([p, sphere.exp(p, unit_tangent(sphere, rng, p, 0.3))]))
        with pytest.warns(UserWarning, match="underdetermined"):
            res = rp.fit_polynomial(sphere, data,
                                    rp.FitConfig(order=2, steps=50, max_iters=5))
        # the design metric has rank 2 < 3; its null space keeps unit scaling
        for v in (res.params.gamma,) + res.params.vels:
            assert np.all(np.isfinite(v))
        assert np.all(np.diff(res.objective_trace) <= 0.0)

    def test_nonconverged_result_returned(self, rng):
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, scale=0.5, steps=50)
        res = rp.fit_polynomial(
            sphere, data, rp.FitConfig(order=1, steps=50, max_iters=1, tol=1e-16)
        )
        assert not res.converged
        assert res.stop_reason == "max_iters"
        assert res.iterations <= 1
        assert len(res.objective_trace) >= 1

    @pytest.mark.parametrize("max_iters,tol,reason", [
        (200, 1e-6, "tolerance"),
        (2, 1e-16, "max_iters"),
        (200, 1e-300, "line_search"),
    ])
    def test_trajectory_is_the_fitted_curve(self, max_iters, tol, reason, rng):
        # the stored trajectory belongs to the returned parameters and gives
        # the returned SSE, however the descent stopped
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 2, rng, scale=0.5, steps=100)
        cfg = rp.FitConfig(order=2, steps=80, max_iters=max_iters, tol=tol)
        res = rp.fit_polynomial(sphere, data, cfg)
        assert res.stop_reason == reason
        steps = len(res.trajectory) - 1
        assert steps == cfg.steps
        fresh = rp.integrate_polynomial(sphere, res.params, 1.0, steps)
        assert np.array_equal(res.trajectory.times, fresh.times)
        assert np.array_equal(res.trajectory.points, fresh.points)
        assert np.array_equal(res.trajectory.vels, fresh.vels)
        internal, _, _ = data.rescaled()
        assert rp.objective_sse(sphere, res.trajectory, internal) == res.sse
        assert res.objective_trace[-1] == res.sse

    def test_time_rescaling_reported(self, rng):
        line = rp.Euclidean(1)
        ages = np.array([7.0, 30.0, 90.0, 150.0])
        y = 0.01 * ages
        data = rp.TimedDataset(line, ages, y[:, None])
        res = rp.fit_polynomial(
            line, data, rp.FitConfig(order=1, steps=2000, tol=1e-12, max_iters=500)
        )
        assert res.time_offset == 7.0
        assert res.time_scale == 143.0
        # velocity per original unit recovers the raw slope
        assert res.params_original.vels[0][0] == pytest.approx(0.01, abs=1e-6)
        assert res.params.vels[0][0] == pytest.approx(1.43, abs=1e-4)

    def test_single_shared_time_requires_order_zero(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        pts = np.stack([sphere.exp(p, unit_tangent(sphere, rng, p, 0.1))
                        for _ in range(3)])
        data = rp.TimedDataset(sphere, np.zeros(3), pts)
        with pytest.raises(ValueError):
            rp.fit_polynomial(sphere, data, rp.FitConfig(order=1))
        res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=0))
        assert res.converged
        # a one-step curve over [0, 1], every observation on its first node
        assert len(res.trajectory) == 2
        assert res.trajectory.duration == 1.0

    def test_order_guard(self):
        with pytest.raises(ValueError):
            rp.FitConfig(order=7)

    def test_quotient_invariance_of_fit(self, rng):
        # rotating, scaling and translating every configuration leaves the
        # fitted quality untouched
        space = rp.KendallShapeSpace(4, 2)
        base = space.from_landmarks(rng.standard_normal((4, 2)))
        u = unit_tangent(space, rng, base, 0.4)
        times = np.linspace(0.0, 1.0, 6)
        raw = []
        for t in times:
            q = space.exp(base, t * u + unit_tangent(space, rng, base, 0.02))
            raw.append(q.reshape(4, 2))
        theta = 1.2
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = [3.0 * (pts @ rot.T) + np.array([4.0, -7.0]) for pts in raw]

        def fit(configs):
            pts = np.stack([space.from_landmarks(c) for c in configs])
            data = rp.TimedDataset(space, times, pts)
            return rp.fit_polynomial(
                space, data, rp.FitConfig(order=1, steps=100, max_iters=200)
            )

        r_a = fit(raw)
        r_b = fit(moved)
        assert r_a.r_squared == pytest.approx(r_b.r_squared, abs=1e-6)


class TestDatasetType:
    def test_sorts_by_time(self, rng):
        line = rp.Euclidean(1)
        data = rp.TimedDataset(line, np.array([0.9, 0.1, 0.5]),
                               np.array([[3.0], [1.0], [2.0]]))
        assert np.array_equal(data.times, np.array([0.1, 0.5, 0.9]))
        assert np.array_equal(data.points[:, 0], np.array([1.0, 2.0, 3.0]))

    def test_duplicate_times_allowed(self):
        line = rp.Euclidean(1)
        data = rp.TimedDataset(line, np.array([0.5, 0.5]), np.array([[1.0], [2.0]]))
        assert data.size == 2

    def test_empty_rejected(self):
        line = rp.Euclidean(1)
        with pytest.raises(ValueError):
            rp.TimedDataset(line, np.array([]), np.zeros((0, 1)))


class TestConfigAndInputGuards:
    def test_initial_state_order_mismatch(self, rng):
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, steps=50)
        bad = rp.PolynomialState(data.points[0], ())
        with pytest.raises(ValueError):
            rp.fit_polynomial(sphere, data, rp.FitConfig(order=1, steps=50),
                              initial=bad)

    def test_dataset_shape_mismatch(self):
        sphere = rp.Sphere(2)
        with pytest.raises(ValueError):
            rp.TimedDataset(sphere, np.array([0.0]), np.zeros((1, 4)))


class TestOriginalUnitParameters:
    @pytest.mark.parametrize("name", ["euclidean", "sphere"])
    def test_rescaled_velocities_reproduce_curve(self, name, rng):
        # integrating the original-unit vectors over the original span hits
        # the same nodes as the internal parameters over [0, 1]
        manifold = make_manifold(name)
        _, _, data = random_fit_problem(manifold, 2, rng, steps=100)
        times = 7.0 + 143.0 * data.times
        shifted = rp.TimedDataset(manifold, times, data.points)
        res = rp.fit_polynomial(
            manifold, shifted,
            rp.FitConfig(order=2, steps=100, max_iters=150),
        )
        steps = 100
        internal = rp.integrate_polynomial(manifold, res.params, 1.0, steps)
        original = rp.integrate_polynomial(
            manifold, res.params_original, res.time_scale, steps
        )
        assert np.abs(internal.points - original.points).max() < 1e-9
