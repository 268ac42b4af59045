"""Forward integrator: convergence laws, exact cases, bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest

import riempoly as rp
from riempoly.geometry import Manifold, falling_factorials
from riempoly.polyflow import IntegrationError
from conftest import log_log_slope, make_manifold, node_state, unit_tangent

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class TestFlatSpace:
    def test_quadratic_curve_discrete_law(self):
        # gamma(t) = t^2 from v2 = 2; the forward scheme lands exactly on the
        # falling-factorial value T(T - dt), so the error is exactly dt
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.zeros(1), np.array([2.0])))
        for steps in (10, 100, 1000):
            traj = rp.integrate_polynomial(line, state, 1.0, steps)
            err = abs(float(traj.points[-1][0]) - 1.0)
            assert err == pytest.approx(1.0 / steps, rel=1e-9)

    def test_first_order_slope(self):
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.zeros(1), np.array([2.0])))
        steps = np.array([16, 32, 64, 128, 256])
        errs = [
            abs(float(rp.integrate_polynomial(line, state, 1.0, s).points[-1][0]) - 1.0)
            for s in steps
        ]
        slope = log_log_slope(1.0 / steps, errs)
        assert 0.8 <= slope <= 1.2

    def test_nodes_are_falling_factorial_sums(self, rng):
        # node n of the flat flow is sum_i phi_i(n) v_i, phi_i(n) = dt^i C(n, i)
        space = rp.Euclidean(3)
        gamma, vels = rng.standard_normal(3), rng.standard_normal((3, 3))
        steps = 40
        traj = rp.integrate_polynomial(space, rp.PolynomialState(gamma, vels), 1.0, steps)
        phi = falling_factorials(np.arange(steps + 1), 1.0 / steps, 3)
        assert phi[2, 7] == pytest.approx(math.comb(7, 2) / steps**2, rel=1e-14)
        expected = phi.T @ np.concatenate([gamma[None], vels])
        assert np.abs(traj.points - expected).max() < 1e-12

    def test_exact_polynomial_limit(self, rng):
        # rich random cubic, fine grid: converges to the Taylor curve
        line = rp.Euclidean(3)
        vels = tuple(rng.standard_normal(3) for _ in range(3))
        state = rp.PolynomialState(rng.standard_normal(3), vels)
        traj = rp.integrate_polynomial(line, state, 1.0, 20000)
        expected = state.gamma + vels[0] + vels[1] / 2.0 + vels[2] / 6.0
        assert np.abs(traj.points[-1] - expected).max() < 5e-4


class TestOrderZeroAndOne:
    def test_order_zero_constant(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        traj = rp.integrate_polynomial(sphere, rp.PolynomialState(p, ()), 1.0, 25)
        assert np.array_equal(traj.points, np.tile(p, (26, 1)))

    def test_geodesic_matches_closed_form(self):
        sphere = rp.Sphere(2)
        state = rp.PolynomialState(E1, ((np.pi / 2) * E2,))
        traj = rp.integrate_polynomial(sphere, state, 1.0, 10000)
        assert np.abs(traj.points[-1] - E2).max() < 1e-3

    def test_sphere_geodesic_stepping_is_exact(self):
        # closed-form per-step exp and transport telescope exactly
        sphere = rp.Sphere(2)
        state = rp.PolynomialState(E1, ((np.pi / 2) * E2,))
        traj = rp.integrate_polynomial(sphere, state, 1.0, 100)
        assert np.abs(traj.points[-1] - E2).max() < 1e-12

    def test_velocity_norm_constant_on_sphere(self, rng):
        # the step loop's record holds every node's vectors
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        _, vels = Manifold.integrate(sphere, p, unit_tangent(sphere, rng, p, 0.8)[None],
                                     1.0 / 300, 300)
        norms = np.linalg.norm(vels[:, 0, :], axis=1)
        assert np.ptp(norms) < 1e-9


class TestHigherOrderOnSphere:
    def test_self_convergence_slope(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        v1 = unit_tangent(sphere, rng, p, 0.7)
        v2 = unit_tangent(sphere, rng, p, 0.9)
        state = rp.PolynomialState(p, (v1, v2))
        ref = rp.integrate_polynomial(sphere, state, 1.0, 64000).points[-1]
        steps = np.array([100, 200, 400, 800])
        errs = [
            np.abs(rp.integrate_polynomial(sphere, state, 1.0, int(s)).points[-1] - ref).max()
            for s in steps
        ]
        slope = log_log_slope(1.0 / steps, errs)
        assert 0.8 <= slope <= 1.2

    def test_nested_initial_conditions_coincide(self, rng):
        # padding with one zero vector reproduces the lower order bit for bit
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        v1 = unit_tangent(sphere, rng, p, 0.9)
        v2 = unit_tangent(sphere, rng, p, 1.1)
        lower = rp.integrate_polynomial(
            sphere, rp.PolynomialState(p, (v1, v2)), 1.0, 200
        )
        padded = rp.integrate_polynomial(
            sphere, rp.PolynomialState(p, (v1, v2, np.zeros(3))), 1.0, 200
        )
        assert np.abs(lower.points - padded.points).max() < 1e-12

    def test_orders_diverge_when_extra_vector_nonzero(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        v1 = unit_tangent(sphere, rng, p, 0.9)
        v2 = unit_tangent(sphere, rng, p, 1.1)
        lower = rp.integrate_polynomial(sphere, rp.PolynomialState(p, (v1,)), 1.0, 200)
        higher = rp.integrate_polynomial(sphere, rp.PolynomialState(p, (v1, v2)), 1.0, 200)
        assert np.abs(lower.points[-1] - higher.points[-1]).max() > 1e-2


ROLLED_SPACES = {
    "sphere1": lambda: rp.Sphere(1),
    "sphere2": lambda: rp.Sphere(2),
    "sphere100": lambda: rp.Sphere(100),
    "kendall3": lambda: rp.KendallShapeSpace(3, 2),
    "kendall8": lambda: rp.KendallShapeSpace(8, 2),
    "kendall64": lambda: rp.KendallShapeSpace(64, 2),
}


def _vectors(space, rng, p, k, case):
    """k unit tangents at p, shaped by one of the rolled-flow test cases."""
    vels = np.array([unit_tangent(space, rng, p) for _ in range(k)])
    if case == "pad":                   # the warm start's zero last vector
        vels[-1] = 0.0
    elif case == "zero_v1":
        vels[0] = 0.0
    elif case == "collinear":
        vels = np.array([(i + 1.5) * vels[0] for i in range(k)])
    elif case == "zero":
        vels[:] = 0.0
    elif case == "tiny":
        vels *= 1e-10
    return vels


class TestRolledFlow:
    """Sphere and planar shape space integrate in one closed form."""

    @pytest.mark.parametrize("case", ["random", "pad", "zero_v1", "collinear", "zero", "tiny"])
    @pytest.mark.parametrize("name", sorted(ROLLED_SPACES))
    def test_matches_step_loop(self, name, case, rng):
        space = ROLLED_SPACES[name]()
        for k in (1, 2, 3):
            for steps in (1, 7, 200):
                p = space.random_point(rng)
                vels = _vectors(space, rng, p, k, case)
                dt = 1.0 / steps
                ref_points, loop_vels = Manifold.integrate(space, p, vels, dt, steps)
                points, flow = space.integrate(p, vels, dt, steps)
                # the step loop records every node's vectors; the roll records
                # its set-up and forms no node's vectors
                assert loop_vels.shape == (steps + 1,) + vels.shape
                assert isinstance(flow, tuple)
                where = f"order {k}, {steps} steps"
                assert points.shape == ref_points.shape
                assert np.abs(points - ref_points).max() <= 1e-12, where
                # the initial node is the input itself
                assert np.array_equal(points[0], p)
                if case == "zero":
                    assert np.array_equal(points, np.tile(p, (steps + 1, 1))), where

    @pytest.mark.parametrize("space", [rp.Sphere(2), rp.KendallShapeSpace(8, 2)], ids=str)
    def test_takes_no_step(self, space, rng, monkeypatch):
        calls = []
        original = type(space).step

        def counted(self, p, v, stack):
            calls.append(1)
            return original(self, p, v, stack)

        monkeypatch.setattr(type(space), "step", counted)
        p = space.random_point(rng)
        state = rp.PolynomialState(p, [unit_tangent(space, rng, p) for _ in range(3)])
        rp.integrate_polynomial(space, state, 1.0, 50)
        assert calls == []
        # the counter works: the default integrate steps node by node
        Manifold.integrate(space, state.gamma, state.vels, 0.02, 50)
        assert len(calls) == 50

    @pytest.mark.parametrize("space", [rp.Sphere(2), rp.KendallShapeSpace(8, 2)], ids=str)
    def test_no_drift_over_long_flows(self, space, rng):
        p = space.random_point(rng)
        vels = [unit_tangent(space, rng, p, scale) for scale in (0.8, 0.9, 1.1)]
        # the roll's points, and the vectors of the step loop's record
        traj = rp.integrate_polynomial(space, rp.PolynomialState(p, vels), 1.0, 20000)
        loop_points, loop_vels = Manifold.integrate(space, p, vels, 1.0 / 20000, 20000)
        for n in list(range(0, 20001, 1000)):
            point = max(space.point_residuals(traj.points[n]).values())
            tangent = max(max(space.tangent_residuals(loop_points[n], v).values())
                          for v in loop_vels[n])
            assert point <= 1e-15, n
            assert tangent <= 1e-12, n


class TestFlowRecord:
    """integrate returns the points and exactly what its pullback reads."""

    @pytest.mark.parametrize("name", ["euclidean", "sphere", "so3", "so3_general",
                                      "kendall", "kendall_8_2", "kendall_3d"])
    def test_integrate_returns_points_and_record(self, name, rng):
        space = make_manifold(name)
        p = space.random_point(rng)
        vels = np.array([unit_tangent(space, rng, p) for _ in range(2)])
        out = space.integrate(p, vels, 0.1, 10)
        assert len(out) == 2
        points, flow = out
        assert points.shape == (11,) + space.point_shape
        if name in ("sphere", "kendall", "kendall_8_2"):
            # the roll's set-up, no node's vectors
            assert isinstance(flow, tuple)
        else:
            # the step loop's vectors of every node
            assert flow.shape == (11, 2) + space.tangent_shape
            assert np.array_equal(flow[0], vels)

    def test_trajectory_keeps_times_points_and_record(self, rng):
        fields = [f.name for f in dataclasses.fields(rp.Trajectory)]
        assert fields == ["times", "points", "flow"]
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        for vels in ((), (unit_tangent(sphere, rng, p),)):
            traj = rp.integrate_polynomial(sphere, rp.PolynomialState(p, vels), 1.0, 10)
            for gone in ("vels", "order", "manifold"):
                assert not hasattr(traj, gone)
            # order zero, the constant curve, is the one trajectory without a record
            assert (traj.flow is None) == (len(vels) == 0)


class TestReparametrization:
    @pytest.mark.parametrize("order", [2, 3])
    def test_collinear_curves_stay_on_geodesic_image(self, order, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        u = unit_tangent(sphere, rng, p, 1.0)
        coeffs = [0.8, 1.1, -0.9][:order]
        state = rp.PolynomialState(p, tuple(c * u for c in coeffs))
        steps = 400
        traj = rp.integrate_polynomial(sphere, state, 1.0, steps)
        # distance from each node to the great circle through p along u
        for point in traj.points:
            in_plane = np.dot(point, p) ** 2 + np.dot(point, u) ** 2
            off = np.arccos(np.clip(np.sqrt(in_plane), -1.0, 1.0))
            assert off <= 5.0 * (1.0 / steps)


class TestTrajectoryAndSampling:
    def test_states_pass_validation(self, rng, monkeypatch):
        # every node's vectors are the step loop's record
        monkeypatch.setattr(rp.Sphere, "integrate", Manifold.integrate)
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        state = rp.PolynomialState(
            p, (unit_tangent(sphere, rng, p, 0.5), unit_tangent(sphere, rng, p, 0.5))
        )
        traj = rp.integrate_polynomial(sphere, state, 1.0, 50)
        for i in (0, 25, 50):
            assert max(node_state(traj, i).residuals(sphere).values()) < 1e-9

    def test_sample_endpoints(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        state = rp.PolynomialState(p, (unit_tangent(sphere, rng, p, 0.5),))
        traj = rp.integrate_polynomial(sphere, state, 2.0, 40)
        assert np.array_equal(rp.sample_curve(traj, [0.0])[0], traj.points[0])
        assert np.array_equal(rp.sample_curve(traj, [2.0])[0], traj.points[-1])

    def test_snap_to_nearest_with_half_down(self):
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.ones(1),))
        traj = rp.integrate_polynomial(line, state, 1.0, 10)
        assert traj.node_index(0.26) == 3
        assert traj.node_index(0.24) == 2
        # exact midpoint resolves to the earlier node
        assert traj.node_index(0.25) == 2
        # times within round-off of the ends snap to them
        assert traj.node_index(-1e-10) == 0
        assert traj.node_index(1.0 + 1e-10) == 10
        # an array of times gives the scalar answers
        times = np.array([0.26, 0.24, 0.25, -1e-10, 1.0 + 1e-10])
        nodes = traj.node_index(times)
        assert nodes.tolist() == [traj.node_index(t) for t in times.tolist()]
        assert nodes.tolist() == [3, 2, 2, 0, 10]
        for bad in (1.5, -0.2, np.nan):
            with pytest.raises(ValueError):
                traj.node_index(bad)
            with pytest.raises(ValueError):
                traj.node_index(np.array([0.5, bad]))

    def test_zero_length_grid_snaps_within_1e9(self):
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.ones(1),))
        traj = rp.integrate_polynomial(line, state, 0.0, 10)
        assert traj.dt == 0.0
        assert traj.node_index(0.0) == 0 and traj.node_index(5e-10) == 0
        assert traj.node_index(np.array([0.0, 5e-10])).tolist() == [0, 0]
        with pytest.raises(ValueError):
            traj.node_index(1e-6)

    def test_out_of_range_rejected(self):
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.ones(1),))
        traj = rp.integrate_polynomial(line, state, 1.0, 10)
        with pytest.raises(ValueError):
            rp.sample_curve(traj, [1.5])
        with pytest.raises(ValueError):
            rp.sample_curve(traj, [-0.2])

    def test_integration_error_carries_step(self, rng):
        # a cut-locus failure mid-flight surfaces with its time index
        class Broken(rp.Euclidean):
            def step(self, p, v, stack):
                if p[0] > 0.5:
                    from riempoly.geometry import GeometryError
                    raise GeometryError("boom")
                return super().step(p, v, stack)

        line = Broken(1)
        state = rp.PolynomialState(np.zeros(1), (np.ones(1),))
        with pytest.raises(IntegrationError) as err:
            rp.integrate_polynomial(line, state, 1.0, 10)
        assert err.value.step > 0

    def test_bad_arguments(self):
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.ones(1),))
        with pytest.raises(ValueError):
            rp.integrate_polynomial(line, state, 1.0, 0)
        with pytest.raises(ValueError):
            rp.integrate_polynomial(line, state, -1.0, 10)


class TestCollinearityDiagnostic:
    def test_collinear_family(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        v = unit_tangent(sphere, rng, p, 1.0)
        state = rp.PolynomialState(p, (v, 2.0 * v, -3.0 * v))
        assert rp.collinearity_diagnostic(sphere, state) == pytest.approx(1.0)

    def test_orthogonal_pair_scores_zero(self, rng):
        sphere = rp.Sphere(2)
        p = np.array([1.0, 0.0, 0.0])
        state = rp.PolynomialState(p, (E2, E3))
        assert rp.collinearity_diagnostic(sphere, state) == 0.0

    def test_zero_extra_vector_skipped(self):
        sphere = rp.Sphere(2)
        state = rp.PolynomialState(E1, (E2, np.zeros(3), 2.0 * E2))
        assert rp.collinearity_diagnostic(sphere, state) == pytest.approx(1.0)

    def test_requires_order_two(self):
        sphere = rp.Sphere(2)
        with pytest.raises(ValueError):
            rp.collinearity_diagnostic(sphere, rp.PolynomialState(E1, (E2,)))

    def test_zero_velocity_rejected(self):
        sphere = rp.Sphere(2)
        state = rp.PolynomialState(E1, (np.zeros(3), E2))
        with pytest.raises(ValueError):
            rp.collinearity_diagnostic(sphere, state)
