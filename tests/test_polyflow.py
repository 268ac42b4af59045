"""Forward integrator: time grids, convergence laws, exact cases, bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest

import riempoly as rp
from riempoly.geometry import Manifold, flat_flow, monomials
from conftest import log_log_slope, make_manifold, node_state, unit_tangent

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class TestTimeGrid:
    def test_requested_times_are_nodes_bit_for_bit(self, rng):
        for duration, steps in ((1.0, 200), (2.7, 13), (143.0, 7)):
            at = np.sort(rng.uniform(0.0, duration, 30))
            grid = rp.time_grid(duration, steps, at)
            assert np.all(np.isin(at, grid))
            assert np.all(np.diff(grid) > 0.0)

    def test_no_step_longer_than_the_spacing(self, rng):
        for duration, steps in ((1.0, 200), (2.7, 13), (143.0, 7)):
            at = rng.uniform(0.0, duration, 30)
            grid = rp.time_grid(duration, steps, at)
            assert np.diff(grid).max() <= duration / steps * (1.0 + 1e-12)
            # and the uniform grid has exactly steps steps
            assert len(rp.time_grid(duration, steps)) == steps + 1

    def test_endpoints_are_exact(self):
        for duration in (1.0, 0.3, 143.0):
            grid = rp.time_grid(duration, 7, [duration / 3.0])
            assert grid[0] == 0.0 and grid[-1] == duration

    def test_tiny_gap_gets_its_own_step(self):
        grid = rp.time_grid(1.0, 10, [0.5, 0.5 + 1e-15])
        i = int(np.searchsorted(grid, 0.5))
        assert grid[i] == 0.5 and grid[i + 1] == 0.5 + 1e-15

    def test_whole_steps_are_not_split_again(self):
        # gaps of a whole number of steps, up to rounding, are not split once
        # more: times on a 50-step grid keep its 51 nodes
        t = np.array([0, 3, 7, 20, 33, 49, 50]) / 50
        assert len(rp.time_grid(1.0, 50, t)) == 51

    def test_zero_duration_gives_one_node(self):
        assert rp.time_grid(0.0, 10).tolist() == [0.0]
        assert rp.time_grid(0.0, 10, [0.0, 0.0]).tolist() == [0.0]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rp.time_grid(1.0, 0)
        with pytest.raises(ValueError):
            rp.time_grid(-1.0, 10)
        for bad in (1.5, -0.2, np.nan):
            with pytest.raises(ValueError):
                rp.time_grid(1.0, 10, [0.5, bad])


class TestFlatSpace:
    def test_quadratic_curve_discrete_law(self):
        # gamma(t) = t^2 from v2 = 2: each step's Taylor move is exact, so
        # the curve meets t^2 at every node of every grid
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.zeros(1), np.array([2.0])))
        for steps in (10, 100, 1000):
            traj = rp.integrate_polynomial(line, state, rp.time_grid(1.0, steps))
            assert np.abs(traj.points[:, 0] - traj.times ** 2).max() < 1e-14

    def test_exact_on_uneven_grids(self, rng):
        # steps of different lengths, down to 1e-12, change nothing
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.zeros(1), np.array([2.0])))
        for steps in (1, 3, 16, 256):
            at = np.concatenate([rng.uniform(0.0, 1.0, 5), [0.4, 0.4 + 1e-12]])
            traj = rp.integrate_polynomial(line, state, rp.time_grid(1.0, steps, at))
            assert np.abs(traj.points[:, 0] - traj.times ** 2).max() < 1e-14

    def test_nodes_are_taylor_sums(self, rng):
        # the node at time t of the flat flow is sum_i t^i/i! v_i
        space = rp.Euclidean(3)
        gamma, vels = rng.standard_normal(3), rng.standard_normal((3, 3))
        times = rp.time_grid(1.0, 40, [0.1234, 0.77])
        traj = rp.integrate_polynomial(space, rp.PolynomialState(gamma, vels), times)
        phi = monomials(times, 3)
        assert phi[2, 7] == pytest.approx(times[7] ** 2 / 2, rel=1e-15)
        expected = phi.T @ np.concatenate([gamma[None], vels])
        assert np.abs(traj.points - expected).max() < 1e-12

    def test_exact_polynomial_limit(self, rng):
        # rich random cubic, fine grid: the Taylor curve itself
        line = rp.Euclidean(3)
        vels = tuple(rng.standard_normal(3) for _ in range(3))
        state = rp.PolynomialState(rng.standard_normal(3), vels)
        traj = rp.integrate_polynomial(line, state, rp.time_grid(1.0, 20000))
        expected = state.gamma + vels[0] + vels[1] / 2.0 + vels[2] / 6.0
        assert np.abs(traj.points[-1] - expected).max() < 1e-10


class TestOrderZeroAndOne:
    def test_order_zero_constant(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        traj = rp.integrate_polynomial(sphere, rp.PolynomialState(p, ()),
                                       rp.time_grid(1.0, 25))
        assert np.array_equal(traj.points, np.tile(p, (26, 1)))

    def test_geodesic_matches_closed_form(self):
        sphere = rp.Sphere(2)
        state = rp.PolynomialState(E1, ((np.pi / 2) * E2,))
        traj = rp.integrate_polynomial(sphere, state, rp.time_grid(1.0, 10000))
        assert np.abs(traj.points[-1] - E2).max() < 1e-3

    def test_sphere_geodesic_stepping_is_exact(self):
        # closed-form per-step exp and transport telescope exactly
        sphere = rp.Sphere(2)
        state = rp.PolynomialState(E1, ((np.pi / 2) * E2,))
        traj = rp.integrate_polynomial(sphere, state, rp.time_grid(1.0, 100))
        assert np.abs(traj.points[-1] - E2).max() < 1e-12

    def test_velocity_norm_constant_on_sphere(self, rng):
        # the step loop's record holds every node's vectors
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        _, (vels, _) = Manifold.integrate(sphere, p, unit_tangent(sphere, rng, p, 0.8)[None],
                                          rp.time_grid(1.0, 300))
        norms = np.linalg.norm(vels[:, 0, :], axis=1)
        assert np.ptp(norms) < 1e-9


class TestHigherOrderOnSphere:
    def test_self_convergence_slope(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        v1 = unit_tangent(sphere, rng, p, 0.7)
        v2 = unit_tangent(sphere, rng, p, 0.9)
        state = rp.PolynomialState(p, (v1, v2))
        ref = rp.integrate_polynomial(sphere, state, rp.time_grid(1.0, 64000)).points[-1]
        steps = np.array([100, 200, 400, 800])
        errs = [
            np.abs(rp.integrate_polynomial(sphere, state, rp.time_grid(1.0, int(s)))
                   .points[-1] - ref).max()
            for s in steps
        ]
        slope = log_log_slope(1.0 / steps, errs)
        assert 1.8 <= slope <= 2.2

    @pytest.mark.parametrize("name", ["sphere", "kendall_8_2", "so3", "so3_general",
                                      "kendall_3d"])
    def test_order_three_second_order_slope(self, name, rng):
        # the move between successive grids, 8 to 64 steps, falls as h^2;
        # the 3-D shape space's RK4 transport is checked out to 128 steps,
        # where a transport error that did not shrink with the grid would
        # stall the moves
        space = make_manifold(name)
        p = space.random_point(rng)
        vels = np.array([unit_tangent(space, rng, p, s) for s in (0.7, 0.9, 1.1)])
        state = rp.PolynomialState(p, vels)
        steps = [8, 16, 32, 64, 128] if name == "kendall_3d" else [8, 16, 32, 64]
        ends = [rp.integrate_polynomial(space, state, rp.time_grid(1.0, s)).points[-1]
                for s in steps]
        gaps = [np.abs(a - b).max() for a, b in zip(ends, ends[1:])]
        slope = log_log_slope(1.0 / np.array(steps[:-1]), gaps)
        assert 1.8 <= slope <= 2.2, slope

    def test_nested_initial_conditions_coincide(self, rng):
        # padding with one zero vector reproduces the lower order bit for bit
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        v1 = unit_tangent(sphere, rng, p, 0.9)
        v2 = unit_tangent(sphere, rng, p, 1.1)
        grid = rp.time_grid(1.0, 200, [0.3141])
        lower = rp.integrate_polynomial(sphere, rp.PolynomialState(p, (v1, v2)), grid)
        padded = rp.integrate_polynomial(
            sphere, rp.PolynomialState(p, (v1, v2, np.zeros(3))), grid
        )
        assert np.abs(lower.points - padded.points).max() < 1e-12

    def test_orders_diverge_when_extra_vector_nonzero(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        v1 = unit_tangent(sphere, rng, p, 0.9)
        v2 = unit_tangent(sphere, rng, p, 1.1)
        grid = rp.time_grid(1.0, 200)
        lower = rp.integrate_polynomial(sphere, rp.PolynomialState(p, (v1,)), grid)
        higher = rp.integrate_polynomial(sphere, rp.PolynomialState(p, (v1, v2)), grid)
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
        grids = (rp.time_grid(1.0, 1), rp.time_grid(1.0, 7, [0.3141]),
                 rp.time_grid(1.0, 200, [0.3141, 0.5, 0.5 + 1e-12]))
        for k in (1, 2, 3):
            for times in grids:
                steps = len(times) - 1
                p = space.random_point(rng)
                vels = _vectors(space, rng, p, k, case)
                ref_points, (loop_vels, _) = Manifold.integrate(space, p, vels, times)
                points, flow = space.integrate(p, vels, times)
                # the step loop records every node's vectors; the roll records
                # its set-up and forms no node's vectors
                assert loop_vels.shape == (steps + 1,) + vels.shape
                assert isinstance(flow, tuple) and len(flow) == 9
                # the record keeps each turn's cos and sin for the reverse,
                # the bits of taking them from its chord lengths again
                speed, cos, sin = flow[5:8]
                assert np.array_equal(cos, np.cos(speed))
                assert np.array_equal(sin, np.sin(speed))
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
        rp.integrate_polynomial(space, state, rp.time_grid(1.0, 50))
        assert calls == []
        # the counter works: the default integrate steps node by node
        Manifold.integrate(space, state.gamma, state.vels, rp.time_grid(1.0, 50))
        assert len(calls) == 50

    @pytest.mark.parametrize("space", [rp.Sphere(2), rp.KendallShapeSpace(8, 2)], ids=str)
    def test_no_drift_over_long_flows(self, space, rng):
        p = space.random_point(rng)
        vels = [unit_tangent(space, rng, p, scale) for scale in (0.8, 0.9, 1.1)]
        # the roll's points, and the vectors of the step loop's record
        grid = rp.time_grid(1.0, 20000)
        traj = rp.integrate_polynomial(space, rp.PolynomialState(p, vels), grid)
        loop_points, (loop_vels, _) = Manifold.integrate(space, p, vels, grid)
        for n in list(range(0, 20001, 1000)):
            point = space.point_residual(traj.points[n])
            tangent = space.tangent_residual(loop_points[n], loop_vels[n]).max()
            assert point <= 1e-15, n
            assert tangent <= 1e-12, n

    @pytest.mark.parametrize("space", [rp.Sphere(2), rp.KendallShapeSpace(8, 2)], ids=str)
    def test_real_frames_stay_orthogonal_over_long_flows(self, space, rng):
        # the frames are real, a complex span's in its real form, and their
        # running product stays orthogonal over the long grid
        p = space.random_point(rng)
        vels = [unit_tangent(space, rng, p, scale) for scale in (0.8, 0.9, 1.1)]
        traj = rp.integrate_polynomial(space, rp.PolynomialState(p, vels),
                                       rp.time_grid(1.0, 20000))
        basis, frames = traj.flow[0], traj.flow[-1]
        size = basis.shape[1] * (2 if np.iscomplexobj(basis) else 1)
        assert frames.dtype == float and frames.shape == (20001, size, size)
        for n in range(0, 20001, 1000):
            gap = np.abs(frames[n].T @ frames[n] - np.eye(size)).max()
            assert gap <= 1e-12, (n, gap)


class TestFlowRecord:
    """integrate returns the points and exactly what its pullback reads."""

    @pytest.mark.parametrize("name", ["euclidean", "sphere", "so3", "so3_general",
                                      "kendall", "kendall_8_2", "kendall_3d"])
    def test_integrate_returns_points_and_record(self, name, rng):
        space = make_manifold(name)
        p = space.random_point(rng)
        vels = np.array([unit_tangent(space, rng, p) for _ in range(2)])
        grid = rp.time_grid(1.0, 10)
        out = space.integrate(p, vels, grid)
        assert len(out) == 2
        points, flow = out
        assert points.shape == (11,) + space.point_shape
        assert isinstance(flow, tuple)
        if name in ("sphere", "kendall", "kendall_8_2"):
            # the roll's set-up, no node's vectors: basis, coordinates,
            # chords, e, u, chord lengths with their cos and sin, and the
            # frames, real: planar shape space's complex span keeps them in
            # their real form [[Re F, -Im F], [Im F, Re F]], twice the size
            assert len(flow) == 9
            basis, coef, chords, e, u, speed, cos, sin, frames = flow
            assert speed.shape == cos.shape == sin.shape == (10,)
            assert np.array_equal(cos, np.cos(speed))
            assert np.array_equal(sin, np.sin(speed))
            assert frames.shape[0] == 11
            size = 2 * len(e) if name.startswith("kendall") else len(e)
            assert frames.dtype == float and frames.shape[1:] == (size, size)
            # e = e0 e_1: the QR's R is upper triangular with a real
            # diagonal, so e0 = +-1, and no chord has an e_1 coordinate
            assert abs(e[0]) == 1.0 and e[0].imag == 0.0 and not e[1:].any()
            assert not u[:, 0].any()
            return
        # every stepped pass keeps the step loop's record, the vectors of
        # every node and the matrix of every step, and nothing else: flat
        # space runs the loop itself, and SO(3) runs it in its algebra
        # (TestAlgebraFlow compares it with the loop bit for bit)
        node_vels, flats = flow
        assert node_vels.shape == (11, 2) + space.tangent_shape
        assert np.array_equal(node_vels[0], vels)
        assert np.array_equal(flats, flat_flow(np.diff(grid), 2))
        if name == "euclidean":
            # each step is the flat polynomial's exact move: the points are
            # p + sum_i phi_i(t_n) v_i to within rounding
            exact = monomials(grid, 2).T @ np.concatenate([p[None], vels])
            assert np.abs(points - exact).max() <= 1e-14

    def test_trajectory_keeps_times_points_and_record(self, rng):
        fields = [f.name for f in dataclasses.fields(rp.Trajectory)]
        assert fields == ["times", "points", "flow"]
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        for vels in ((), (unit_tangent(sphere, rng, p),)):
            traj = rp.integrate_polynomial(sphere, rp.PolynomialState(p, vels),
                                           rp.time_grid(1.0, 10))
            for gone in ("vels", "order", "manifold", "dt"):
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
        traj = rp.integrate_polynomial(sphere, state, rp.time_grid(1.0, steps))
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
        traj = rp.integrate_polynomial(sphere, state, rp.time_grid(1.0, 50))
        for i in (0, 25, 50):
            assert max(node_state(traj, i).residuals(sphere).values()) < 1e-9

    def test_sample_endpoints(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        state = rp.PolynomialState(p, (unit_tangent(sphere, rng, p, 0.5),))
        traj = rp.integrate_polynomial(sphere, state, rp.time_grid(2.0, 40))
        assert np.array_equal(rp.sample_curve(traj, [0.0])[0], traj.points[0])
        assert np.array_equal(rp.sample_curve(traj, [2.0])[0], traj.points[-1])

    def test_snap_to_nearest_with_half_down(self):
        # display sampling takes the nearest node, the earlier one on a tie;
        # the nodes of this grid, j / 8, are exact
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.ones(1),))
        traj = rp.integrate_polynomial(line, state, rp.time_grid(1.0, 8))
        times = np.array([0.32, 0.30, 0.3125, 0.0, 1.0])
        assert rp.sample_curve(traj, times)[:, 0].tolist() == [0.375, 0.25, 0.25, 0.0, 1.0]
        # the nodes of the fit itself are looked up exactly
        assert traj.node_index(0.375) == 3
        assert traj.node_index(traj.times).tolist() == list(range(9))
        for bad in (0.3125, 1.5, -0.2, np.nextafter(1.0, 2.0), np.nan):
            with pytest.raises(ValueError):
                traj.node_index(bad)
            with pytest.raises(ValueError):
                traj.node_index(np.array([0.5, bad]))

    def test_zero_length_grid_has_one_node(self):
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.ones(1),))
        traj = rp.integrate_polynomial(line, state, rp.time_grid(0.0, 10))
        assert traj.times.tolist() == [0.0] and traj.points.tolist() == [[0.0]]
        assert traj.node_index(0.0) == 0
        assert traj.node_index(np.array([0.0, 0.0])).tolist() == [0, 0]
        assert rp.sample_curve(traj, [0.0]).tolist() == [[0.0]]
        for bad in (5e-10, 1e-6):
            with pytest.raises(ValueError):
                traj.node_index(bad)
            with pytest.raises(ValueError):
                rp.sample_curve(traj, [bad])

    def test_out_of_range_rejected(self):
        line = rp.Euclidean(1)
        state = rp.PolynomialState(np.zeros(1), (np.ones(1),))
        traj = rp.integrate_polynomial(line, state, rp.time_grid(1.0, 10))
        for bad in (1.5, -0.2, -1e-10, 1.0 + 1e-10, np.nan):
            with pytest.raises(ValueError):
                rp.sample_curve(traj, [0.5, bad])

    def test_bad_arguments(self):
        line = rp.Euclidean(1)
        sphere = rp.Sphere(2)
        # a rolled pass reads a NaN turn as no turn and would put every
        # node at the base point, so a grid that is not finite must not
        # reach it
        states = {line: rp.PolynomialState(np.zeros(1), (np.ones(1),)),
                  sphere: rp.PolynomialState([0.0, 0.0, 1.0], ([1.0, 0.0, 0.0],))}
        for bad in ([], [0.0, 0.5, 0.5], [1.0, 0.0], [[0.0, 1.0]],
                    [0.0, np.nan, 1.0], [np.nan], [0.0, np.inf], [-np.inf, 0.0]):
            for space, state in states.items():
                with pytest.raises(ValueError):
                    rp.integrate_polynomial(space, state, np.array(bad))


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
