"""Estimation machinery: objective, reverse pass, descent, statistics."""

import math
import pickle
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import riempoly.cli
import riempoly.geometry
import riempoly.regress
import riempoly as rp
from riempoly.geometry import CutLocusError, monomials
from riempoly.regress import (
    ZeroVarianceError,
    _constant_gradient,
    _design_metric,
    integrate_adjoint,
)
from conftest import (
    RAT_FIXTURE,
    adjoint_reference,
    adjoint_vs_fd,
    log_log_slope,
    make_manifold,
    objective_sse,
    random_fit_problem,
    residual_logs,
    rolled_gradient_reference,
    unit_tangent,
)

# the spaces whose gradient is exact, and those of them whose pass rolls
ROLLED = ["sphere", "sphere_15", "kendall", "kendall_8_2"]
EXACT_GRADIENT = ["euclidean"] + ROLLED


def fd_bound(name, steps):
    """Largest mismatch of an exact gradient against central differences.

    The flat step loop sums its position over the steps, so on a fine grid
    the differences' rounding noise reaches a few 1e-9 there.
    """
    return 1e-8 if name == "euclidean" and steps > 100 else 1e-9


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
        times = np.array([0.0, 0.0651, 0.2, 0.385, 0.6, 1.0])
        _, gram, precond = _design_metric(times, 3)
        assert np.abs(precond @ gram - np.eye(4)).max() < 1e-9

    def test_matches_monomial_design(self):
        # phi_i(t) = t^i / i!: the flat curve's basis at the observation
        # times themselves, which the curve meets exactly
        times = np.array([0.0, 0.1337, 0.5, 1.0])
        design, gram, _ = _design_metric(times, 3)
        phi = np.array([[t ** i / math.factorial(i) for t in times]
                        for i in range(4)])
        assert np.abs(design - phi).max() < 1e-15
        assert np.abs(gram - 0.5 * phi @ phi.T).max() < 1e-15

    def test_rank_deficient_design(self):
        # two distinct times for three blocks: pinv on the range, identity
        # on the null space
        _, gram, precond = _design_metric(np.array([0.0, 1.0, 1.0]), 2)
        pinv = np.linalg.pinv(gram)
        expected = pinv + np.eye(3) - gram @ pinv
        assert np.abs(precond - expected).max() < 1e-9


class TestObjective:
    def test_exact_samples_give_zero(self, rng):
        sphere = rp.Sphere(2)
        times = np.array([0.0, 0.5, 1.0])
        state, traj, _ = random_fit_problem(sphere, 2, rng, steps=200, times=times)
        pts = np.stack([traj.points[traj.node_index(t)] for t in times])
        data = rp.TimedDataset(sphere, times, pts)
        assert objective_sse(sphere, traj, data) < 1e-28

    def test_single_observation_squared_distance(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        traj = rp.integrate_polynomial(sphere, rp.PolynomialState(p, ()),
                                       rp.time_grid(1.0, 10, [0.4]))
        theta = 0.7
        y = sphere.exp(p, unit_tangent(sphere, rng, p, theta))
        data = rp.TimedDataset(sphere, np.array([0.4]), y[None])
        assert objective_sse(sphere, traj, data) == pytest.approx(theta**2, abs=1e-12)

    def test_flat_space_matches_classical_residual(self, rng):
        line = rp.Euclidean(1)
        t = np.linspace(0.0, 1.0, 12)
        y = 0.8 * t - 0.3 + 0.05 * rng.standard_normal(12)
        state = rp.PolynomialState(np.array([-0.3]), (np.array([0.8]),))
        traj = rp.integrate_polynomial(line, state, rp.time_grid(1.0, 1200, t))
        data = rp.TimedDataset(line, t, y[:, None])
        # the curve meets every observation at its own time
        fitted = -0.3 + 0.8 * t
        classical = float(np.mean((fitted - y) ** 2))
        assert objective_sse(line, traj, data) == pytest.approx(classical, abs=1e-14)


class TestAdjoint:
    def test_zero_gradients_on_interpolated_data(self, rng):
        sphere = rp.Sphere(2)
        times = np.array([0.0, 0.25, 0.75, 1.0])
        state, traj, _ = random_fit_problem(sphere, 2, rng, steps=500, times=times)
        pts = np.stack([traj.points[traj.node_index(t)] for t in times])
        data = rp.TimedDataset(sphere, times, pts)
        nodes = traj.node_index(data.times)
        grads = integrate_adjoint(sphere, traj, nodes, residual_logs(sphere, traj, data))
        assert max(np.abs(g).max() for g in grads) < 1e-8

    def test_order_zero_reduces_to_mean_of_logs(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        traj = rp.integrate_polynomial(sphere, rp.PolynomialState(p, ()),
                                       rp.time_grid(1.0, 100, np.linspace(0, 1, 5)))
        pts = np.stack([
            sphere.exp(p, unit_tangent(sphere, rng, p, 0.4)) for _ in range(5)
        ])
        data = rp.TimedDataset(sphere, np.linspace(0, 1, 5), pts)
        nodes = traj.node_index(data.times)
        grads = integrate_adjoint(sphere, traj, nodes, residual_logs(sphere, traj, data))
        logs = sphere.log_many(np.broadcast_to(p, pts.shape), pts)
        expected = -(2.0 / 5.0) * logs.sum(axis=0)
        assert np.abs(grads[0] - expected).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", EXACT_GRADIENT)
    def test_matches_finite_differences(self, name, k, rng):
        # the gradient of the discrete objective itself, at observation
        # times off the uniform grid: the mismatch is the differences' own
        # noise, and does not shrink with the spacing
        for steps in (25, 1000):
            assert adjoint_vs_fd(make_manifold(name), k, rng, steps=steps) < 1e-9

    @pytest.mark.parametrize("name", EXACT_GRADIENT)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shared_nodes_match_finite_differences(self, name, k, rng):
        # several observations on the first node, on one interior node and
        # on the last one: their cotangents are summed per node
        times = (0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
        for steps in (25, 1000):
            rel = adjoint_vs_fd(make_manifold(name), k, rng, steps=steps, times=times)
            assert rel < fd_bound(name, steps)

    @pytest.mark.parametrize("name", EXACT_GRADIENT)
    @pytest.mark.parametrize("case", ["zero_v1", "all_zero", "parallel"])
    def test_degenerate_vectors_match_finite_differences(self, name, case, rng):
        # a first turn of zero angle, a curve that never turns, and vectors
        # that span a single line: the rolled pass has no special case for
        # any of them but the zero turn
        vectors, orders = {
            "zero_v1": (lambda v: v * (np.arange(len(v)) > 0)[:, None], (2, 3)),
            "all_zero": (lambda v: 0.0 * v, (1, 2, 3)),
            "parallel": (lambda v: np.outer([1.0, 2.0, -1.5][:len(v)], v[0]), (2, 3)),
        }[case]
        for k in orders:
            for steps in (25, 1000):
                rel = adjoint_vs_fd(make_manifold(name), k, rng, scale=0.3,
                                    steps=steps, vectors=vectors)
                assert rel < fd_bound(name, steps)

    def test_gradients_are_tangent(self, rng):
        sphere = rp.Sphere(2)
        state, traj, data = random_fit_problem(sphere, 2, rng, steps=300)
        nodes = traj.node_index(data.times)
        grads = integrate_adjoint(sphere, traj, nodes, residual_logs(sphere, traj, data))
        for g in grads:
            assert abs(np.dot(g, state.gamma)) < 1e-10

    @pytest.mark.parametrize("name", ["euclidean", "sphere", "so3", "so3_general",
                                      "kendall", "kendall_8_2", "kendall_3d"])
    @pytest.mark.parametrize("times", [(0.0, 0.33, 0.71, 1.0),
                                       (0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0)],
                             ids=["distinct", "shared"])
    def test_operator_recursion_matches_reference(self, name, times, rng, monkeypatch):
        # the default pullback, map by map; the rolled geometries override
        # it and integrate, so on them both are called as the base class's,
        # whose record holds every node's vectors
        m = make_manifold(name)
        monkeypatch.setattr(type(m), "integrate", rp.Manifold.integrate)
        monkeypatch.setattr(type(m), "pullback", rp.Manifold.pullback)
        for k in range(4):
            _, traj, data = random_fit_problem(m, k, rng, scale=0.4, steps=70,
                                               times=times)
            expected = adjoint_reference(m, traj, data)
            nodes = traj.node_index(data.times)
            got = integrate_adjoint(m, traj, nodes, residual_logs(m, traj, data))
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ["euclidean", "sphere", "so3", "so3_general",
                                      "kendall", "kendall_8_2", "kendall_3d"])
    def test_order_zero_takes_no_reverse_pass(self, name, rng, monkeypatch):
        # every node of the constant curve is its base point, so the gradient
        # is the tangent part of the summed cotangents, with no pullback
        m = make_manifold(name)

        def refused(*args):
            raise AssertionError("pullback called at order zero")

        for cls in {type(m), rp.Manifold}:
            monkeypatch.setattr(cls, "pullback", refused)
        _, traj, data = random_fit_problem(m, 0, rng, scale=0.4, steps=70)
        assert traj.flow is None
        logs = residual_logs(m, traj, data)
        nodes = traj.node_index(data.times)
        got = integrate_adjoint(m, traj, nodes, logs)
        expected = m.project_tangent(traj.points[0],
                                     np.sum(logs, axis=0) * (-2.0 / data.size))
        assert got.shape == (1,) + m.tangent_shape
        assert np.abs(got[0] - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ROLLED)
    @pytest.mark.parametrize("times", [(0.0, 0.33, 0.71, 1.0),
                                       (0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0)],
                             ids=["distinct", "shared"])
    def test_rolled_pass_matches_ambient_reference(self, name, times, rng):
        # the span's basis, the out-of-span prefix sums and the base point's
        # rotation against D x D frames and expm's Frechet derivative; the
        # second draw zeroes v_1, so the first turn has a zero angle
        m = make_manifold(name)
        for k in range(4):
            for vectors in (None, lambda v: v * (np.arange(len(v)) > 0)[:, None]):
                state, traj, data = random_fit_problem(m, k, rng, scale=0.4, steps=30,
                                                       times=times, vectors=vectors)
                expected = rolled_gradient_reference(m, state, traj, data)
                nodes = traj.node_index(data.times)
                got = integrate_adjoint(m, traj, nodes, residual_logs(m, traj, data))
                assert got.shape == expected.shape
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("manifold", [rp.Sphere(2), rp.KendallShapeSpace(8, 2)],
                             ids=["sphere", "kendall_8_2"])
    def test_closed_form_operators_call_no_per_node_maps(self, manifold, rng,
                                                         monkeypatch):
        _, traj, data = random_fit_problem(manifold, 2, rng, steps=50)
        logs = residual_logs(manifold, traj, data)
        calls = Counter()
        cls = type(manifold)
        for name in ("transport", "curvature", "project_tangent"):
            def counted(*args, _name=name, _fn=getattr(cls, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        nodes = traj.node_index(data.times)
        integrate_adjoint(manifold, traj, nodes, logs)
        assert sum(calls.values()) == 0

    @pytest.mark.parametrize("bad, fault", [
        (lambda nodes: nodes[::-1], "non-decreasing order"),
        (lambda nodes: nodes + 1000, r"nodes must index the \d+ nodes of traj"),
        (lambda nodes: nodes - 1, r"nodes must index the \d+ nodes of traj"),
        (lambda nodes: nodes[1:], "one integer node index per row of logs"),
        (lambda nodes: nodes.astype(float), "one integer node index per row of logs"),
    ], ids=["unsorted", "past_the_end", "negative", "too_few", "not_integer"])
    def test_nodes_are_checked(self, bad, fault, rng):
        # nodes come from the caller: one node of traj per row of logs, in
        # order, or ValueError names the condition that failed
        sphere = rp.Sphere(2)
        _, traj, data = random_fit_problem(sphere, 1, rng, steps=70,
                                           times=(0.0, 0.0, 0.33, 0.71, 1.0))
        nodes = traj.node_index(data.times)
        logs = residual_logs(sphere, traj, data)
        integrate_adjoint(sphere, traj, nodes, logs)
        with pytest.raises(ValueError, match=fault):
            integrate_adjoint(sphere, traj, bad(nodes), logs)

    def test_memory_is_flat_in_the_step_count(self, rng):
        # the default pullback, which flat space runs, carries k + 1
        # multiplier rows node by node and reads each cotangent as it
        # passes, and SO(3)'s builds its node maps, transports included, in
        # blocks of at most so3._BLOCK_BYTES, so twenty times the nodes
        # leave the pass's peak allocation where it was, below 64 KiB
        assert "pullback" not in vars(rp.Euclidean)
        for space in (rp.Euclidean(16), make_manifold("so3_general")):
            state, _, data = random_fit_problem(space, 3, rng, scale=0.3, steps=200,
                                                times=tuple(np.linspace(0.0, 1.0, 24)))
            for steps in (200, 4000):
                traj = rp.integrate_polynomial(space, state,
                                               rp.time_grid(1.0, steps, data.times))
                logs = residual_logs(space, traj, data)
                nodes = traj.node_index(data.times)
                integrate_adjoint(space, traj, nodes, logs)  # one-time set-up untraced
                tracemalloc.start()
                try:
                    integrate_adjoint(space, traj, nodes, logs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 64 * 1024, (space.name, steps, peak)

    @pytest.mark.parametrize("name", ROLLED)
    def test_rolled_pass_needs_no_more_memory_than_the_roll(self, name, rng):
        # the reverse of roll keeps the roll's arrays and a few of its own of
        # the same sizes, and nothing of size steps x D x D
        space = make_manifold(name)
        state, _, data = random_fit_problem(space, 3, rng, scale=0.3, steps=200,
                                            times=tuple(np.linspace(0.0, 1.0, 24)))
        grid = rp.time_grid(1.0, 4000, data.times)
        traj = rp.integrate_polynomial(space, state, grid)
        logs = residual_logs(space, traj, data)
        nodes = traj.node_index(data.times)
        integrate_adjoint(space, traj, nodes, logs)      # one-time set-up untraced
        peaks = []
        for run in (lambda: rp.integrate_polynomial(space, state, grid),
                    lambda: integrate_adjoint(space, traj, nodes, logs)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    @pytest.mark.parametrize("space", [rp.Sphere(2), rp.KendallShapeSpace(8, 2)],
                             ids=["sphere", "kendall_8_2"])
    def test_roll_is_set_up_once_per_pass(self, space, rng, monkeypatch):
        # the forward pass records its set-up in the trajectory, and the
        # reverse pass reads it: one build per order >= 1 integration
        builds, passes = [], []
        rolling = riempoly.geometry._rolling
        integrate = riempoly.regress.integrate_polynomial

        def counted_rolling(*args):
            builds.append(1)
            return rolling(*args)

        def counted_integrate(manifold, state, *args):
            if state.order:
                passes.append(state)
            return integrate(manifold, state, *args)

        _, _, data = random_fit_problem(space, 2, rng, scale=0.5, steps=50)
        monkeypatch.setattr(riempoly.geometry, "_rolling", counted_rolling)
        monkeypatch.setattr(riempoly.regress, "integrate_polynomial", counted_integrate)
        res = rp.fit_polynomial(space, data, rp.FitConfig(order=2, steps=50))
        assert res.iterations > 1
        # the passes are the line search's candidates: the constant start
        # from the mean takes none
        assert len(passes) >= res.iterations and len(builds) == len(passes)
        assert all(state.vels.any() for state in passes)

    @pytest.mark.parametrize("space", [rp.Sphere(2), rp.KendallShapeSpace(8, 2)],
                             ids=["sphere", "kendall_8_2"])
    def test_chord_table_is_built_once_per_grid_and_order(self, space, rng):
        # a descent's grid and order never change, so its candidates share
        # one read-only chord table instead of building one each
        chords = riempoly.geometry._chords
        _, _, data = random_fit_problem(space, 2, rng, scale=0.5, steps=50)
        chords.cache_clear()
        res = rp.fit_polynomial(space, data, rp.FitConfig(order=2, steps=50))
        info = chords.cache_info()
        # one lookup per roll, every candidate's pass a roll
        assert res.iterations > 1 and info.hits + info.misses >= res.iterations
        assert info.misses == 1, info
        # the memo is keyed by the grid's bytes and the order: two grids of
        # equal length, or one grid at two orders, get separate tables
        grid = rp.time_grid(1.0, 10)
        table = chords(grid.tobytes(), 2)
        assert chords(grid.copy().tobytes(), 2) is table
        assert not np.array_equal(chords((2.0 * grid).tobytes(), 2), table)
        assert chords(grid.tobytes(), 3).shape == (3, 10)
        assert chords.cache_info().misses == 4
        expected = monomials(grid, 2)
        assert np.array_equal(table, expected[1:, 1:] - expected[1:, :-1])
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        # and the memo stays bounded
        for n in range(2 * riempoly.geometry._CHORD_TABLES):
            chords(rp.time_grid(1.0 + n, 10).tobytes(), 2)
        assert chords.cache_info().currsize == riempoly.geometry._CHORD_TABLES

    @pytest.mark.parametrize("name", ROLLED)
    def test_pullback_leaves_the_flow_record_as_built(self, name, rng):
        # the set-up is shared by every reverse pass of a trajectory: two
        # passes give the bytes of a pass on a freshly built set-up, and the
        # record's arrays are left as they were
        space = make_manifold(name)
        for k in (1, 3):
            state, traj, _ = random_fit_problem(space, k, rng, scale=0.4, steps=40)
            nodes = np.array([0, 9, 23, 40])
            cotangents = np.array([unit_tangent(space, rng, traj.points[n])
                                   for n in nodes])
            record = [np.copy(a) for a in traj.flow]
            first = space.pullback(traj, nodes, cotangents)
            second = space.pullback(traj, nodes, cotangents)
            fresh = rp.integrate_polynomial(space, state, traj.times.copy())
            expected = space.pullback(fresh, nodes, cotangents)
            assert first.tobytes() == expected.tobytes() == second.tobytes()
            assert all(np.array_equal(a, b) for a, b in zip(traj.flow, record))


def sphere_cubic_points(i, seed):
    """Times and observations of fit i of the sphere-cubic benchmark workload.

    A noisy cubic on S^2, drawn from the fixed design seed 2012, turned by
    the (i + 1)-th Haar-random rotation drawn from the seed.
    """
    rng = np.random.default_rng([2012, i])
    p = rng.standard_normal(3)
    p /= np.linalg.norm(p)
    v = rng.standard_normal((3, 3))
    v -= np.outer(v @ p, p)
    v *= (np.array([1.0, 1.5, 2.0]) / np.linalg.norm(v, axis=1))[:, None]
    inner = np.sort(rng.choice(np.arange(1, 50), 30, replace=False))
    t = np.concatenate([[0], inner, [50]]) / 50
    w = np.outer(t, v[0]) + np.outer(t ** 2 / 2, v[1]) + np.outer(t ** 3 / 6, v[2])
    theta = np.linalg.norm(w, axis=1)[:, None]
    x = np.cos(theta) * p + np.sinc(theta / np.pi) * w
    e = rng.standard_normal(x.shape)
    e -= np.sum(e * x, axis=1)[:, None] * x
    e *= 0.05 / np.linalg.norm(e, axis=1, keepdims=True)
    y = np.cos(0.05) * x + (np.sin(0.05) / 0.05) * e
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    turns = np.random.default_rng(seed)
    for _ in range(i + 1):
        q, r = np.linalg.qr(turns.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
    return t, y @ q.T


class TestConstantStart:
    """A start with zero vectors is the constant curve: no forward or reverse pass."""

    @pytest.mark.parametrize("name", ["euclidean", "sphere", "sphere_15", "so3",
                                      "so3_general", "kendall", "kendall_8_2",
                                      "kendall_3d"])
    @pytest.mark.parametrize("times", [(0.0, 0.33, 0.71, 1.0),
                                       (0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0)],
                             ids=["distinct", "shared"])
    def test_closed_form_matches_every_pullback(self, name, times, rng):
        # at zero vectors each vector moves the point of time t by
        # sum_i phi_i(t) v_i to first order, on every geometry
        m = make_manifold(name)
        for k in (1, 2, 3):
            _, traj, data = random_fit_problem(m, k, rng, scale=0.4, steps=70,
                                               times=times, vectors=lambda v: 0.0 * v)
            logs = residual_logs(m, traj, data)
            nodes = traj.node_index(data.times)
            expected = integrate_adjoint(m, traj, nodes, logs)
            got = _constant_gradient(m, traj.points[0], monomials(data.times, k), logs)
            assert got.shape == expected.shape == (k + 1,) + m.tangent_shape
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def _count_passes(self, monkeypatch):
        """Count pullbacks and integrations of a constant start of order >= 1."""
        calls = Counter()
        integrate = riempoly.regress.integrate_polynomial

        def counted_integrate(manifold, state, *args):
            if state.order and not state.vels.any():
                calls["constant_integrate"] += 1
            return integrate(manifold, state, *args)

        monkeypatch.setattr(riempoly.regress, "integrate_polynomial", counted_integrate)
        # every package geometry that writes a pullback, so that none is missed
        writers = [cls for cls in vars(rp).values() if isinstance(cls, type)
                   and issubclass(cls, rp.Manifold) and "pullback" in vars(cls)]
        assert rp.Manifold in writers and rp.RotationGroup in writers
        for cls in writers:
            def counted(self, *args, _fn=cls.pullback):
                calls["pullback"] += 1
                return _fn(self, *args)
            monkeypatch.setattr(cls, "pullback", counted)
        return calls

    @pytest.mark.parametrize("name", ["sphere", "kendall_8_2", "so3_general"])
    def test_fit_from_the_mean_takes_one_pullback_per_iteration(self, name, rng,
                                                                monkeypatch):
        m = make_manifold(name)
        _, _, data = random_fit_problem(m, 1, rng, steps=50)
        calls = self._count_passes(monkeypatch)
        res = rp.fit_polynomial(m, data, rp.FitConfig(order=1, steps=50))
        assert res.converged and res.iterations >= 1
        assert calls == Counter(pullback=res.iterations)

        calls.clear()
        results = rp.fit_orders(m, data, (0, 1), rp.FitConfig(order=0, steps=50))
        assert results[1].converged and results[1].iterations >= 1
        # order zero takes no pullback, and order 1 starts from its optimum
        # padded with a zero vector: a constant start
        assert calls == Counter(pullback=results[1].iterations)

    @pytest.mark.parametrize("name", ["euclidean", "sphere", "kendall_8_2",
                                      "so3_general"])
    def test_at_once_converged_fit_keeps_the_integrated_start(self, name, rng):
        m = make_manifold(name)
        _, _, data = random_fit_problem(m, 2, rng, scale=0.5, steps=50)
        cfg = rp.FitConfig(order=2, steps=50, tol=1e3)
        res = rp.fit_polynomial(m, data, cfg)
        assert res.iterations == 0 and res.stop_reason == "tolerance"
        assert not res.params.vels.any()
        internal, _, _ = data.rescaled()
        fresh = rp.integrate_polynomial(m, res.params,
                                        rp.time_grid(1.0, cfg.steps, internal.times))
        assert np.array_equal(res.trajectory.times, fresh.times)
        assert np.array_equal(res.trajectory.points, fresh.points)
        got, expected = (f if isinstance(f, tuple) else (f,)
                         for f in (res.trajectory.flow, fresh.flow))
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert objective_sse(m, res.trajectory, internal) == pytest.approx(res.sse,
                                                                           rel=1e-12)


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

    def test_unconverged_mean_raises(self):
        sphere = rp.Sphere(2)
        rng = np.random.default_rng(3)
        pts = np.stack([sphere.random_point(rng) for _ in range(10)])
        with pytest.raises(rp.GeometryError, match="mean iteration did not converge"):
            rp.frechet_mean(sphere, pts, max_iter=1)

    def test_non_finite_tol_rejected(self, rng):
        # each refusal names the argument and the value the caller gave, not
        # the FitConfig field or the gradient tolerance 2 * tol it runs at
        sphere = rp.Sphere(2)
        pts = np.stack([sphere.random_point(rng) for _ in range(3)])
        with pytest.raises(ValueError, match="got tol=nan"):
            rp.frechet_mean(sphere, pts, tol=math.nan)
        with pytest.raises(ValueError, match=r"^tol must be positive .*, got tol=-1\.0$"):
            rp.frechet_mean(sphere, pts, tol=-1.0)
        with pytest.raises(ValueError, match=r"^max_iter must be a positive integer, "
                                             r"got max_iter=2\.5$"):
            rp.frechet_mean(sphere, pts, max_iter=2.5)
        # a bool is not a count, though bool is an Integral
        with pytest.raises(ValueError, match=r"^max_iter must be a positive integer, "
                                             r"got max_iter=True$"):
            rp.frechet_mean(sphere, pts, max_iter=True)

    def test_judges_the_point_it_returns(self, rng):
        # a mean that reaches its tolerance on its last allowed iteration
        # neither warns nor raises: the rule reads the returned point's logs
        sphere = rp.Sphere(2)
        pts = np.stack([sphere.random_point(rng) for _ in range(5)])
        pts = np.stack([p if p[0] > 0 else -p for p in pts])
        free = riempoly.regress._Plan(sphere, rp.TimedDataset(sphere, np.zeros(5), pts),
                                      rp.FitConfig(order=0, tol=2e-9)).zero
        assert free.stop_reason == "tolerance" and len(free.trace) > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = rp.frechet_mean(sphere, pts, max_iter=len(free.trace) - 1)
        assert np.array_equal(mean, free.state.gamma)

    def test_candidate_at_the_cut_locus_is_rejected(self, rng):
        # the first candidate's log raises CutLocusError: it is rejected like
        # one that does not descend, the step halves, and the mean is found.
        # The candidates are the order-zero fit's steps from its start, the
        # middle point, along e * direction, direction = -P g, at e = 1 and 1/2
        bases = []

        class Guarded(rp.Sphere):
            def log_many(self, points, targets):
                bases.append(np.array(points[0]))
                if len(bases) == 2:
                    raise CutLocusError("candidate at the cut locus")
                return super().log_many(points, targets)

        sphere = rp.Sphere(2)
        pts = np.stack([sphere.random_point(rng) for _ in range(3)])
        pts = np.stack([p if p[0] > 0 else -p for p in pts])
        mean = rp.frechet_mean(Guarded(2), pts, tol=1e-11)
        assert np.abs(mean - rp.frechet_mean(sphere, pts, tol=1e-11)).max() < 1e-9
        start = pts[1]
        assert np.array_equal(bases[0], start)
        logs = sphere.log_many(np.broadcast_to(start, pts.shape), pts)
        grad = _constant_gradient(sphere, start, monomials(np.zeros(3), 0), logs)
        _, _, precond = _design_metric(np.zeros(3), 0)
        direction = -(precond @ grad)[0]
        assert np.array_equal(bases[1], sphere.exp(start, direction))
        assert np.array_equal(bases[2], sphere.exp(start, 0.5 * direction))

    def test_starts_past_an_antipodal_middle_pair(self):
        # e1 and -e1 are the middle two of 32 points: no log from either
        # reaches the other, so the iteration starts at the nearest
        # observation outward whose logs are all defined, and both orders
        # find one mean; a fit, which sorts by time, does too
        sphere = rp.Sphere(2)
        near = np.array([0.0, 0.0, 1.0]) + 0.3 * np.random.default_rng(0).standard_normal((30, 3))
        near /= np.linalg.norm(near, axis=1, keepdims=True)
        pts = np.concatenate([near[:15], [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], near[15:]])
        starts = []
        log_many = rp.Sphere.log_many

        class Recording(rp.Sphere):
            def log_many(self, points, targets):
                starts.append(np.array(points[0]))
                return log_many(self, points, targets)

        for middle in (15, 16):
            with pytest.raises(CutLocusError):
                sphere.log_many(np.broadcast_to(pts[middle], pts.shape), pts)
        mean = rp.frechet_mean(Recording(2), pts)
        assert [s.tolist() for s in starts[:3]] == [pts[i].tolist() for i in (15, 16, 14)]
        assert np.abs(mean - rp.frechet_mean(sphere, pts[::-1])).max() < 1e-8
        data = rp.TimedDataset(sphere, np.linspace(0.0, 1.0, len(pts)), pts)
        results = rp.fit_orders(sphere, data, (0, 1), rp.FitConfig(order=0, steps=50))
        assert all(r.converged for r in results.values())
        # e1 and -e1 alone: no start qualifies
        with pytest.raises(CutLocusError):
            rp.frechet_mean(sphere, pts[15:17])

    def test_missed_tolerance_warns(self, rng):
        sphere = rp.Sphere(2)
        pts = np.stack([sphere.random_point(rng) for _ in range(3)])
        pts = np.stack([p if p[0] > 0 else -p for p in pts])
        with pytest.warns(RuntimeWarning, match=r"above its tol 1e-20"):
            rp.frechet_mean(sphere, pts, tol=1e-20)

    def test_does_not_grind_at_its_tolerance(self, monkeypatch):
        # near the optimum the variance cannot resolve a decrease; ties are
        # broken by the gradient norm, so this mean, which once ran all 200
        # iterations and stopped just above its tolerance, takes a few
        sphere = rp.Sphere(2)
        _, pts = sphere_cubic_points(14, 9901)
        calls = Counter()
        log_many = rp.Sphere.log_many

        def counted(self, points, targets):
            calls["log_many"] += 1
            return log_many(self, points, targets)

        monkeypatch.setattr(rp.Sphere, "log_many", counted)
        mean = rp.frechet_mean(sphere, pts, tol=1e-9)
        assert calls["log_many"] <= 12
        logs = log_many(sphere, np.broadcast_to(mean, pts.shape), pts)
        assert np.linalg.norm(logs.mean(axis=0)) <= 1e-9


class TestLineSearch:
    """The one line search, called directly on the plane with a patched objective."""

    def _search(self, cand_value, cand_grad_scale, grad_scale=1.0):
        plane = rp.Euclidean(2)
        state = rp.PolynomialState(np.zeros(2), np.zeros((1, 2)))
        grad = grad_scale * np.ones((2, 2))
        evaluated = []

        def evaluate(s):
            evaluated.append(s)
            return None, None, cand_value

        def gradient(s, traj, logs):
            return cand_grad_scale * grad

        found = riempoly.regress._line_search(
            plane, state, grad, float(np.linalg.norm(grad)), -grad, np.zeros((0, 2, 2)),
            1.0, evaluate, gradient)
        return found, evaluated, grad

    def test_tie_with_a_lower_gradient_wins(self):
        found, evaluated, grad = self._search(1.0 + 4 * np.spacing(1.0), 0.5)
        assert found is not None and len(evaluated) == 1
        # the tie's gradient is kept for the next iteration
        assert np.array_equal(found[5], 0.5 * grad)
        assert found[3] == 1.0 + 4 * np.spacing(1.0)

    def test_tie_with_a_higher_gradient_loses(self):
        found, evaluated, _ = self._search(1.0 - np.spacing(1.0), 2.0)
        assert found is None and len(evaluated) > 1

    def test_beyond_the_tie_band_is_rejected(self):
        found, evaluated, _ = self._search(1.0 + 5 * np.spacing(1.0), 0.5)
        assert found is None and len(evaluated) > 1

    def test_clear_decrease_takes_no_gradient(self):
        found, evaluated, _ = self._search(1.0 - 5 * np.spacing(1.0), 2.0)
        assert found is not None and found[5] is None and len(evaluated) == 1

    def test_first_step_tried_below_rounding(self):
        # the predicted decrease of the unit step, -<g, d> = 4e-40, is far
        # below the rounding unit of the objective, yet that step is tried
        found, evaluated, _ = self._search(0.5, 2.0, grad_scale=1e-20)
        assert found is not None and len(evaluated) == 1
        found, evaluated, _ = self._search(2.0, 2.0, grad_scale=1e-20)
        assert found is None and len(evaluated) == 1


def record_searches(monkeypatch):
    """Wrap the line search; each call's (state, grad, direction, pairs, result)."""
    calls = []
    line_search = riempoly.regress._line_search

    def recording(manifold, state, grad, grad_norm, direction, pairs, *rest):
        found = line_search(manifold, state, grad, grad_norm, direction, pairs, *rest)
        calls.append((state, grad, direction, pairs, found))
        return found

    monkeypatch.setattr(riempoly.regress, "_line_search", recording)
    return calls


def stack_dot(manifold, gamma, a, b):
    return float(np.sum(manifold.inner(gamma, a, b)))


def two_loop(manifold, gamma, grad, pairs, precond):
    """-H g for the inverse BFGS updates of P by pairs [(s, y), ...], oldest first."""
    q, alphas = grad, []
    for s, y in reversed(pairs):
        alphas.append(stack_dot(manifold, gamma, s, q) / stack_dot(manifold, gamma, s, y))
        q = q - alphas[-1] * y
    r = np.tensordot(precond, q, 1)
    for (s, y), a in zip(pairs, reversed(alphas)):
        r = r + (a - stack_dot(manifold, gamma, y, r) / stack_dot(manifold, gamma, s, y)) * s
    return -r


class TestQuasiNewton:
    """L-BFGS directions from the pairs carried by each candidate's one step."""

    @pytest.mark.parametrize("space, k, seed, scale", [
        (rp.Sphere(2), 3, 1, 1.0),
        (rp.KendallShapeSpace(4, 2), 2, 0, 0.5),
        (rp.RotationGroup(rp.MetricSpec(np.diag([1.0, 2.0, 3.0]))), 2, 2, 1.0),
    ], ids=["sphere", "kendall_4_2", "so3_general"])
    def test_directions_match_a_transported_two_loop(self, space, k, seed, scale,
                                                     monkeypatch):
        # the reference moves its pairs, the last gradient and the last step
        # with Manifold.transport along each accepted step, recomputes every
        # 1/<s, y> at the point where it is used, and keeps the last 3 pairs
        _, _, data = random_fit_problem(space, k, np.random.default_rng(seed), scale=scale,
                                        obs_scale_factor=1.0, steps=50,
                                        times=np.linspace(0.0, 1.0, 8))
        calls = record_searches(monkeypatch)
        res = rp.fit_polynomial(space, data, rp.FitConfig(order=k, steps=50, max_iters=50))
        assert res.converged and res.iterations >= 5
        precond = _design_metric(data.times, k)[2]
        pairs, moved, most = [], None, 0
        for state, grad, direction, _, found in [c for c in calls if c[0].order == k]:
            gamma = state.gamma
            if moved is not None:
                s, y = moved[1], grad - moved[0]
                if stack_dot(space, gamma, s, y) > 0:
                    pairs = (pairs + [(s, y)])[-3:]
            most = max(most, len(pairs))
            expected = two_loop(space, gamma, grad, pairs, precond)
            assert np.abs(direction - expected).max() <= 1e-12
            if found is None:
                break
            # the accepted step is a power of two and transport an isometry
            step = found[4][1]
            e = 2.0 ** round(0.5 * np.log2(stack_dot(space, found[0].gamma, step, step)
                                           / stack_dot(space, gamma, direction, direction)))
            v = e * direction[0]
            moved = (space.transport(gamma, v, grad), space.transport(gamma, v, e * direction))
            pairs = [(space.transport(gamma, v, s), space.transport(gamma, v, y))
                     for s, y in pairs]
        assert most == 3

    @pytest.mark.parametrize("k, seed", [(0, 2), (1, 7)])
    def test_pairs_without_curvature_are_dropped(self, k, seed, monkeypatch):
        # 12 points up to 2.5 rad from a pole: the objective is not convex
        # there, and some steps end with <s, y> <= 0.  Such a pair is not
        # stored, a pair with <s, y> > 0 is, and every direction descends.
        # The roll puts the first point drawn in the middle, index 5, where
        # the order-zero fit starts
        sphere = rp.Sphere(2)
        rng = np.random.default_rng(seed)
        angle, turn = 2.5 * np.sqrt(rng.uniform(size=12)), rng.uniform(0.0, 2 * np.pi, 12)
        points = np.roll(np.stack([np.sin(angle) * np.cos(turn), np.sin(angle) * np.sin(turn),
                                   np.cos(angle)], axis=1), 5, axis=0)
        data = rp.TimedDataset(sphere, np.linspace(0.0, 1.0, 12), points)
        calls = record_searches(monkeypatch)
        res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=k, steps=22, tol=1e-8))
        assert res.converged
        calls = [c for c in calls if c[0].order == k]
        dropped = 0
        for (_, _, _, _, found), (state, grad, direction, pairs, _) in zip(calls, calls[1:]):
            carried = found[4]
            s, y = carried[1], grad - carried[0]
            if stack_dot(sphere, state.gamma, s, y) > 0:
                kept = np.concatenate([carried[2:], [s, y]])[-6:]
            else:
                dropped += 1
                kept = carried[2:]
            assert np.array_equal(pairs, kept)
        assert dropped >= 1
        for state, grad, direction, _, _ in calls:
            assert stack_dot(sphere, state.gamma, grad, direction) < 0


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
        # the curve is sum_i t^i/i! v_i at the observation times themselves
        ref = np.polyfit(t, y, k)[::-1]
        fitted = np.array([res.params.gamma[0]] + [
            v[0] / math.factorial(i) for i, v in enumerate(res.params.vels, start=1)])
        assert np.abs(fitted - ref).max() < 1e-10

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
        # returned parameters are integrated once, when they were accepted.
        # The final, failed search stops once its predicted decrease is below
        # the objective's rounding; the gradient is the discrete objective's
        # own, so its prediction holds and that takes a pass or two
        integrated = []

        def recording_integrate(manifold, state, *args, **kwargs):
            integrated.append(state)
            return rp.integrate_polynomial(manifold, state, *args, **kwargs)

        monkeypatch.setattr(riempoly.regress, "integrate_polynomial",
                            recording_integrate)
        cfg = rp.FitConfig(order=2, steps=80, max_iters=200, tol=1e-300)
        cases = [(rp.Sphere(2), rng, 100, None),
                 (rp.KendallShapeSpace(4, 2), np.random.default_rng(3), 80, 6),
                 (rp.Sphere(2), np.random.default_rng(3), 80, 6)]
        for space, problem_rng, steps, max_final in cases:
            _, _, data = random_fit_problem(space, 2, problem_rng, scale=0.5,
                                            steps=steps)
            integrated.clear()
            res = rp.fit_polynomial(space, data, cfg)
            assert res.stop_reason == "line_search"
            same = [
                i for i, s in enumerate(integrated)
                if np.array_equal(s.gamma, res.params.gamma)
                and all(np.array_equal(a, b) for a, b in zip(s.vels, res.params.vels))
            ]
            assert len(same) == 1
            if max_final is not None:
                # every pass after the accepted one belongs to the final search
                assert len(integrated) - same[0] - 1 <= max_final

    def test_one_step_per_candidate(self, rng, monkeypatch):
        # outside the forward and reverse passes, a line-search candidate is
        # one Manifold.step, which also carries the L-BFGS pairs; no
        # transport runs on its own
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 2, rng, scale=0.5, steps=50)
        outside = Counter()
        active = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if not active:
                    outside[name, planning] += 1
                active.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()
            return wrapper

        # the order-zero fit, run while the plan is built, has line-search
        # candidates too
        planning = False
        plan_class = riempoly.regress._Plan

        def flagged_plan(*args):
            nonlocal planning
            planning = True
            try:
                return plan_class(*args)
            finally:
                planning = False

        monkeypatch.setattr(riempoly.regress, "_Plan", flagged_plan)
        for name in ("integrate_polynomial", "integrate_adjoint"):
            monkeypatch.setattr(riempoly.regress, name,
                                counted(name, getattr(riempoly.regress, name)))
        monkeypatch.setattr(rp.Sphere, "step", counted("step", rp.Sphere.step))
        monkeypatch.setattr(rp.Sphere, "transport",
                            counted("transport", rp.Sphere.transport))
        res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=2, steps=50))
        assert res.converged and res.iterations > 1
        # every order-2 candidate is integrated once, and the constant start
        # not at all; an order-zero candidate takes its logs at its own point
        # and is not integrated
        assert outside["step", False] == outside["integrate_polynomial", False]
        assert outside["step", True] >= 1
        assert outside["integrate_polynomial", True] == outside["integrate_adjoint", True] == 0
        assert outside["transport", False] == outside["transport", True] == 0

    @pytest.mark.parametrize("case", ["so3_general", "sphere"])
    def test_each_pair_is_logged_once(self, case, rng, monkeypatch):
        # the residual logs of a candidate are its objective and, once it is
        # accepted, the adjoint's jumps; the mean's logs are the constant
        # starting curve's: no (point, target) pair is logged twice
        if case == "so3_general":
            space = rp.RotationGroup(rp.MetricSpec(np.diag([1.0, 2.0, 3.0])))
            _, _, data = random_fit_problem(space, 1, rng, steps=50)
            cfg = rp.FitConfig(order=1, steps=50)
        else:
            space = rp.Sphere(2)
            _, _, data = random_fit_problem(space, 2, rng, scale=0.5, steps=50)
            cfg = rp.FitConfig(order=2, steps=50)
        seen = Counter()
        log_many = type(space).log_many

        def recording(self, points, targets):
            for p, q in zip(points, targets):
                seen[np.asarray(p).tobytes(), np.asarray(q).tobytes()] += 1
            return log_many(self, points, targets)

        monkeypatch.setattr(type(space), "log_many", recording)
        res = rp.fit_polynomial(space, data, cfg)
        assert res.converged and res.iterations >= 1
        assert max(seen.values()) == 1

    def test_cut_locus_candidate_is_rejected(self, rng, monkeypatch):
        # a candidate whose residual log is undefined fails like one that
        # does not descend: the step halves and the fit goes on
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, scale=0.5, steps=50)
        moves = []
        failed = []
        step, log_many = rp.Sphere.step, rp.Sphere.log_many

        def recording_step(self, p, v, stack):
            if len(stack) == 5:         # a line-search candidate of order 1
                moves.append(np.array(v))
            return step(self, p, v, stack)

        def failing_log_many(self, points, targets):
            if len(moves) == 1 and not failed:
                failed.append(True)
                raise CutLocusError("first candidate at the cut locus")
            return log_many(self, points, targets)

        monkeypatch.setattr(rp.Sphere, "step", recording_step)
        monkeypatch.setattr(rp.Sphere, "log_many", failing_log_many)
        res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=1, steps=50))
        assert failed
        assert np.array_equal(moves[1], 0.5 * moves[0])
        assert res.converged and res.iterations >= 1

    def test_initial_objective_failure_reported(self, rng):
        # the starting curve sits at the antipode of the first observation
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, steps=50)
        start = rp.PolynomialState(-data.points[0], np.zeros((1, 3)))
        with pytest.raises(rp.GeometryError, match="objective failed on an observation"):
            rp.fit_polynomial(sphere, data, rp.FitConfig(order=1, steps=50),
                              initial=start)

    def test_sphere_cubic_design_converges_at_a_tight_tolerance(self):
        # with the gradient of the discrete objective itself, no fit stalls
        # in the line search short of 1e-8; the discretized continuous
        # adjoint left 11 of these 16 there
        sphere = rp.Sphere(2)
        cfg = rp.FitConfig(order=3, steps=50, max_iters=2000, tol=1e-8)
        for i in range(16):
            data = rp.TimedDataset(sphere, *sphere_cubic_points(i, 9901))
            assert rp.fit_polynomial(sphere, data, cfg).stop_reason == "tolerance", i

    def test_sphere_cubic_design_takes_few_iterations(self):
        # quasi-Newton descent: the 16 fits take 86 iterations in all; the
        # design-metric Barzilai-Borwein steps it replaced took 135
        sphere = rp.Sphere(2)
        cfg = rp.FitConfig(order=3, steps=50, tol=1e-6)
        total = 0
        for i in range(16):
            data = rp.TimedDataset(sphere, *sphere_cubic_points(i, 9901))
            res = rp.fit_polynomial(sphere, data, cfg)
            assert res.converged, i
            total += res.iterations
        assert total <= 100

    def test_sphere_cubic_means_take_few_iterations(self):
        # the order-zero fit starts at the middle observation: the 16 means
        # take 36 iterations in all at tol 2e-4 and 50 at 1e-6, against 42
        # and 52 from the first observation, one end of the curve
        sphere = rp.Sphere(2)
        for tol, most in ((2e-4, 36), (1e-6, 50)):
            total = 0
            for i in range(16):
                data = rp.TimedDataset(sphere, *sphere_cubic_points(i, 9901))
                res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=0, steps=50, tol=tol))
                assert res.converged, (tol, i)
                total += res.iterations
            assert total <= most, tol

    def test_order_zero_integrates_only_its_result(self, rng, monkeypatch):
        # an order-zero candidate takes its logs at its own point: the mean
        # integrates no curve, and an order-zero fit integrates its result
        # once, the curve a fresh integration gives, bit for bit
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, scale=0.5, steps=50)
        integrated = []
        integrate = riempoly.regress.integrate_polynomial

        def recording(manifold, state, times):
            integrated.append(state)
            return integrate(manifold, state, times)

        monkeypatch.setattr(riempoly.regress, "integrate_polynomial", recording)
        rp.frechet_mean(sphere, data.points)
        assert integrated == []
        cfg = rp.FitConfig(order=0, steps=50)
        res = rp.fit_polynomial(sphere, data, cfg)
        assert res.converged and res.iterations >= 1
        assert len(integrated) == 1 and integrated[0] is res.params
        internal, _, _ = data.rescaled()
        fresh = rp.integrate_polynomial(sphere, res.params,
                                        rp.time_grid(1.0, cfg.steps, internal.times))
        assert np.array_equal(res.trajectory.times, fresh.times)
        assert np.array_equal(res.trajectory.points, fresh.points)
        assert res.trajectory.flow is fresh.flow is None

    @pytest.mark.parametrize("steps", [11, 55, 220])
    def test_widely_spread_sphere_data_converge(self, steps):
        # 12 observations of an arc under noise of 0.6 per coordinate: on a
        # coarse grid or a fine one, every fit reaches its tolerance
        sphere = rp.Sphere(2)
        t = np.linspace(0.0, 1.0, 12)
        arc = np.stack([np.cos(3.0 * t), np.sin(3.0 * t), np.zeros(12)], axis=1)
        for seed in range(5):
            x = arc + 0.6 * np.random.default_rng(seed).standard_normal((12, 3))
            data = rp.TimedDataset(sphere, t, x / np.linalg.norm(x, axis=1, keepdims=True))
            for k in (1, 2):
                cfg = rp.FitConfig(order=k, steps=steps, max_iters=500, tol=1e-6)
                assert rp.fit_polynomial(sphere, data, cfg).stop_reason == "tolerance", (seed, k)

    def test_exact_interpolation_of_generating_polynomial(self, rng):
        # k+1 points from a random order-k curve are interpolated
        line = rp.Euclidean(2)
        k = 3
        state = rp.PolynomialState(
            rng.standard_normal(2), tuple(rng.standard_normal(2) for _ in range(k))
        )
        steps = 240
        times = np.linspace(0.0, 1.0, k + 1)
        traj = rp.integrate_polynomial(line, state, rp.time_grid(1.0, steps, times))
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

    def test_orders_share_one_frechet_mean(self, rng, monkeypatch):
        # the variance is the order-zero fit's SSE: one order-zero fit
        # serves every order, bit for bit, and so does one plan of the data;
        # each order builds its time design and metric once, in its one
        # descent
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, scale=0.5, steps=50)
        calls = Counter()
        plan, design_metric = riempoly.regress._Plan, riempoly.regress._design_metric
        monomials = riempoly.regress.monomials

        def counting_plan(*args):
            calls["_Plan"] += 1
            return plan(*args)

        def counting_metric(times, order):
            calls["_design_metric", order] += 1
            return design_metric(times, order)

        def counting_monomials(times, order):
            calls["monomials", order] += 1
            return monomials(times, order)

        monkeypatch.setattr(riempoly.regress, "_Plan", counting_plan)
        monkeypatch.setattr(riempoly.regress, "_design_metric", counting_metric)
        monkeypatch.setattr(riempoly.regress, "monomials", counting_monomials)
        results = rp.fit_orders(sphere, data, (0, 1, 2, 3),
                                rp.FitConfig(order=0, steps=50, max_iters=50))
        assert calls == {"_Plan": 1, **{("_design_metric", k): 1 for k in range(4)},
                         **{("monomials", k): 1 for k in range(4)}}
        for k in (0, 1, 2, 3):
            assert results[k].frechet_variance == results[0].sse
        assert results[0].r_squared == 0.0

    def test_single_fit_has_the_variance_of_fit_orders(self, rng):
        # a lone fit makes the same order-zero fit under the same config
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 2, rng, scale=0.5, steps=50)
        cfg = rp.FitConfig(order=2, steps=50, tol=1e-5)
        results = rp.fit_orders(sphere, data, (1, 2), cfg)
        alone = rp.fit_polynomial(sphere, data, cfg)
        zero = rp.fit_polynomial(sphere, data, replace(cfg, order=0))
        for variance in (alone.frechet_variance, zero.sse):
            assert (np.float64(variance).tobytes()
                    == np.float64(results[2].frechet_variance).tobytes())

    def test_unconverged_order_zero_fit_is_reported(self, rng, monkeypatch):
        # an order's convergence needs its order-zero fit's; the stop
        # reason stays the order's own
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, scale=0.5, steps=50)
        build = riempoly.regress._Plan.__init__

        def one_iteration(plan, manifold, data, config):
            build(plan, manifold, data, replace(config, max_iters=1))

        monkeypatch.setattr(riempoly.regress._Plan, "__init__", one_iteration)
        cfg = rp.FitConfig(order=1, steps=50)
        for res in (rp.fit_polynomial(sphere, data, cfg),
                    *rp.fit_orders(sphere, data, (0, 1), cfg).values()):
            assert res.stop_reason == ("max_iters" if res.params.order == 0
                                       else "tolerance")
            assert not res.converged

    def test_repeated_order_is_fitted_once(self, rng, monkeypatch):
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, scale=0.5, steps=50)
        calls = Counter()
        fit = riempoly.regress.fit_polynomial

        def counting_fit(*args, **kwargs):
            calls[args[2].order] += 1
            return fit(*args, **kwargs)

        monkeypatch.setattr(riempoly.regress, "fit_polynomial", counting_fit)
        results = rp.fit_orders(sphere, data, (1, 1),
                                rp.FitConfig(order=0, steps=50, max_iters=50))
        assert list(results) == [1]
        assert calls == {1: 1}

    def test_the_plan_is_read_only(self, rng, monkeypatch):
        # no fit writes into the plan it shares: after fit_orders, and after
        # a further fit on the same plan, every attribute is the object the
        # plan was built with, with the same bytes.  A mean start at order
        # >= 1 takes the order-zero fit's logs: no log_many of its own, whose
        # bases would all be the mean
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 2, rng, scale=0.5, steps=50)
        config = rp.FitConfig(order=0, steps=50, tol=1e-5)
        plans, built, bases = [], [], []
        plan_class, log_many = riempoly.regress._Plan, rp.Sphere.log_many

        def contents(plan):
            return {name: (value, pickle.dumps(value)) for name, value in vars(plan).items()}

        def keeping_plan(*args):
            plans.append(plan_class(*args))
            built.append(contents(plans[-1]))
            return plans[-1]

        def assert_unchanged(plan):
            after = contents(plan)
            assert after.keys() == built[0].keys()
            for name, (value, dump) in after.items():
                assert value is built[0][name][0] and dump == built[0][name][1], name

        def keeping_bases(self, points, targets):
            if plans:                       # after the plan's order-zero fit
                bases.append(np.array(points))
            return log_many(self, points, targets)

        monkeypatch.setattr(riempoly.regress, "_Plan", keeping_plan)
        monkeypatch.setattr(rp.Sphere, "log_many", keeping_bases)
        rp.fit_orders(sphere, data, (0, 1, 2), config)
        plan, = plans
        assert_unchanged(plan)
        rp.fit_polynomial(sphere, data, replace(config, order=2), _plan=plan)
        assert_unchanged(plan)
        mean = plan.zero.state.gamma
        assert bases and not any((b == mean).all() for b in bases)

    def test_underdetermined_warns(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        data = rp.TimedDataset(sphere, np.array([0.0, 1.0]),
                               np.stack([p, sphere.exp(p, unit_tangent(sphere, rng, p, 0.3))]))
        with pytest.warns(UserWarning, match="underdetermined"):
            res = rp.fit_polynomial(sphere, data,
                                    rp.FitConfig(order=2, steps=50, max_iters=5))
        # the design metric has rank 2 < 3; its null space keeps unit scaling
        for v in (res.params.gamma, *res.params.vels):
            assert np.all(np.isfinite(v))
        assert np.all(np.diff(res.objective_trace) <= 0.0)

    def test_underdetermined_counts_distinct_times(self, rng):
        # ten observations, but at two times: the time design has rank 2 < 3
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        ends = (p, sphere.exp(p, unit_tangent(sphere, rng, p, 0.3)))
        points = np.stack([sphere.exp(q, unit_tangent(sphere, rng, q, 0.05))
                           for q in ends for _ in range(5)])
        data = rp.TimedDataset(sphere, np.repeat([0.0, 1.0], 5), points)
        with pytest.warns(UserWarning, match="only 2 distinct observation times "
                                             "for order 2: fit is underdetermined"):
            rp.fit_polynomial(sphere, data, rp.FitConfig(order=2, steps=50, max_iters=5))

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

    def test_fit_within_tol_after_its_last_permitted_iteration_converges(self, rng):
        # the stopping test reads every state the descent holds: in flat
        # space the first preconditioned unit step lands on the optimum, so
        # a fit capped at one iteration ends within tol, and says so
        space = rp.Euclidean(3)
        _, _, data = random_fit_problem(space, 1, rng, steps=50)
        res = rp.fit_polynomial(space, data, rp.FitConfig(order=1, steps=50, max_iters=1))
        assert (res.converged, res.stop_reason, res.iterations) == (True, "tolerance", 1)

    def test_capped_fit_reports_its_own_gradient_norm(self):
        # a fit stopped at max_iters reports the gradient norm of the point
        # it returns, not that of the point before its last accepted step
        sphere = rp.Sphere(2)
        gen = np.random.default_rng(3)
        points = np.stack([sphere.random_point(gen) for _ in range(10)])
        data = rp.TimedDataset(sphere, np.zeros(10), points)
        res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=0, max_iters=2))
        assert res.stop_reason == "max_iters" and res.iterations == 2
        logs = sphere.log_many(np.broadcast_to(res.params.gamma, points.shape), points)
        own = 2.0 * sphere.norm(res.params.gamma, np.add.reduce(logs) / len(points))
        assert res.grad_norm == pytest.approx(own, rel=1e-9)

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
        internal, _, _ = data.rescaled()
        grid = rp.time_grid(1.0, cfg.steps, internal.times)
        fresh = rp.integrate_polynomial(sphere, res.params, grid)
        assert np.array_equal(res.trajectory.times, grid)
        assert np.array_equal(res.trajectory.points, fresh.points)
        assert np.array_equal(res.observed, fresh.points[fresh.node_index(internal.times)])
        assert len(res.trajectory.flow) == len(fresh.flow)
        assert all(np.array_equal(a, b) for a, b in zip(res.trajectory.flow, fresh.flow))
        assert objective_sse(sphere, res.trajectory, internal) == res.sse
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
        assert res.trajectory.times[-1] == 1.0

    def test_order_guard(self):
        with pytest.raises(ValueError):
            rp.FitConfig(order=7)

    @pytest.mark.parametrize("field, value", [
        ("steps", 0), ("max_iters", 0), ("tol", 0.0), ("tol", -1e-6),
        ("steps", math.nan), ("max_iters", math.nan), ("tol", math.nan),
        ("steps", math.inf), ("max_iters", math.inf), ("tol", math.inf), ("tol", -math.inf),
    ])
    def test_steps_iterations_and_tol_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match="steps, max_iters and tol must be positive"):
            rp.FitConfig(order=1, **{field: value})

    @pytest.mark.parametrize("field", ["order", "steps", "max_iters"])
    def test_counts_must_be_integers(self, field):
        # a float or bool count is refused naming its field, before any fit;
        # numpy integers pass
        for value in (2.5, True):
            with pytest.raises(ValueError, match=f"must be integers, got {field}={value}$"):
                rp.FitConfig(**{"order": 1, field: value})
        rp.FitConfig(**{"order": 1, field: np.int64(2)})

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, bad):
        sphere = rp.Sphere(2)
        points = np.tile([1.0, 0.0, 0.0], (3, 1))
        with pytest.raises(ValueError, match="observation 1 "):
            rp.TimedDataset(sphere, np.array([0.0, bad, 1.0]), points)

    def test_non_finite_coordinate_rejected(self):
        sphere = rp.Sphere(2)
        points = np.tile([1.0, 0.0, 0.0], (3, 1))
        points[2, 1] = np.nan
        with pytest.raises(ValueError, match="observation 2 "):
            rp.TimedDataset(sphere, np.array([0.0, 0.5, 1.0]), points)


class TestConfigAndInputGuards:
    def test_parameters_drifting_off_the_manifold_raise(self, rng):
        # a step whose endpoint leaves the sphere by 1e-5, more than the
        # 1e-6 the fit allows, is caught once its candidate is accepted;
        # the mean's exp, a step with no stack, stays on the sphere
        class Drifting(rp.Sphere):
            def step(self, p, v, stack):
                end, moved = super().step(p, v, stack)
                return (end * (1.0 + 1e-5) if len(stack) else end), moved

        space = Drifting(2)
        _, _, data = random_fit_problem(space, 1, rng, scale=0.5, steps=50)
        with pytest.raises(rp.GeometryError, match=r"drifted off the manifold: point "
                                                   r"residual 1\.000e-05 exceeds 1e-06"):
            rp.fit_polynomial(space, data, rp.FitConfig(order=1, steps=50))

    def test_initial_state_order_mismatch(self, rng):
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, steps=50)
        bad = rp.PolynomialState(data.points[0], ())
        with pytest.raises(ValueError):
            rp.fit_polynomial(sphere, data, rp.FitConfig(order=1, steps=50),
                              initial=bad)
        # right order, vectors of the wrong shape
        bad = rp.PolynomialState(data.points[0], np.zeros((1, 4)))
        with pytest.raises(ValueError, match="shape"):
            rp.fit_polynomial(sphere, data, rp.FitConfig(order=1, steps=50),
                              initial=bad)

    @pytest.mark.parametrize("space", [rp.Sphere(2), rp.KendallShapeSpace(8, 2)],
                             ids=["sphere", "kendall_8_2"])
    def test_off_manifold_initial_state_rejected(self, space, rng):
        # a normal part in a vector, or a point off the unit sphere, is
        # refused before integration, with the worst residual named
        state, _, data = random_fit_problem(space, 2, rng, steps=50)
        config = rp.FitConfig(order=2, steps=50, max_iters=1)
        vels = state.vels.copy()
        vels[1] += 0.05 * state.gamma
        bad = rp.PolynomialState(state.gamma, vels)
        with pytest.raises(ValueError, match=r"v2 residual 5\.000e-02"):
            rp.fit_polynomial(space, data, config, initial=bad)
        bad = rp.PolynomialState(1.01 * state.gamma, state.vels)
        with pytest.raises(ValueError, match=r"point residual 1\.000e-02"):
            rp.fit_polynomial(space, data, config, initial=bad)
        # a NaN residual is the worst, wherever it comes
        vels = state.vels.copy()
        vels[1] = 0.0
        vels[1, 0] = np.nan
        bad = rp.PolynomialState(state.gamma, vels)
        with pytest.raises(ValueError, match=r"v2 residual nan exceeds 1e-06"):
            rp.fit_polynomial(space, data, config, initial=bad)
        rp.fit_polynomial(space, data, config, initial=state)

    def test_order_zero_accepts_empty_initial(self, rng):
        sphere = rp.Sphere(2)
        _, _, data = random_fit_problem(sphere, 1, rng, steps=50)
        start = rp.PolynomialState(data.points[0], ())
        res = rp.fit_polynomial(sphere, data, rp.FitConfig(order=0, steps=50),
                                initial=start)
        assert res.converged
        assert res.params.vels.shape == (0, 3)

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
        internal = rp.integrate_polynomial(manifold, res.params,
                                           rp.time_grid(1.0, steps))
        original = rp.integrate_polynomial(
            manifold, res.params_original, rp.time_grid(res.time_scale, steps)
        )
        assert np.abs(internal.points - original.points).max() < 1e-9


class TestDiscretization:
    def test_rat_fit_converges_at_second_order(self):
        # every age is a node and every step follows the flat polynomial's
        # chord: against a 2,860-step fit, the order-2 and order-3 vectors
        # at 20, 50 and 200 steps converge as h^2, lie within 1e-4 already
        # at 20 steps, and the SSE agrees to 1e-6
        space, data, _ = riempoly.cli.build_dataset("kendall", rp.parse_landmarks(RAT_FIXTURE))
        steps = (20, 50, 200)
        fits = {s: rp.fit_orders(space, data, (0, 1, 2, 3),
                                 rp.FitConfig(order=0, steps=s, tol=1e-9))
                for s in steps + (2860,)}
        reference = fits[2860]
        for k in (2, 3):
            ref = reference[k]
            errs = []
            for s in steps:
                res = fits[s][k]
                assert res.converged, (k, s)
                errs.append(max(np.linalg.norm(a - b) / np.linalg.norm(b)
                                for a, b in zip(res.params.vels, ref.params.vels)))
                assert abs(res.sse - ref.sse) <= 1e-6 * ref.sse, (k, s)
            assert errs[0] < 1e-4, k
            slope = log_log_slope(1.0 / np.array(steps), errs)
            assert 1.8 <= slope <= 2.2, (k, slope)
