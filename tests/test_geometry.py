"""Contract tests every geometry must satisfy, plus flat-space exactness."""

import re

import numpy as np
import pytest

import riempoly as rp
from riempoly.geometry import ShootingError, shooting_log
from conftest import (
    MANIFOLD_NAMES,
    TOLERANCES,
    contract_shot,
    injectivity_radius,
    make_manifold,
    tangent_basis,
    unit_tangent,
)


def within_tolerance(m, residual):
    return bool(np.all(residual <= TOLERANCES[type(m)]))


@pytest.mark.parametrize("name", MANIFOLD_NAMES + ["so3_general", "kendall_3d"])
class TestContract:
    def test_exp_of_zero_is_identity(self, name, rng):
        m = make_manifold(name)
        p = m.random_point(rng)
        q = m.exp(p, np.zeros(m.tangent_shape))
        assert np.array_equal(q, p)
        # the zero step leaves p and the carried stack untouched, bit for bit
        for _ in range(20):
            p = m.random_point(rng)
            stack = np.stack([m.random_tangent(rng, p) for _ in range(3)])
            end, moved = m.step(p, np.zeros(m.tangent_shape), stack)
            assert np.array_equal(end, p)
            assert np.array_equal(moved, stack)

    def test_log_at_base_is_zero(self, name, rng):
        m = make_manifold(name)
        p = m.random_point(rng)
        assert m.norm(p, m.log(p, p)) < 1e-12
        for _ in range(20):
            p = m.random_point(rng)
            assert not np.any(m.log(p, p))
            assert m.dist(p, p) == 0.0

    def test_exp_log_roundtrip(self, name, rng):
        m = make_manifold(name)
        for _ in range(5):
            p = m.random_point(rng)
            radius = injectivity_radius(m, p)
            scale = 0.4 * min(radius, 1.0)
            v = unit_tangent(m, rng, p, scale)
            w = m.log(p, m.exp(p, v))
            assert m.norm(p, w - v) < 1e-6

    def test_dist_symmetric(self, name, rng):
        # the shooting-based distance is symmetric only to the accuracy of
        # the integrated exponential, which the general metric's fourth-order
        # flow keeps below the bound
        m = make_manifold(name)
        scale = 0.3 * min(injectivity_radius(m, m.random_point(rng)), 1.0)
        p = m.random_point(rng)
        v = unit_tangent(m, rng, p, scale)
        q = m.exp(p, v)
        assert abs(m.dist(p, q) - m.dist(q, p)) < 1e-9

    def test_transport_isometry(self, name, rng):
        m = make_manifold(name)
        p = m.random_point(rng)
        direction = unit_tangent(m, rng, p, 0.15)
        x = unit_tangent(m, rng, p)
        y = unit_tangent(m, rng, p)
        q = m.project_point(m.exp(p, direction))
        xt = m.transport(p, direction, x)
        yt = m.transport(p, direction, y)
        assert abs(m.inner(q, xt, yt) - m.inner(p, x, y)) < 1e-6

    def test_curvature_antisymmetry(self, name, rng):
        m = make_manifold(name)
        p = m.random_point(rng)
        x, y, z = (m.random_tangent(rng, p) for _ in range(3))
        lhs = m.curvature(p, x, y, z)
        rhs = -np.asarray(m.curvature(p, y, x, z))
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_curvature_pairing_identity(self, name, rng):
        # <A, R(B,C)D> = -<B, R(D,A)C> for random tangent quadruples
        m = make_manifold(name)
        for _ in range(5):
            p = m.random_point(rng)
            a, b, c, d = (m.random_tangent(rng, p) for _ in range(4))
            lhs = m.inner(p, a, m.curvature(p, b, c, d))
            rhs = -m.inner(p, b, m.curvature(p, d, a, c))
            assert abs(lhs - rhs) < 1e-8

    def test_random_point_residuals_within_tolerance(self, name, rng):
        # the base class samples by projecting Gaussian draws; both
        # projections must land within the geometry's tolerance
        # (conftest.TOLERANCES)
        m = make_manifold(name)
        for _ in range(20):
            p = m.random_point(rng)
            assert within_tolerance(m, m.point_residual(p))
            assert within_tolerance(m, m.tangent_residual(p, m.random_tangent(rng, p)))


def tangent_stack(m, rng, p, count=3):
    return np.stack([unit_tangent(m, rng, p) for _ in range(count)])


@pytest.mark.parametrize("name", MANIFOLD_NAMES + ["so3_general", "kendall_3d"])
def test_step_is_exp_then_transport(name, rng):
    m = make_manifold(name)
    p = m.random_point(rng)
    v = unit_tangent(m, rng, p, 0.3)
    stack = tangent_stack(m, rng, p)
    end, moved = m.step(p, v, stack)
    assert np.abs(end - m.project_point(m.exp(p, v))).max() < 1e-12
    assert np.abs(moved - m.transport(p, v, stack)).max() < 1e-12


@pytest.mark.parametrize("cls", [rp.Euclidean, rp.Sphere, rp.KendallShapeSpace,
                                 rp.RotationGroup])
def test_distances_are_derived_from_the_log(cls):
    # each geometry writes its log once, in log_many; the base class takes
    # every distance from it
    assert "log_many" in vars(cls)
    for derived in ("log", "dist", "dist_many"):
        assert derived not in vars(cls)


CONTRACT = ("step", "log_many", "curvature", "project_point", "project_tangent")


@pytest.mark.parametrize("cls", [rp.Euclidean, rp.Sphere, rp.KendallShapeSpace,
                                 rp.RotationGroup])
def test_geometries_write_only_the_contract(cls):
    # the five required methods are each geometry's own; the ambient metric,
    # random sampling and the drift residuals come from the base class, and
    # only the rotation group's left-invariant metric replaces the ambient
    # inner product
    for required in CONTRACT:
        assert required in vars(cls)
    for derived in ("inner", "random_point", "random_tangent",
                    "point_residual", "tangent_residual"):
        assert (derived in vars(cls)) == (cls is rp.RotationGroup and derived == "inner")
    # no geometry writes a residual check of its own
    assert not [name for name in vars(cls) if "residual" in name]
    # pullback is the contract's one reverse hook, written beside its own
    # integrate: the rolled geometries write the reverse of their roll and
    # the rotation group the default recursion as batched node maps; flat
    # space writes neither, and the default step loop and recursion are
    # exact there; no geometry writes a hook of its own for them; the only
    # public methods beyond the base class's are shape space's
    assert ("pullback" in vars(cls)) == ("integrate" in vars(cls)) == (cls is not rp.Euclidean)
    if cls is rp.Euclidean:
        assert {name for name, value in vars(cls).items()
                if callable(value)} == {"__init__", *CONTRACT}
    own = {name for name in vars(cls) if not name.startswith("_")} - set(dir(rp.Manifold))
    assert own <= {"from_landmarks"}
    # the geodesic is written once, in step, and the log once, in log_many:
    # no geometry writes a view of either
    assert not {"exp", "transport", "log", "dist", "dist_many"} & set(vars(cls))


CALL_SHAPE_GEOMETRIES = {
    "euclidean": lambda: rp.Euclidean(3),
    "sphere": lambda: rp.Sphere(2),
    "kendall_4_2": lambda: rp.KendallShapeSpace(4, 2),
    "kendall_4_3": lambda: rp.KendallShapeSpace(4, 3),
    "so3": lambda: rp.RotationGroup(),
    "so3_general": lambda: rp.RotationGroup(rp.MetricSpec(np.diag([1.0, 2.0, 3.0]))),
}


@pytest.mark.parametrize("shape", ["one", "rows", "one_point", "mismatch"])
@pytest.mark.parametrize("name", list(CALL_SHAPE_GEOMETRIES))
def test_call_shape_rule(name, shape, rng):
    # one rule for every geometry: exp and transport step each row of v's
    # leading axes, from one point or from the row's own, with x's fields
    # after the same axes; log_many and dist_many take matching rows or one
    # point against a batch.  Every batched row is its own call, bit for
    # bit, and any other shape raises ValueError
    m = CALL_SHAPE_GEOMETRIES[name]()
    points = np.stack([m.random_point(rng) for _ in range(4)])
    v = np.stack([unit_tangent(m, rng, p, 0.5) for p in points])
    x = np.stack([[m.random_tangent(rng, p) for _ in range(2)] for p in points])
    targets = np.stack([m.step(p, w, x[0, :0])[0] for p, w in zip(points, v)])

    def logs(p, q):
        return m.log_many(p, q), m.dist_many(p, q)

    if shape == "one":
        p, w, fields = points[0], v[0], x[0]
        end, moved = m.step(p, w, fields)
        assert np.array_equal(m.exp(p, w), end)
        assert np.array_equal(m.transport(p, w, fields), moved)
        assert np.array_equal(m.transport(p, w, fields[0]), moved[0])
        log, dist = logs(p[None], targets[:1])
        assert np.array_equal(log[0], m.log(p, targets[0]))
        assert dist[0] == m.dist(p, targets[0])
    elif shape == "mismatch":
        # points or velocities that do not fit, which exp rejects too, then
        # fields that do not; a velocity of one coordinate would broadcast
        for p, w, fields, exp_too in ((points[:2], v, x, True), (points[:1], v, x, True),
                                      (points, v[..., :-1], x, True),
                                      (points[0], v[0, :1], x[0], True),
                                      (points[0], v, x[:3], False),
                                      (points[0], v[0], x[0, 0, :-1], False)):
            got = f"got points {p.shape}, velocities {w.shape} and fields "
            with pytest.raises(ValueError, match=re.escape(got + str(fields.shape))):
                m.transport(p, w, fields)
            if exp_too:
                with pytest.raises(ValueError, match=re.escape(got)):
                    m.exp(p, w)
        for view in (m.log_many, m.dist_many):
            with pytest.raises(ValueError):
                view(points[:2], targets)
    else:
        base = points if shape == "rows" else points[0]
        own = points if shape == "rows" else [base] * 4
        ends, moved, batched = m.exp(base, v), m.transport(base, v, x), logs(base, targets)
        assert ends.shape == points.shape and moved.shape == x.shape
        for b in range(4):
            assert np.array_equal(ends[b], m.exp(own[b], v[b])), b
            assert np.array_equal(moved[b], m.transport(own[b], v[b], x[b])), b
            for whole, row in zip(batched, logs(own[b][None], targets[b:b + 1])):
                assert np.array_equal(whole[b], row[0]), b
        # two leading axes are four rows
        grid = base.reshape((2, 2) + m.point_shape) if shape == "rows" else base
        assert np.array_equal(m.exp(grid, v.reshape(2, 2, -1)),
                              ends.reshape((2, 2) + m.point_shape))
        assert np.array_equal(m.transport(grid, v.reshape(2, 2, -1), x.reshape(2, 2, 2, -1)),
                              moved.reshape(2, 2, 2, -1))


@pytest.mark.parametrize("make, fault", [
    (lambda: rp.Sphere(0), "sphere dimension must be >= 1"),
    (lambda: rp.Euclidean(0), "dimension must be positive"),
    (lambda: rp.KendallShapeSpace(1, 3), "need m >= 2 landmarks"),
], ids=["sphere", "euclidean", "kendall"])
def test_degenerate_dimensions_rejected(make, fault):
    with pytest.raises(ValueError, match=fault):
        make()


@pytest.mark.parametrize("m", [rp.Sphere(2), rp.Sphere(15), rp.KendallShapeSpace(8, 2)],
                         ids=["sphere_2", "sphere_15", "kendall_8_2"])
def test_transported_row_is_independent_of_the_stack(m, rng):
    # every row takes its own dot products, so the first rows of a stack,
    # stepped as a shorter stack or as a single vector, move exactly as in
    # the stacked call
    for _ in range(300):
        p = m.random_point(rng)
        v = m.random_tangent(rng, p)
        stack = np.stack([m.random_tangent(rng, p) for _ in range(8)])
        moved = m.step(p, v, stack)[1]
        for rows in (1, 2, 3):
            assert np.array_equal(m.step(p, v, stack[:rows])[1], moved[:rows])
        assert np.array_equal(m.step(p, v, stack[0])[1], moved[0])


class TestPlanarKendallStep:
    """Properties of the d = 2 closed-form step on kendall(8,2)."""

    @pytest.fixture
    def setup(self, rng):
        m = rp.KendallShapeSpace(8, 2)
        p = m.random_point(rng)
        v = unit_tangent(m, rng, p, 0.7)
        stack = tangent_stack(m, rng, p, count=4)
        q, moved = m.step(p, v, stack)
        return m, p, v, stack, q, moved

    def test_stack_horizontal_at_endpoint(self, setup):
        m, _, _, _, q, moved = setup
        for x in moved:
            assert m.tangent_residual(q, x) < 1e-12

    def test_inner_products_preserved(self, setup):
        _, _, _, stack, _, moved = setup
        assert np.abs(moved @ moved.T - stack @ stack.T).max() < 1e-12

    def test_reversed_step_returns(self, setup):
        m, p, v, stack, q, moved = setup
        v_end = m.transport(p, v, v)
        back, returned = m.step(q, -v_end, moved)
        assert np.abs(returned - stack).max() < 1e-12
        assert np.abs(back - p).max() < 1e-12


class TestEuclidean:
    def test_exp_examples(self):
        m = rp.Euclidean(2)
        assert np.array_equal(m.exp(np.array([1.0, 2.0]), np.zeros(2)),
                              np.array([1.0, 2.0]))
        assert np.array_equal(m.exp(np.zeros(2), np.array([3.0, 4.0])),
                              np.array([3.0, 4.0]))

    def test_transport_is_identity(self):
        m = rp.Euclidean(2)
        x = np.array([1.0, 0.0])
        assert np.array_equal(m.transport(np.zeros(2), np.array([0.3, -2.0]), x), x)

    def test_curvature_is_zero(self, rng):
        m = rp.Euclidean(2)
        x, y, z = rng.standard_normal((3, 2))
        assert np.array_equal(m.curvature(np.zeros(2), x, y, z), np.zeros(2))

    def test_dimension_mismatch_rejected(self):
        m = rp.Euclidean(2)
        with pytest.raises(ValueError):
            m.exp(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("view, got", [
        ("exp", "(3,)"), ("exp_broadcast", "(1,)"), ("transport", "(2, 3)"),
        ("step", "(2, 15)"), ("log", "(1, 3)"),
    ])
    def test_wrong_trailing_dimension_is_named(self, view, got):
        # p + v would broadcast a v of one coordinate, so step itself raises
        # the call-shape rule's message, as the views do, and log_many names
        # the trailing dimension
        m, p = rp.Euclidean(16), np.zeros(16)
        run, named = {"exp": (lambda: m.exp(p, np.zeros(3)), "velocities"),
                      "exp_broadcast": (lambda: m.exp(p, np.zeros(1)), "velocities"),
                      "transport": (lambda: m.transport(p, p, np.zeros((2, 3))), "fields"),
                      "step": (lambda: m.step(p, p, np.zeros((2, 15))), "fields"),
                      "log": (lambda: m.log(p, np.zeros(3)), "expected trailing dimension 16, "
                              "got (1, 16) and")}[view]
        with pytest.raises(ValueError, match=re.escape(f"{named} {got}")):
            run()

    def test_dist_is_euclidean_norm(self, rng):
        m = rp.Euclidean(2)
        p, q = rng.standard_normal((2, 2))
        assert m.dist(p, q) == pytest.approx(np.linalg.norm(q - p), abs=0)


class TestValidatePoint:
    def test_sphere_pass_and_fail(self):
        sphere = rp.Sphere(2)
        assert within_tolerance(sphere, sphere.point_residual(np.array([1.0, 0, 0])))
        bad = sphere.point_residual(np.array([1.1, 0, 0]))
        assert not within_tolerance(sphere, bad)
        assert bad == pytest.approx(0.1, abs=1e-12)

    def test_kendall_centering_violation(self):
        space = rp.KendallShapeSpace(3, 2)
        pts = np.array([[0.5, 0.0], [-0.25, 0.4], [-0.25, -0.4]])
        pts = pts / np.linalg.norm(pts)
        pts[:, 0] += 1e-3
        pts = pts / np.linalg.norm(pts)
        residual = space.point_residual(pts.reshape(-1))
        assert not within_tolerance(space, residual)
        assert residual > TOLERANCES[type(space)]

    def test_rotation_diagnostics(self, rng):
        group = rp.RotationGroup()
        r = group.random_point(rng)
        assert within_tolerance(group, group.point_residual(r))
        assert not within_tolerance(group, group.point_residual(1.01 * r))
        # a reflection keeps R^T R = I but lies a whole flip from the rotations
        assert group.point_residual(np.diag([-1.0, 1.0, 1.0]) @ r) >= 1.0

    @pytest.mark.parametrize("name", ["sphere", "kendall", "so3"])
    def test_residuals_batch_over_leading_axes(self, name, rng):
        # a stack reads the residual of each of its rows
        m = make_manifold(name)
        p = m.random_point(rng)
        points = np.stack([m.random_point(rng) * 1.01 ** i for i in range(4)])
        rows = 0.1 * rng.standard_normal((3,) + m.tangent_shape)
        assert np.allclose(m.point_residual(points),
                           [m.point_residual(q) for q in points], rtol=1e-12, atol=1e-15)
        assert np.allclose(m.tangent_residual(p, rows),
                           [m.tangent_residual(p, x) for x in rows], rtol=1e-12, atol=1e-15)


class TestTangentVector:
    def test_sphere_tangency_residual(self):
        sphere = rp.Sphere(2)
        base = np.array([1.0, 0, 0])
        good = sphere.tangent_residual(base, np.array([0.0, 1.0, 0.0]))
        assert good < 1e-9
        bad = sphere.tangent_residual(base, np.array([0.5, 1.0, 0.0]))
        assert bad == pytest.approx(0.5)

    def test_vertical_vector_on_planar_shape_space(self, rng):
        # turning every landmark by 90 degrees is a rotation of the shape:
        # wholly vertical, so the residual is the vector's own norm
        space = rp.KendallShapeSpace(8, 2)
        p = space.random_point(rng)
        vertical = 0.3 * (p.reshape(8, 2) @ np.array([[0.0, 1.0], [-1.0, 0.0]])).reshape(-1)
        assert space.tangent_residual(p, vertical) == pytest.approx(
            np.linalg.norm(vertical), rel=1e-12)


class TestShootingLog:
    """The lockstep loop on one pair, shot through the manifold contract."""

    def test_reaches_target_on_sphere(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        v = unit_tangent(sphere, rng, p, 0.8)
        q = sphere.exp(p, v)
        got = shooting_log(contract_shot(sphere, p[None], q[None], sphere.log),
                           np.zeros((1, 3)), name=sphere.name, tol=1e-10)[0]
        assert sphere.norm(p, got - v) < 1e-8

    def test_reports_residual_on_failure(self, rng):
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        q = sphere.exp(p, unit_tangent(sphere, rng, p, 0.8))
        # no shot allowed: the residual is the first gap, the whole distance
        with pytest.raises(ShootingError) as err:
            shooting_log(contract_shot(sphere, p[None], q[None], sphere.log),
                         np.zeros((1, 3)), name=sphere.name, tol=1e-10, max_iter=0)
        assert err.value.residual == pytest.approx(0.8, rel=1e-12)

    def test_antipodal_target_raises_cut_locus(self, rng):
        # the gap's own failure propagates: the log toward the antipode is
        # undefined
        sphere = rp.Sphere(2)
        p = sphere.random_point(rng)
        with pytest.raises(rp.CutLocusError):
            shooting_log(contract_shot(sphere, p[None], -p[None], sphere.log),
                         np.zeros((1, 3)), name=sphere.name)

    def test_halves_the_step_until_it_gives_up(self, monkeypatch):
        # a fixed unit endpoint gap, tangent at p, is one no shot lowers: the
        # step halves 40 times, to 2^-40 < 1e-12, and the error carries the
        # gap's unit length
        sphere = rp.Sphere(2)
        shots = []
        original = rp.Sphere.step

        def counted(self, p, v, stack):
            shots.append(1)
            return original(self, p, v, stack)

        monkeypatch.setattr(rp.Sphere, "step", counted)
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([np.cos(2.5), np.sin(2.5), 0.0])
        shot = contract_shot(sphere, p[None], q[None],
                             lambda end, target: np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ShootingError) as err:
            shooting_log(shot, np.zeros((1, 3)), name=sphere.name)
        assert err.value.residual == 1.0
        # 41 shots, the first and one per halved step, each a step and a
        # transport back, which is a step too
        assert len(shots) == 2 * (1 + 40)

    def test_last_allowed_shot_within_tolerance_returns(self):
        # max_iter=1: the one shot lands within tol, and the check after the
        # loop returns it
        sphere = rp.Sphere(2)
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([np.cos(1e-4), np.sin(1e-4), 0.0])
        got = shooting_log(contract_shot(sphere, p[None], q[None], sphere.log),
                           np.zeros((1, 3)), name=sphere.name, max_iter=1)[0]
        assert np.abs(got - np.array([0.0, 1e-4, 0.0])).max() < 1e-9