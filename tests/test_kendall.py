"""Shape-space operations: standardization, projections, alignment, maps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riempoly as rp
from riempoly import kendall
from riempoly.geometry import CutLocusError, ShootingError, shooting_log
from riempoly.kendall import _align_many, _optimal_rotations, _preshapes, to_preshape
from conftest import (
    adjoint_vs_fd,
    contract_shot,
    kabsch_rotations,
    procrustes_align,
    shape_distance,
    unit_tangent,
    vertical_basis,
)


def rotation2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def planar_j(m):
    """J in real form: x @ planar_j(m) turns every landmark of x by 90 degrees."""
    return np.kron(np.eye(m), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.fixture
def space():
    return rp.KendallShapeSpace(5, 2)


def random_preshape(space, rng):
    return space.from_landmarks(rng.standard_normal((space.m, space.d)))


class TestPreshape:
    def test_two_point_example(self):
        cfg = to_preshape(np.array([[0.0, 0.0], [2.0, 0.0]]))
        r = 1.0 / np.sqrt(2.0)
        assert np.abs(cfg.points - np.array([[-r, 0.0], [r, 0.0]])).max() < 1e-15
        assert np.array_equal(cfg.centroid, np.array([1.0, 0.0]))
        assert cfg.scale == pytest.approx(np.sqrt(2.0))

    def test_idempotent(self, rng):
        cfg = to_preshape(rng.standard_normal((6, 2)))
        again = to_preshape(cfg.points)
        assert np.abs(again.points - cfg.points).max() < 1e-12

    def test_translation_invariance(self, rng):
        raw = rng.standard_normal((6, 2))
        shifted = raw + np.array([13.0, -4.5])
        assert np.abs(to_preshape(raw).points - to_preshape(shifted).points).max() < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            to_preshape(np.ones((4, 2)))

    @pytest.mark.parametrize("shape, fault", [((1, 2), "at least two landmarks"),
                                              ((2, 1), "m\\*d must be at least 3")],
                             ids=["one_landmark", "two_numbers"])
    def test_too_small_rejected(self, rng, shape, fault):
        with pytest.raises(ValueError, match=fault):
            to_preshape(rng.standard_normal(shape))

    @pytest.mark.parametrize("m, d", [(2, 2), (3, 2), (8, 2), (17, 2), (100, 2),
                                      (2, 3), (5, 3), (64, 3)])
    def test_stack_matches_one_at_a_time(self, rng, m, d):
        # the stack routine standardizes each configuration bit for bit as
        # the one-configuration formula does, at any offset and scale
        stack = rng.standard_normal((12, m, d)) * 10.0 ** rng.integers(-4, 5, (12, 1, 1))
        stack += rng.standard_normal((12, 1, d)) * 50.0
        points, centroids, scales = _preshapes(stack)
        for raw, p, c, scale in zip(stack, points, centroids, scales):
            centroid = raw.mean(axis=0)
            centered = raw - centroid
            norm = float(np.sqrt(np.sum(centered * centered)))
            cfg = to_preshape(raw)
            for want in ((centered / norm).tobytes(), cfg.points.tobytes()):
                assert p.tobytes() == want
            assert c.tobytes() == centroid.tobytes() == cfg.centroid.tobytes()
            assert scale == norm == cfg.scale

    def test_degenerate_record_in_a_stack_is_named(self, rng):
        stack = rng.standard_normal((4, 5, 2))
        stack[2] = 3.0
        with pytest.raises(ValueError, match="record 2 is a degenerate"):
            _preshapes(stack)

    def test_preshape_invariants(self, rng):
        cfg = to_preshape(rng.standard_normal((7, 3)))
        assert np.abs(cfg.points.mean(axis=0)).max() < 1e-12
        assert np.linalg.norm(cfg.points) == pytest.approx(1.0, abs=1e-12)


class TestVerticalBasis:
    def test_orthonormal(self, rng):
        pts = to_preshape(rng.standard_normal((4, 3))).points
        basis = vertical_basis(pts)
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-10

    def test_dimension_bound(self, rng):
        pts = to_preshape(rng.standard_normal((4, 3))).points
        assert len(vertical_basis(pts)) <= 3

    def test_collinear_configuration_drops_rank(self):
        # landmarks on one line in the plane: the rotation generator that
        # fixes the line direction degenerates for d=3
        line = np.stack([np.linspace(-1, 1, 4), np.zeros(4), np.zeros(4)], axis=1)
        pts = to_preshape(line).points
        basis = vertical_basis(pts)
        nonzero = [b for b in basis if np.linalg.norm(b) > 0.5]
        assert len(nonzero) == 2

    def test_vertical_vectors_are_tangent(self, rng):
        pts = to_preshape(rng.standard_normal((5, 2))).points
        flat = pts.reshape(-1)
        for b in vertical_basis(pts):
            assert abs(np.dot(b, flat)) < 1e-12
            assert np.abs(b.reshape(5, 2).mean(axis=0)).max() < 1e-12


def projection_cases(rng):
    """(space, preshape, orbit dimension) for 5 landmarks in four configurations.

    Random planar and 3-D shapes, and two degenerate 3-D ones: an exactly
    collinear shape, whose orbit loses the rotation about its line, and a
    planar shape in 3-D, whose orbit keeps all three rotations.
    """
    planar, solid = rp.KendallShapeSpace(5, 2), rp.KendallShapeSpace(5, 3)
    flat = rng.standard_normal((5, 3))
    flat[:, 2] = 0.0
    line = np.stack([np.linspace(-1.0, 1.0, 5), np.zeros(5), np.zeros(5)], axis=1)
    return [(planar, random_preshape(planar, rng), 1),
            (solid, random_preshape(solid, rng), 3),
            (solid, solid.from_landmarks(line), 2),
            (solid, solid.from_landmarks(flat), 3)]


class TestHorizontalProjection:
    def test_kills_vertical(self, rng):
        for space, p, rank in projection_cases(rng):
            basis = vertical_basis(p.reshape(space.m, space.d))
            assert len(basis) == rank
            for b in basis:
                assert np.abs(space.project_tangent(p, b)).max() < 1e-9

    def test_idempotent(self, rng):
        for space, p, _ in projection_cases(rng):
            x = rng.standard_normal(space.m * space.d)
            once = space.project_tangent(p, x)
            twice = space.project_tangent(p, once)
            assert np.abs(twice - once).max() < 1e-12

    def test_output_orthogonal_to_vertical(self, rng):
        for space, p, _ in projection_cases(rng):
            basis = vertical_basis(p.reshape(space.m, space.d))
            for _ in range(5):
                x = rng.standard_normal(space.m * space.d)
                h = space.project_tangent(p, x)
                for b in basis:
                    assert abs(np.dot(h, b)) < 1e-9

    def test_is_orthogonal_projection(self, rng):
        for space, p, _ in projection_cases(rng):
            x = rng.standard_normal((space.m, space.d))
            # make x a preshape tangent first so removed part is purely vertical
            x = (x - x.mean(axis=0)).reshape(-1)
            x = x - np.dot(x, p) * p
            h = space.project_tangent(p, x)
            assert abs(np.dot(x - h, h)) < 1e-10
            # and the removed part lies in the oracle's vertical span
            basis = vertical_basis(p.reshape(space.m, space.d))
            assert np.abs((x - h) - ((x - h) @ basis.T) @ basis).max() < 1e-12

    def test_nearly_collinear_rotation_is_dropped(self, rng):
        # a 4-landmark line in 3-D perturbed by 1e-7: the rotation about the
        # line moves the shape by ~1e-7, so its eigenvalue sum in M = p^T p
        # is ~1e-14, below _BASIS_DROP.  The projection drops it, as the
        # curvature and the transport do, and keeps the two others; the
        # oracle's rank cut (1e-10 on the generator's norm) still resolves it
        space = rp.KendallShapeSpace(4, 3)
        line = np.stack([np.linspace(-1.0, 1.0, 4), np.zeros(4), np.zeros(4)], axis=1)
        p = space.from_landmarks(line + 1e-7 * rng.standard_normal((4, 3)))
        pm = p.reshape(4, 3)
        basis = vertical_basis(pm)
        assert len(basis) == 3
        kept = np.linalg.svd(np.stack([space.project_tangent(p, b) for b in basis]),
                             compute_uv=False)
        assert abs(kept[0] - 1.0) < 1e-12 and kept[1:].max() < 1e-12
        # the direction that survives is the rotation the Sylvester weights drop
        q, inv = kendall._sylvester_basis(pm)
        assert inv[0, 1] == 0.0 and inv[0, 2] != 0.0 and inv[1, 2] != 0.0
        skew = np.zeros((3, 3))
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        w = (pm @ q @ skew @ q.T).reshape(-1)
        w /= np.linalg.norm(w)
        assert np.abs(space.project_tangent(p, w) - w).max() < 1e-12


class TestProcrustes:
    def test_identity_for_equal_shapes(self, rng):
        base = to_preshape(rng.standard_normal((5, 2))).points
        aligned = procrustes_align(base, base)
        assert np.abs(aligned - base).max() < 1e-12

    def test_recovers_known_rotation(self, rng):
        base = to_preshape(rng.standard_normal((5, 2))).points
        target = base @ rotation2(np.pi / 6).T
        aligned = procrustes_align(target, base)
        assert np.abs(aligned - base).max() < 1e-10

    def test_never_increases_distance(self, rng):
        for _ in range(10):
            base = to_preshape(rng.standard_normal((5, 2))).points
            target = to_preshape(rng.standard_normal((5, 2))).points
            aligned = procrustes_align(target, base)
            assert np.linalg.norm(base - aligned) <= np.linalg.norm(base - target) + 1e-12

    def test_matches_angle_grid_search(self, rng):
        base = to_preshape(rng.standard_normal((5, 2))).points
        target = to_preshape(rng.standard_normal((5, 2))).points
        aligned = procrustes_align(target, base)
        angles = np.linspace(0.0, 2.0 * np.pi, 400001)
        best = min(
            np.linalg.norm(base - target @ rotation2(a).T) for a in angles
        )
        assert np.linalg.norm(base - aligned) <= best + 1e-9

    def test_rotation_not_reflection(self, rng):
        # a reflected target must still come back through a proper rotation
        base = to_preshape(rng.standard_normal((5, 2))).points
        target = base.copy()
        target[:, 0] = -target[:, 0]
        aligned = procrustes_align(target, base)
        m = aligned.T @ aligned
        assert np.linalg.det(np.linalg.lstsq(target, aligned, rcond=None)[0]) > 0

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            procrustes_align(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))


class TestExp:
    def test_zero_vector(self, space, rng):
        p = random_preshape(space, rng)
        assert np.array_equal(space.exp(p, np.zeros(10)), p)

    def test_matches_sphere_on_horizontal_velocity(self, space, rng):
        # horizontal great circles are the quotient geodesics
        sphere = rp.Sphere(9)
        for _ in range(5):
            p = random_preshape(space, rng)
            v = unit_tangent(space, rng, p, 0.5)
            assert space.dist(space.exp(p, v), sphere.exp(p, v)) < 1e-12

    def test_preshape_invariants_along_path(self, space, rng):
        p = random_preshape(space, rng)
        v = unit_tangent(space, rng, p, 0.8)
        for t in (0.25, 0.5, 1.0):
            q = space.exp(p, t * v)
            assert space.point_residual(q) < 1e-10

    def test_speed_constant(self, space, rng):
        p = random_preshape(space, rng)
        v = unit_tangent(space, rng, p, 0.6)
        eps = 1e-5
        for t in (0.3, 0.9):
            d = space.dist(space.exp(p, t * v), space.exp(p, (t + eps) * v))
            assert d / eps == pytest.approx(0.6, abs=1e-6)


class TestLog:
    def test_same_point(self, space, rng):
        p = random_preshape(space, rng)
        assert np.linalg.norm(space.log(p, p)) < 1e-12

    def test_rotated_copy_gives_zero(self, space, rng):
        p = random_preshape(space, rng)
        q = (p.reshape(5, 2) @ rotation2(0.8).T).reshape(-1)
        assert np.linalg.norm(space.log(p, q)) < 1e-9

    def test_roundtrip_recovers_vector(self, space, rng):
        for _ in range(5):
            p = random_preshape(space, rng)
            v = unit_tangent(space, rng, p, 0.4)
            got = space.log(p, space.exp(p, v))
            assert np.abs(got - v).max() < 1e-5

    def test_result_is_horizontal(self, space, rng):
        p, q = random_preshape(space, rng), random_preshape(space, rng)
        v = space.log(p, q)
        assert space.tangent_residual(p, v) < 1e-8

    def test_matches_shooting_oracle(self, space, rng):
        # shooting the exponential certifies the alignment-based log
        for _ in range(3):
            p, q = random_preshape(space, rng), random_preshape(space, rng)
            got = shooting_log(contract_shot(space, p[None], q[None], space.log),
                               np.zeros((1, space.m * space.d)), name=space.name,
                               tol=1e-12)[0]
            assert np.abs(got - space.log(p, q)).max() < 1e-9

    def test_nonconvergence_reports_residual(self, space, rng):
        p, q = random_preshape(space, rng), random_preshape(space, rng)
        with pytest.raises(ShootingError) as err:
            shooting_log(contract_shot(space, p[None], q[None], space.log),
                         np.zeros((1, space.m * space.d)), name=space.name, tol=1e-16,
                         max_iter=1)
        assert err.value.residual >= 0

    def test_remote_shapes_rejected(self):
        # an equilateral triangle and its mirror image sit at the diameter
        # of the planar shape space; no rotation brings them closer
        space = rp.KendallShapeSpace(3, 2)
        tri = np.array([[1.0, 0.0],
                        [-0.5, np.sqrt(3.0) / 2.0],
                        [-0.5, -np.sqrt(3.0) / 2.0]])
        mirrored = tri * np.array([1.0, -1.0])
        p = space.from_landmarks(tri)
        q = space.from_landmarks(mirrored)
        with pytest.raises(CutLocusError, match=r"^shapes are \(nearly\) maximally remote$"):
            space.log(p, q)


class TestDistance:
    def test_zero_iff_same_shape(self, space, rng):
        p = random_preshape(space, rng)
        assert space.dist(p, p) == 0.0
        scaled_rotated = 3.7 * (p.reshape(5, 2) @ rotation2(1.1).T)
        q = space.from_landmarks(scaled_rotated + np.array([5.0, -2.0]))
        assert space.dist(p, q) < 1e-9

    def test_symmetric(self, space, rng):
        p, q = random_preshape(space, rng), random_preshape(space, rng)
        assert abs(space.dist(p, q) - space.dist(q, p)) < 1e-6

    def test_matches_rotation_grid_oracle(self, rng):
        space = rp.KendallShapeSpace(3, 2)
        sphere = rp.Sphere(5)
        p = space.from_landmarks(rng.standard_normal((3, 2)))
        q = space.from_landmarks(rng.standard_normal((3, 2)))
        angles = np.linspace(0.0, 2.0 * np.pi, 200001)
        # every rotated copy of q at once: rotation2 stacks its angles last
        turned = q.reshape(3, 2) @ np.moveaxis(rotation2(angles), -1, 0).swapaxes(-1, -2)
        copies = turned.reshape(len(angles), -1)
        best = sphere.dist_many(np.broadcast_to(p, copies.shape), copies).min()
        assert space.dist(p, q) == pytest.approx(best, abs=1e-5)

    def test_shape_distance_api(self, rng):
        raw_p = rng.standard_normal((4, 2))
        raw_q = 2.0 * (raw_p @ rotation2(0.3).T) + np.array([1.0, 2.0])
        assert shape_distance(raw_p, raw_q) < 1e-9


class TestTransportHorizontality:
    def test_transported_field_stays_horizontal(self, space, rng):
        # the transported field is horizontal all along the geodesic
        p = random_preshape(space, rng)
        v = unit_tangent(space, rng, p, 0.5)
        x = unit_tangent(space, rng, p)
        n_checks = 8
        for i in range(1, n_checks + 1):
            frac = i / n_checks
            q = space.exp(p, frac * v)
            xt = space.transport(p, frac * v, x)
            assert space.tangent_residual(q, xt) < 1e-8

    def test_transport_norm_exactly_restored(self, space, rng):
        p = random_preshape(space, rng)
        v = unit_tangent(space, rng, p, 0.7)
        x = unit_tangent(space, rng, p, 1.3)
        xt = space.transport(p, v, x)
        assert np.linalg.norm(xt) == pytest.approx(np.linalg.norm(x), abs=1e-12)


class TestLiftTransport:
    def test_matches_planar_closed_form(self, rng, monkeypatch):
        # the d >= 3 transport's ODE holds for every d: at a fine substep its
        # RK4 meets the planar closed form to rounding
        monkeypatch.setattr(kendall, "_SUBSTEP", 1e-3)
        space = rp.KendallShapeSpace(8, 2)
        p = random_preshape(space, rng)
        v = unit_tangent(space, rng, p, 0.3)
        x = np.stack([unit_tangent(space, rng, p) for _ in range(3)])
        theta = np.linalg.norm(v)
        lifted = space._lift(p, v / theta, theta, x)
        assert np.abs(lifted - space.transport(p, v, x)).max() <= 1e-12

    def test_fourth_order_in_the_substep(self, rng, monkeypatch):
        # halving the substep divides the gap to a 1024-substep reference by
        # about 2^4 = 16
        space = rp.KendallShapeSpace(5, 3)
        p = random_preshape(space, rng)
        v = unit_tangent(space, rng, p, 0.6)
        x = np.stack([unit_tangent(space, rng, p) for _ in range(3)])

        def transport(substeps):
            # ceil(0.6 / _SUBSTEP) is substeps
            monkeypatch.setattr(kendall, "_SUBSTEP", 0.6 / (substeps - 0.5))
            return space.transport(p, v, x)

        exact = transport(1024)
        gaps = [np.abs(transport(n) - exact).max() for n in (2, 4, 8, 16, 32)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse / fine >= 15.0, gaps


class TestPlanarClosedForms:
    @pytest.mark.parametrize("d", [2, 3])
    def test_rotations_match_kabsch_oracle(self, d, rng):
        # planar targets turn by one complex phase, d >= 3 by the Kabsch SVD
        bases = rng.standard_normal((500, 8, d))
        targets = rng.standard_normal((500, 8, d))
        oracle = kabsch_rotations(targets, bases)
        aligned = _align_many(targets, bases)
        assert np.abs(aligned - targets @ np.swapaxes(oracle, 1, 2)).max() < 1e-13
        if d > 2:
            rots = _optimal_rotations(targets, bases)
            assert np.abs(rots - oracle).max() < 1e-13
            assert np.abs(np.linalg.det(rots) - 1.0).max() < 1e-14

    def test_remote_shapes_get_the_identity(self):
        # w = sum conj(p_j) q_j is exactly zero: every rotation is optimal,
        # and the target comes back bit for bit
        base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        target = base[[2, 3, 0, 1]]
        assert _align_many(target[None], base[None])[0].tobytes() == target.tobytes()
        space = rp.KendallShapeSpace(4, 2)
        with pytest.raises(CutLocusError, match=r"^shapes are \(nearly\) maximally remote$"):
            space.log(space.from_landmarks(base), space.from_landmarks(target))

    def test_log_matches_aligned_sphere_log(self, rng):
        # the planar log is the sphere log toward the Procrustes-aligned
        # target: on random preshapes, against the Kabsch oracle's
        # horizontal projection, and on 200 pairs out to 1e-3 below the cut
        # locus at pi / 2, each target turned by a random phase, against the
        # sphere log toward procrustes_align's target, to a few ulps
        space = rp.KendallShapeSpace(8, 2)
        sphere = rp.Sphere(15)
        p = np.stack([random_preshape(space, rng) for _ in range(50)])
        q = np.stack([random_preshape(space, rng) for _ in range(50)])
        pm, qm = p.reshape(-1, 8, 2), q.reshape(-1, 8, 2)
        aligned = (qm @ np.swapaxes(kabsch_rotations(qm, pm), 1, 2)).reshape(p.shape)
        logs = sphere.log_many(p, aligned)
        oracle = np.stack([space.project_tangent(a, b) for a, b in zip(p, logs)])
        assert np.abs(space.log_many(p, q) - oracle).max() < 1e-14
        dists = np.linspace(0.01, np.pi / 2 - 1e-3, 200)
        p = np.stack([space.random_point(rng) for _ in dists])
        v = np.stack([unit_tangent(space, rng, a, d) for a, d in zip(p, dists)])
        q = np.stack([space.exp(a, b) for a, b in zip(p, v)])
        q = (q.view(complex) * np.exp(1j * rng.uniform(-np.pi, np.pi, (len(q), 1)))).view(float)
        aligned = np.stack([procrustes_align(b.reshape(8, 2), a.reshape(8, 2)).reshape(-1)
                            for a, b in zip(p, q)])
        logs = space.log_many(p, q)
        assert np.abs(logs - sphere.log_many(p, aligned)).max() <= 4 * np.finfo(float).eps
        assert np.abs(logs - v).max() < 1e-13

    def test_logs_are_centered_and_horizontal(self, rng):
        # with no vertical correction, <log, Jp> and the landmark sums are
        # zero to rounding
        space = rp.KendallShapeSpace(8, 2)
        p = np.stack([random_preshape(space, rng) for _ in range(100)])
        q = np.stack([random_preshape(space, rng) for _ in range(100)])
        logs = space.log_many(p, q)
        assert np.abs(np.add.reduce(logs * (p @ planar_j(8)), axis=-1)).max() <= 1e-15
        assert np.abs(logs.reshape(-1, 8, 2).sum(axis=1)).max() <= 2e-15

    def test_alignment_takes_no_svd(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("planar alignment called np.linalg.svd")

        space = rp.KendallShapeSpace(8, 2)
        p = np.stack([random_preshape(space, rng) for _ in range(4)])
        q = np.stack([random_preshape(space, rng) for _ in range(4)])
        monkeypatch.setattr(np.linalg, "svd", refuse)
        space.log_many(p, q)
        procrustes_align(q[0].reshape(8, 2), p[0].reshape(8, 2))

    def test_step_matches_textbook_formula(self, rng):
        # endpoint cos(theta) p + sin(theta) u re-projected; each row turns
        # its u and Ju components with the geodesic and keeps the rest
        space = rp.KendallShapeSpace(8, 2)
        p = random_preshape(space, rng)
        v = 0.3 * rng.standard_normal(16)
        stack = np.stack([unit_tangent(space, rng, p) for _ in range(3)])
        end, moved = space.step(p, v, stack)
        h = space.project_tangent(p, v)
        theta = np.linalg.norm(h)
        u = h / theta
        ju, jp = u @ planar_j(8), p @ planar_j(8)
        c, s = np.cos(theta), np.sin(theta)
        assert np.abs(end - space.project_point(c * p + s * u)).max() < 1e-15
        turned = (stack + np.outer(stack @ u, (c - 1.0) * u - s * p)
                  + np.outer(stack @ ju, (c - 1.0) * ju - s * jp))
        assert np.abs(moved - turned).max() < 1e-15


class TestONeillCurvature:
    def test_collinear_shape_in_3d_stays_finite(self, rng):
        # rotations about the line fix a collinear shape: their eigenvalue
        # sums vanish and the Sylvester solve must skip them
        space = rp.KendallShapeSpace(4, 3)
        line = np.outer(np.arange(4.0), np.array([1.0, 2.0, -0.5]))
        p = space.from_landmarks(line)
        x, y, z = (unit_tangent(space, rng, p) for _ in range(3))
        out = space.curvature(p, x, y, z)
        assert np.all(np.isfinite(out))
        assert np.abs(out + space.curvature(p, y, x, z)).max() < 1e-10

    def test_one_sylvester_basis_per_call_in_3d(self, rng, monkeypatch):
        # the A-terms and the horizontal projection share one eigenbasis at p
        space = rp.KendallShapeSpace(5, 3)
        p = random_preshape(space, rng)
        x, y, z = (unit_tangent(space, rng, p) for _ in range(3))
        expected = space.curvature(p, x, y, z)
        calls = []
        basis = kendall._sylvester_basis

        def counted(pm):
            calls.append(1)
            return basis(pm)

        monkeypatch.setattr(kendall, "_sylvester_basis", counted)
        got = space.curvature(p, x, y, z)
        assert len(calls) == 1
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k", [1, 2])
    def test_adjoint_matches_finite_differences_in_3d(self, k):
        # what remains on d = 3 is the default recursion's first-order
        # error, 7.4e-5 at 100 steps; without the A-terms the mismatch is
        # ~3e-3
        rng = np.random.default_rng(7)
        rel = adjoint_vs_fd(rp.KendallShapeSpace(5, 3), k, rng, scale=0.1,
                            steps=100)
        assert rel < 1e-3


def _curvature_frame(space, seed, count):
    """A random preshape point and `count` unit horizontal tangents there."""
    gen = np.random.default_rng(seed)
    p = random_preshape(space, gen)
    return p, [unit_tangent(space, gen, p) for _ in range(count)]


curvature_cases = st.tuples(
    st.sampled_from([(3, 2), (4, 2), (6, 2), (8, 2), (5, 3)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestCurvatureProperties:
    @given(curvature_cases)
    def test_tensor_symmetries(self, case):
        (m, d), seed = case
        space = rp.KendallShapeSpace(m, d)
        p, (x, y, z, w) = _curvature_frame(space, seed, 4)

        def r(a, b, c):
            return space.curvature(p, a, b, c)

        # skew in the first pair
        assert np.abs(r(x, y, z) + r(y, x, z)).max() < 1e-10
        # pair symmetry <R(X,Y)Z, W> = <R(Z,W)X, Y>
        assert abs(np.dot(r(x, y, z), w) - np.dot(r(z, w, x), y)) < 1e-10
        # first Bianchi identity
        assert np.abs(r(x, y, z) + r(y, z, x) + r(z, x, y)).max() < 1e-10
        # the output is horizontal
        out = r(x, y, z)
        assert np.abs(space.project_tangent(p, out) - out).max() < 1e-10

    @given(curvature_cases)
    def test_sectional_curvature(self, case):
        (m, d), seed = case
        space = rp.KendallShapeSpace(m, d)
        p, (x, y) = _curvature_frame(space, seed, 2)
        y = y - np.dot(x, y) * x
        y = y / np.linalg.norm(y)
        sectional = float(np.dot(space.curvature(p, x, y, y), x))
        if d == 2:
            jx_y = float(np.dot(x @ planar_j(m), y))
            assert sectional == pytest.approx(1.0 + 3.0 * jx_y ** 2, abs=1e-10)
            assert 1.0 - 1e-10 <= sectional <= 4.0 + 1e-10
        else:
            assert sectional >= 1.0 - 1e-10
