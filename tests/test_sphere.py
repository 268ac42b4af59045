"""Closed-form sphere geometry against hand and roundtrip values."""

import numpy as np
import pytest

import riempoly as rp
from riempoly.geometry import CutLocusError, roll
from conftest import unit_tangent

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def sphere():
    return rp.Sphere(2)


class TestExp:
    def test_quarter_great_circle(self, sphere):
        q = sphere.exp(E1, (np.pi / 2) * E2)
        assert np.abs(q - E2).max() < 1e-12

    def test_zero_vector(self, sphere):
        assert np.array_equal(sphere.exp(E1, np.zeros(3)), E1)

    def test_antipode(self, sphere):
        q = sphere.exp(E1, np.pi * E2)
        assert np.abs(q + E1).max() < 1e-12

    def test_result_stays_unit(self, sphere, rng):
        for _ in range(20):
            p = sphere.random_point(rng)
            v = unit_tangent(sphere, rng, p, float(rng.uniform(0, 3)))
            q = sphere.exp(p, v)
            assert abs(np.dot(q, q) - 1.0) < 1e-12

    def test_tiny_vector_branch(self, sphere):
        v = 1e-13 * E2
        q = sphere.exp(E1, v)
        assert abs(np.dot(q, q) - 1.0) < 1e-14
        assert np.abs(q - E1).max() < 1e-12

    def test_geodesic_speed_constant(self, sphere, rng):
        p = sphere.random_point(rng)
        v = unit_tangent(sphere, rng, p, 0.9)
        # numerical speed along the curve stays at |v|
        for t1, t2 in [(0.1, 0.100001), (0.7, 0.700001)]:
            d = sphere.dist(sphere.exp(p, t1 * v), sphere.exp(p, t2 * v))
            assert d / (t2 - t1) == pytest.approx(0.9, abs=1e-5)


class TestLog:
    def test_log_at_base(self, sphere):
        assert np.array_equal(sphere.log(E1, E1), np.zeros(3))

    def test_inverse_of_exp_example(self, sphere):
        v = sphere.log(E1, E2)
        assert np.abs(v - (np.pi / 2) * E2).max() < 1e-12

    def test_roundtrip_random_unit(self, sphere, rng):
        for _ in range(20):
            p = sphere.random_point(rng)
            v = unit_tangent(sphere, rng, p, 1.0)
            w = sphere.log(p, sphere.exp(p, v))
            assert np.abs(w - v).max() < 1e-9

    def test_antipodal_rejected(self, sphere):
        with pytest.raises(CutLocusError):
            sphere.log(E1, -E1)

    def test_log_norm_is_distance(self, sphere, rng):
        p, q = sphere.random_point(rng), sphere.random_point(rng)
        if np.dot(p, q) <= -1 + 1e-9:
            q = -q
        assert np.linalg.norm(sphere.log(p, q)) == pytest.approx(
            sphere.dist(p, q), abs=1e-12
        )


class TestCurvature:
    def test_basis_substitution(self, sphere):
        # operator convention puts the sectional pairing positive, which
        # flips the sign of the classical embedded-tensor formula
        got = sphere.curvature(E1, E2, E3, E2)
        assert np.abs(got - (-E3)).max() < 1e-15

    def test_equal_arguments_vanish(self, sphere, rng):
        x = unit_tangent(sphere, rng, E1)
        z = unit_tangent(sphere, rng, E1)
        assert np.abs(sphere.curvature(E1, x, x, z)).max() < 1e-15

    def test_orthogonal_z_vanishes(self):
        # z orthogonal to both x and y kills both inner products; needs S^3
        # for a tangent z orthogonal to two other tangents
        s3 = rp.Sphere(3)
        p, x, y, z = np.eye(4)
        assert np.abs(s3.curvature(p, x, y, z)).max() == 0.0

    def test_sectional_curvature_is_one(self, sphere, rng):
        for _ in range(10):
            p = sphere.random_point(rng)
            x = sphere.random_tangent(rng, p)
            y = sphere.random_tangent(rng, p)
            lhs = sphere.inner(p, sphere.curvature(p, x, y, y), x)
            rhs = sphere.inner(p, x, x) * sphere.inner(p, y, y) \
                - sphere.inner(p, x, y) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestTransport:
    def test_zero_direction_identity(self, sphere, rng):
        x = unit_tangent(sphere, rng, E1)
        assert np.array_equal(sphere.transport(E1, np.zeros(3), x), x)

    def test_orthogonal_component_fixed(self, sphere):
        # x orthogonal to the direction keeps its coordinates
        x = E3.copy()
        got = sphere.transport(E1, (np.pi / 2) * E2, x)
        assert np.array_equal(got, x)

    def test_velocity_transports_to_rotated_form(self, sphere):
        v = (np.pi / 2) * E2
        got = sphere.transport(E1, v, v)
        assert np.abs(got - (-(np.pi / 2)) * E1).max() < 1e-12

    def test_norm_preserved(self, sphere, rng):
        for _ in range(10):
            p = sphere.random_point(rng)
            d = unit_tangent(sphere, rng, p, float(rng.uniform(0.1, 2.5)))
            x = sphere.random_tangent(rng, p)
            xt = sphere.transport(p, d, x)
            assert np.linalg.norm(xt) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    def test_tangent_at_destination(self, sphere, rng):
        p = sphere.random_point(rng)
        d = unit_tangent(sphere, rng, p, 1.3)
        x = sphere.random_tangent(rng, p)
        q = sphere.exp(p, d)
        assert abs(np.dot(q, sphere.transport(p, d, x))) < 1e-10

    def test_batched_matches_single(self, sphere, rng):
        p = sphere.random_point(rng)
        d = unit_tangent(sphere, rng, p, 0.8)
        xs = np.stack([sphere.random_tangent(rng, p) for _ in range(4)])
        batched = sphere.transport(p, d, xs)
        for i in range(4):
            assert np.abs(batched[i] - sphere.transport(p, d, xs[i])).max() < 1e-15


class TestComplexStep:
    def test_matches_one_rolled_step_and_stays_tangent(self, rng):
        # on unit complex m-vectors the step is the unitary turn of the
        # complex plane {p, v}, as planar shape space takes it: one step of
        # roll, with Hermitian norms, and rows Hermitian orthogonal to p stay
        # Hermitian orthogonal to the endpoint
        m = 6
        sphere = rp.Sphere(2 * m - 1)

        def settle(z):
            return z / np.linalg.norm(z, axis=-1, keepdims=True)

        for scale in (0.1, 0.7, 2.5):
            z = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
            p = settle(z[0])
            tangents = z[1:] - np.outer(z[1:] @ p.conj(), p)
            v = scale * settle(tangents[0])
            end, moved = sphere.step(p, v, tangents)
            points, _ = roll(p, v[None], np.array([0.0, 1.0]), settle)
            assert np.abs(end - points[1]).max() < 1e-14, scale
            assert np.abs(moved @ end.conj()).max() < 1e-14, scale
