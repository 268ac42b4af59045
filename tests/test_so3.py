"""Rotation-group geometry: algebra operators, integrators, curvature."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riempoly as rp
from riempoly import so3
from conftest import integrate_geodesic, log_log_slope, unit_tangent

E1, E2, E3 = np.eye(3)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def ad_transpose(x, y, metric):
    """Metric adjoint of the bracket: the operator with
    <cross(x, u), z>_A == <u, ad_transpose(x, z)>_A for all u."""
    return -(np.cross(x, y @ metric.matrix) @ metric.inverse)


def geodesic_rate(omega, metric):
    """Time derivative of the body velocity along a geodesic (Euler-Poincare)."""
    return -so3.connection(omega, omega, metric)


def transport_rate(x, omega, metric):
    """Rate of change of a field x parallel along a geodesic with velocity omega."""
    return -so3.connection(omega, x, metric)


@pytest.fixture
def identity_metric():
    return so3.MetricSpec(np.eye(3))


@pytest.fixture
def inertia_metric():
    return so3.MetricSpec(np.diag([1.0, 2.0, 3.0]))


class TestHatVee:
    def test_hat_of_e1(self):
        expected = np.array([[0.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        assert np.array_equal(so3.hat(E1), expected)

    def test_hat_acts_as_cross_product(self, rng):
        x, y = rng.standard_normal((2, 3))
        assert np.abs(so3.hat(x) @ y - np.cross(x, y)).max() < 1e-15
        assert np.abs(so3.hat(x) @ x).max() < 1e-15

    def test_vee_inverts_hat(self, rng):
        x = rng.standard_normal(3)
        assert np.array_equal(so3.vee(so3.hat(x)), x)

    def test_vee_rejects_non_skew(self):
        with pytest.raises(ValueError):
            so3.vee(np.eye(3))


class TestMetricSpec:
    def test_rejects_asymmetric(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            so3.MetricSpec(bad)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            so3.MetricSpec(np.diag([1.0, -1.0, 1.0]))


class TestAdTranspose:
    def test_identity_metric_basis(self, identity_metric):
        assert np.abs(ad_transpose(E1, E2, identity_metric) + E3).max() < 1e-15

    def test_parallel_arguments_vanish(self, identity_metric, rng):
        x = rng.standard_normal(3)
        assert np.abs(ad_transpose(x, x, identity_metric)).max() < 1e-15

    def test_general_metric_value(self, inertia_metric):
        got = ad_transpose(E1, E2, inertia_metric)
        assert np.abs(got - np.array([0.0, 0.0, -2.0 / 3.0])).max() < 1e-15

    def test_defining_adjoint_property(self, inertia_metric, rng):
        # <cross(x,y), z>_A == <y, ad_transpose(x, z)>_A
        for _ in range(10):
            x, y, z = rng.standard_normal((3, 3))
            lhs = inertia_metric.inner(np.cross(x, y), z)
            rhs = inertia_metric.inner(y, ad_transpose(x, z, inertia_metric))
            assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("diagonal", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0)])
class TestConnectionProperties:
    @given(seeds)
    def test_metric_compatible(self, diagonal, seed):
        metric = so3.MetricSpec(np.diag(diagonal))
        x, y, z = np.random.default_rng(seed).standard_normal((3, 3))
        lhs = (metric.inner(so3.connection(x, y, metric), z)
               + metric.inner(y, so3.connection(x, z, metric)))
        assert abs(lhs) < 1e-12

    @given(seeds)
    def test_torsion_free(self, diagonal, seed):
        metric = so3.MetricSpec(np.diag(diagonal))
        x, y = np.random.default_rng(seed).standard_normal((2, 3))
        torsion = (so3.connection(x, y, metric) - so3.connection(y, x, metric)
                   - np.cross(x, y))
        assert np.abs(torsion).max() < 1e-12

    @given(seeds)
    def test_matches_bracket_and_adjoints(self, diagonal, seed):
        metric = so3.MetricSpec(np.diag(diagonal))
        x, y = np.random.default_rng(seed).standard_normal((2, 3))
        expected = 0.5 * (np.cross(x, y) - ad_transpose(x, y, metric)
                          - ad_transpose(y, x, metric))
        assert np.abs(so3.connection(x, y, metric) - expected).max() < 1e-12

    @given(seeds)
    def test_curvature_symmetries(self, diagonal, seed):
        metric = so3.MetricSpec(np.diag(diagonal))
        x, y, z, w = np.random.default_rng(seed).standard_normal((4, 3))

        def r(a, b, c):
            return so3.curvature(a, b, c, metric)

        # skew in the first pair, and metric-skew in the last pair
        assert np.abs(r(x, y, z) + r(y, x, z)).max() < 1e-12
        assert abs(metric.inner(r(x, y, z), w) + metric.inner(r(x, y, w), z)) < 1e-12
        # pair symmetry <R(X,Y)Z, W> = <R(Z,W)X, Y>
        assert abs(metric.inner(r(x, y, z), w) - metric.inner(r(z, w, x), y)) < 1e-12
        # first Bianchi identity
        assert np.abs(r(x, y, z) + r(y, z, x) + r(z, x, y)).max() < 1e-12

    @given(seeds)
    def test_curvature_broadcasts_over_stacked_pairs(self, diagonal, seed):
        # the reverse pass feeds stacked vectors and multipliers in one call
        metric = so3.MetricSpec(np.diag(diagonal))
        gen = np.random.default_rng(seed)
        xs, ys = gen.standard_normal((2, 4, 3))
        z = gen.standard_normal(3)
        stacked = so3.curvature(xs, ys, z, metric)
        rows = np.stack([so3.curvature(a, b, z, metric) for a, b in zip(xs, ys)])
        assert stacked.shape == (4, 3)
        assert np.abs(stacked - rows).max() < 1e-12


class TestGeodesicEquation:
    def test_bi_invariant_rhs_vanishes(self, identity_metric, rng):
        w = rng.standard_normal(3)
        assert np.abs(geodesic_rate(w, identity_metric)).max() < 1e-15

    def test_principal_axis_stationary(self, inertia_metric):
        assert np.abs(geodesic_rate(E1, inertia_metric)).max() < 1e-15

    def test_direct_substitution(self, inertia_metric):
        got = geodesic_rate(np.array([1.0, 1.0, 0.0]), inertia_metric)
        assert np.abs(got - np.array([0.0, 0.0, -1.0 / 3.0])).max() < 1e-15


class TestTransportRate:
    def test_velocity_is_parallel_along_itself(self, identity_metric, rng):
        w = rng.standard_normal(3)
        assert np.abs(transport_rate(w, w, identity_metric)).max() < 1e-15

    def test_direct_substitution(self, identity_metric):
        # bi-invariant transport rate is -cross(omega, x)/2
        got = transport_rate(E1, E3, identity_metric)
        assert np.abs(got - np.array([0.0, -0.5, 0.0])).max() < 1e-15

    def test_rate_is_metric_skew(self, inertia_metric, rng):
        # d<X,X>_A/dt = 0 exactly, so the rate is A-orthogonal to X
        for _ in range(10):
            x, w = rng.standard_normal((2, 3))
            rate = transport_rate(x, w, inertia_metric)
            assert inertia_metric.inner(rate, x) == pytest.approx(0.0, abs=1e-12)


class TestGeodesicIntegrator:
    def test_zero_velocity_fixes_point(self, rng):
        group = rp.RotationGroup()
        r = group.random_point(rng)
        out, _ = integrate_geodesic(r, np.zeros(3), 1.0, 1e-2)
        assert np.abs(out - r).max() < 1e-12

    def test_quarter_turn_about_z(self):
        out, _ = integrate_geodesic(np.eye(3), np.array([0, 0, np.pi / 2]),
                                    1.0, 1e-3)
        expected = np.array([[0.0, -1.0, 0], [1.0, 0, 0], [0, 0, 1.0]])
        assert np.abs(out - expected).max() < 1e-9

    def test_bi_invariant_matches_closed_form_exactly(self, rng):
        # commuting per-step factors telescope: no step-size error at all
        w = rng.standard_normal(3)
        r0 = rp.RotationGroup().random_point(rng)
        for dt in (0.1, 0.01):
            out, _ = integrate_geodesic(r0, w, 1.0, dt)
            assert np.abs(out - r0 @ so3.rodrigues(w)).max() < 1e-12

    def test_general_metric_first_order_slope(self, inertia_metric):
        # self-convergence against a much finer run
        w = np.array([1.0, 1.0, 1.0])
        ref, _ = integrate_geodesic(np.eye(3), w, 1.0, 1e-5, inertia_metric)
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        errs = [
            np.abs(integrate_geodesic(np.eye(3), w, 1.0, dt, inertia_metric)[0]
                   - ref).max()
            for dt in dts
        ]
        slope = log_log_slope(dts, errs)
        assert 0.8 <= slope <= 1.2

    def test_kinetic_energy_conserved(self, inertia_metric):
        w0 = np.array([0.9, -0.5, 0.7])
        e0 = inertia_metric.inner(w0, w0)
        # midpoint stepping keeps the metric norm of the velocity
        w = w0.copy()
        n = 10000
        h = 1.0 / n
        for _ in range(n):
            w_mid = w + 0.5 * h * geodesic_rate(w, inertia_metric)
            w = w + h * geodesic_rate(w_mid, inertia_metric)
        assert abs(inertia_metric.inner(w, w) - e0) < 1e-6

    def test_manifold_exp_self_convergence(self, inertia_metric, rng):
        w = np.array([1.0, 1.0, 1.0])
        fine = rp.RotationGroup(inertia_metric, max_step=2e-5)
        ref = fine.exp(np.eye(3), w)
        for max_step in (1e-2, 1e-3):
            group = rp.RotationGroup(inertia_metric, max_step=max_step)
            err = np.abs(group.exp(np.eye(3), w) - ref).max()
            assert err < 10.0 * max_step ** 2 + 1e-10


class TestLogMap:
    def test_bi_invariant_closed_form(self, rng):
        group = rp.RotationGroup()
        p = group.random_point(rng)
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * 1.2
        assert np.abs(group.log(p, group.exp(p, v)) - v).max() < 1e-10

    def test_general_metric_shooting(self, inertia_metric, rng):
        group = rp.RotationGroup(inertia_metric, max_step=1e-3)
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 0.6)
        assert np.abs(group.log(p, group.exp(p, v)) - v).max() < 1e-7

    def test_antipodal_rotation_rejected(self):
        from riempoly.geometry import CutLocusError

        group = rp.RotationGroup()
        half_turn = so3.rodrigues(np.array([0.0, 0.0, np.pi]))
        with pytest.raises(CutLocusError):
            group.log(np.eye(3), half_turn)


class TestTransport:
    def test_transport_reversibility(self, inertia_metric, rng):
        group = rp.RotationGroup(inertia_metric, max_step=1e-4)
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 0.8)
        x = rng.standard_normal(3)
        q = group.exp(p, v)
        v_end = group.transport(p, v, v)
        back = group.transport(q, -v_end, group.transport(p, v, x))
        assert np.abs(back - x).max() < 1e-5

    def test_norm_preserved_along_geodesic(self, inertia_metric, rng):
        group = rp.RotationGroup(inertia_metric, max_step=1e-4)
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 1.0)
        x = rng.standard_normal(3)
        xt = group.transport(p, v, x)
        assert abs(inertia_metric.inner(xt, xt)
                   - inertia_metric.inner(x, x)) < 1e-6


class TestCurvature:
    def test_bi_invariant_examples(self, identity_metric):
        assert np.abs(so3.curvature(E1, E2, E3, identity_metric)).max() < 1e-15
        got = so3.curvature(E1, E2, E1, identity_metric)
        assert np.abs(got - np.array([0.0, -0.25, 0.0])).max() < 1e-15

    def test_bi_invariant_closed_form(self, identity_metric, rng):
        for _ in range(10):
            x, y, z = rng.standard_normal((3, 3))
            got = so3.curvature(x, y, z, identity_metric)
            expected = 0.25 * np.cross(z, np.cross(x, y))
            assert np.abs(got - expected).max() < 1e-12

    def test_holonomy_oracle_general_metric(self, inertia_metric, rng):
        """Loop transport around a small geodesic parallelogram.

        Riding x, then the transported y, then back, picks up
        s^2 R(x, y) on the transported vector, up to O(s^3) closure terms.
        """
        group = rp.RotationGroup(inertia_metric, max_step=2e-5)
        s = 1e-4
        p = group.random_point(rng)
        x, y, z = (rng.standard_normal(3) for _ in range(3))

        z_loop = np.array(z, dtype=float)
        point = p
        legs = []
        x_cur, y_cur = np.array(x), np.array(y)
        for direction in ("x", "y", "-x", "-y"):
            d = {"x": x_cur, "y": y_cur, "-x": -x_cur, "-y": -y_cur}[direction]
            step = s * d
            nxt = group.exp(point, step)
            stacked = np.stack([z_loop, x_cur, y_cur])
            moved = group.transport(point, step, stacked)
            z_loop, x_cur, y_cur = moved
            legs.append(nxt)
            point = nxt
        # close the (third-order small) gap back to p
        closing = group.log(point, p)
        z_loop = group.transport(point, closing, z_loop)

        holonomy = (z - z_loop) / (s * s)
        formula = so3.curvature(x, y, z, inertia_metric)
        rel = np.abs(holonomy - formula).max() / max(np.abs(formula).max(), 1e-12)
        assert rel < 1e-3

    def test_reverse_pass_uses_matching_convention(self, identity_metric, rng):
        # sectional pairing must be positive or adjoint fields blow up
        x, y = rng.standard_normal((2, 3))
        r = so3.curvature(x, y, y, identity_metric)
        sec = identity_metric.inner(r, x)
        gram = (identity_metric.inner(x, x) * identity_metric.inner(y, y)
                - identity_metric.inner(x, y) ** 2)
        assert sec == pytest.approx(0.25 * gram, rel=1e-12)


class TestManifoldInterface:
    def test_point_residuals_and_projection(self, rng):
        group = rp.RotationGroup()
        r = group.random_point(rng)
        drifted = r + 1e-3 * rng.standard_normal((3, 3))
        fixed = group.project_point(drifted)
        res = group.point_residuals(fixed)
        assert max(res.values()) < 1e-12

    def test_injectivity_radius_scales_with_metric(self, inertia_metric):
        assert rp.RotationGroup().injectivity_radius(np.eye(3)) == pytest.approx(np.pi)
        assert rp.RotationGroup(inertia_metric).injectivity_radius(np.eye(3)) \
            == pytest.approx(np.pi)
