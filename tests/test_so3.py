"""Rotation-group geometry: algebra operators, integrators, curvature."""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riempoly as rp
from riempoly import so3
from riempoly.geometry import CutLocusError, Manifold, ShootingError
from conftest import (
    injectivity_radius,
    integrate_geodesic,
    log_log_slope,
    transport_along_geodesic,
    unit_tangent,
    vee,
)

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
        assert np.array_equal(vee(so3.hat(x)), x)

    def test_vee_rejects_non_skew(self):
        with pytest.raises(ValueError):
            vee(np.eye(3))


class TestMetricSpec:
    def test_rejects_asymmetric(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            so3.MetricSpec(bad)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            so3.MetricSpec(np.diag([1.0, -1.0, 1.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="metric matrix must be 3x3"):
            so3.MetricSpec(np.eye(2))


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


# Q diag(1, 2, 3) Q^T for a fixed rotation Q: a metric whose principal axes
# are not the basis, so the connection tensor has no zero pattern to lean on
_AXES = so3.rodrigues(np.array([0.3, -0.7, 0.5]))
_ROTATED = _AXES @ np.diag([1.0, 2.0, 3.0]) @ _AXES.T
_ROTATED = (_ROTATED + _ROTATED.T) / 2


@pytest.mark.parametrize("matrix", [np.eye(3), np.diag([1.0, 2.0, 3.0]), _ROTATED],
                         ids=["diagonal0", "diagonal1", "rotated"])
class TestConnectionProperties:
    @given(seeds)
    def test_metric_compatible(self, matrix, seed):
        metric = so3.MetricSpec(matrix)
        x, y, z = np.random.default_rng(seed).standard_normal((3, 3))
        lhs = (metric.inner(so3.connection(x, y, metric), z)
               + metric.inner(y, so3.connection(x, z, metric)))
        assert abs(lhs) < 1e-12

    @given(seeds)
    def test_torsion_free(self, matrix, seed):
        metric = so3.MetricSpec(matrix)
        x, y = np.random.default_rng(seed).standard_normal((2, 3))
        torsion = (so3.connection(x, y, metric) - so3.connection(y, x, metric)
                   - np.cross(x, y))
        assert np.abs(torsion).max() < 1e-12

    @given(seeds)
    def test_matches_bracket_and_adjoints(self, matrix, seed):
        metric = so3.MetricSpec(matrix)
        x, y = np.random.default_rng(seed).standard_normal((2, 3))
        expected = 0.5 * (np.cross(x, y) - ad_transpose(x, y, metric)
                          - ad_transpose(y, x, metric))
        # relative to |x| |y|, the scale of a bilinear form: the value itself
        # can be far smaller where the bracket and the adjoints cancel
        err = np.abs(so3.connection(x, y, metric) - expected).max()
        assert err < 1e-12 and err <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(y)

    @given(seeds)
    def test_broadcasts_over_stacked_fields(self, matrix, seed):
        # x of shape (5, 1, 3) against y of shape (4, 3): every pair, as the
        # bracket-and-adjoints oracle broadcasts it
        metric = so3.MetricSpec(matrix)
        gen = np.random.default_rng(seed)
        x, y = gen.standard_normal((5, 1, 3)), gen.standard_normal((4, 3))
        expected = 0.5 * (np.cross(x, y) - ad_transpose(x, y, metric)
                          - ad_transpose(y, x, metric))
        got = so3.connection(x, y, metric)
        assert got.shape == (5, 4, 3)
        scale = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
        assert np.all(np.abs(got - expected).max(axis=-1) <= 1e-14 * scale)

    @given(seeds)
    def test_curvature_symmetries(self, matrix, seed):
        metric = so3.MetricSpec(matrix)
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
    def test_curvature_broadcasts_over_stacked_pairs(self, matrix, seed):
        # the reverse pass feeds stacked vectors and multipliers in one call
        metric = so3.MetricSpec(matrix)
        gen = np.random.default_rng(seed)
        xs, ys = gen.standard_normal((2, 4, 3))
        z = gen.standard_normal(3)
        stacked = so3.curvature(xs, ys, z, metric)
        rows = np.stack([so3.curvature(a, b, z, metric) for a, b in zip(xs, ys)])
        assert stacked.shape == (4, 3)
        assert np.abs(stacked - rows).max() < 1e-12

    @given(seeds)
    def test_curvature_contracts_the_nested_connection(self, matrix, seed):
        # the tensor MetricSpec builds, contracted, against
        # nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z for every pair
        # of x of shape (5, 1, 3) and y of shape (4, 3)
        metric = so3.MetricSpec(matrix)
        gen = np.random.default_rng(seed)
        x, y, z = gen.standard_normal((5, 1, 3)), *gen.standard_normal((2, 4, 3))

        def nabla(a, b):
            return so3.connection(a, b, metric)

        expected = nabla(x, nabla(y, z)) - nabla(y, nabla(x, z)) - nabla(np.cross(x, y), z)
        got = so3.curvature(x, y, z, metric)
        assert got.shape == (5, 4, 3)
        scale = (np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
                 * np.linalg.norm(z, axis=-1))
        assert np.all(np.abs(got - expected).max(axis=-1) <= 1e-15 * scale)


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

    def test_manifold_exp_self_convergence(self, inertia_metric, monkeypatch):
        # a chord beyond _MAX_STEP takes Runge-Kutta substeps with the
        # fourth-order Magnus turn: every halving of the substep divides the
        # errors of the endpoint and of the carried fields by about 16.  The
        # chord, just under 1.2, takes 4, 8, ..., 64 substeps
        group = rp.RotationGroup(inertia_metric)
        gen = np.random.default_rng(12)
        p = group.random_point(gen)
        w = 1.19 * np.ones(3) / np.sqrt(3.0)
        fields = gen.standard_normal((2, 3))
        monkeypatch.setattr(so3, "_RK4_STEP", 0.3 / 128)
        ref_end, ref_fields = group.step(p, w, fields)
        end_errs, field_errs = [], []
        for count in (4, 8, 16, 32, 64):
            monkeypatch.setattr(so3, "_RK4_STEP", 1.2 / count)
            assert len(group._flow(so3._stacked(w, fields))[1]) == count
            end, moved = group.step(p, w, fields)
            end_errs.append(np.abs(end - ref_end).max())
            field_errs.append(np.abs(moved - ref_fields).max())
        for errs in (end_errs, field_errs):
            assert min(a / b for a, b in zip(errs, errs[1:])) >= 14.0, errs

    def test_short_chord_takes_one_midpoint_substep(self, inertia_metric, rng):
        # a chord up to _MAX_STEP takes one midpoint substep, bit for bit
        group = rp.RotationGroup(inertia_metric)
        for length in (1e-7, 1e-4, 1e-3, 0.999 * so3._MAX_STEP):
            p = group.random_point(rng)
            v = rng.standard_normal(3)
            v *= length / np.linalg.norm(v)
            fields = rng.standard_normal((3, 3))
            end, moved = group.step(p, v, fields)
            ref_end, ref_moved = midpoint_substeps(group, p, v, fields)
            assert np.array_equal(end, ref_end), length
            assert np.array_equal(moved, ref_moved), length

    @pytest.mark.parametrize("diagonal", [(1.0, 2.0, 3.0), (1.0, 1.0, 10.0)])
    def test_no_worse_than_midpoint_substeps(self, diagonal, monkeypatch):
        # 20 seeded directions at metric lengths 0.006 to 1.2: against a fine
        # Runge-Kutta reference, the flow's endpoint and carried fields err
        # no more than midpoint substeps of at most _MAX_STEP (worst ratio
        # 0.66 under diag(1, 1, 10), 0.03 under diag(1, 2, 3))
        group = rp.RotationGroup(so3.MetricSpec(np.diag(diagonal)))
        gen = np.random.default_rng(33)
        for _ in range(20):
            p = group.random_point(gen)
            u = unit_tangent(group, gen, p)
            fields = gen.standard_normal((2, 3))
            for length in (0.006, 0.05, 0.3, 1.2):
                v = length * u
                end, moved = group.step(p, v, fields)
                mid_end, mid_moved = midpoint_substeps(group, p, v, fields)
                with monkeypatch.context() as fine:
                    fine.setattr(so3, "_MAX_STEP", 0.0)
                    fine.setattr(so3, "_RK4_STEP", 2.5e-3)
                    ref_end, ref_moved = group.step(p, v, fields)
                where = (diagonal, length)
                assert (np.abs(end - ref_end).max()
                        <= np.abs(mid_end - ref_end).max()), where
                assert (np.abs(moved - ref_moved).max()
                        <= np.abs(mid_moved - ref_moved).max()), where


def midpoint_substeps(group, p, v, fields):
    """The general-metric step in ceil(|v| / _MAX_STEP) midpoint substeps.

    The flow's midpoint arithmetic, operation for operation, on every chord:
    each substep's turn is h times the midpoint velocity, and the endpoint
    composes the turns and takes the polar factor.  Returns the endpoint and
    the carried fields.
    """
    f = np.concatenate([v[None], fields])
    h = 1.0 / math.ceil(math.sqrt(float(v @ v)) / so3._MAX_STEP)
    turns = []
    for _ in range(round(1.0 / h)):
        mid = f - 0.5 * h * so3._along(f, group.metric)
        turns.append((h * mid[:1])[0])
        f = f - h * so3._along(mid, group.metric)
    return group.project_point(so3._compose(p, turns)), f[1:]


def turn_rotation(w):
    """One turn's exact rotation, the series below 1e-6 rad: the per-turn oracle."""
    theta2 = float(np.dot(w, w))
    theta = np.sqrt(theta2)
    k = so3.hat(w)
    if theta < 1e-6:
        s = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        c = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        s, c = np.sin(theta) / theta, (1.0 - np.cos(theta)) / theta2
    return np.eye(3) + s * k + c * (k @ k)


class TestComposedTurns:
    @pytest.mark.parametrize("scales", [(0.3,), (1e-3,) * 10, (1e-8, 2.0, 1e-7),
                                        (0.0, 1e-7, 0.5), (5e-3,) * 200],
                             ids=["one", "ten", "mixed", "zero_turn", "long"])
    def test_one_batched_rodrigues_matches_the_turn_loop(self, scales, rng):
        # every turn of a step in one rodrigues call, the small-angle series
        # kept per turn: the endpoint stays within 1e-15 of composing each
        # turn's own rotation in order
        turns = rng.standard_normal((len(scales), 3)) * np.array(scales)[:, None]
        p = rp.RotationGroup().random_point(rng)
        expected = p
        for w in turns:
            expected = expected @ turn_rotation(w)
        assert np.abs(so3.rodrigues(turns)
                      - np.array([turn_rotation(w) for w in turns])).max() <= 1e-15
        assert np.abs(so3._compose(p, turns) - expected).max() <= 1e-15

    def test_single_vector_gives_one_matrix(self, rng):
        w = rng.standard_normal(3)
        assert so3.rodrigues(w).shape == (3, 3)
        assert np.abs(so3.rodrigues(w) - turn_rotation(w)).max() <= 1e-15
        assert np.array_equal(so3.rodrigues(np.zeros(3)), np.eye(3))


class TestLogMap:
    def test_bi_invariant_closed_form(self, rng):
        group = rp.RotationGroup()
        p = group.random_point(rng)
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * 1.2
        assert np.abs(group.log(p, group.exp(p, v)) - v).max() < 1e-10

    def test_general_metric_shooting(self, inertia_metric, rng):
        group = rp.RotationGroup(inertia_metric)
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 0.6)
        assert np.abs(group.log(p, group.exp(p, v)) - v).max() < 1e-7

    @pytest.mark.parametrize("radius", [0.05, 0.5, 1.5, 2.5])
    def test_general_metric_sweep_converges(self, inertia_metric, radius):
        # seeded pairs up to 0.8 of the injectivity radius pi: every log
        # reaches its tolerance and recovers the shooting velocity
        group = rp.RotationGroup(inertia_metric)
        gen = np.random.default_rng(int(radius * 1000))
        for _ in range(3):
            p = group.random_point(gen)
            v = unit_tangent(group, gen, p, radius)
            q = group.exp(p, v)
            try:
                u = group.log(p, q)
            except ShootingError as exc:
                pytest.fail(f"log stalled at radius {radius}: {exc}")
            # the endpoint the log measured its residual on
            end = group.project_point(group.exp(p, u))
            assert group.norm(end, so3.rotation_log(end.T @ q)) <= 1e-10
            assert np.abs(u - v).max() < 1e-8

    def test_general_metric_logs_run_through_shooting_log(self, inertia_metric,
                                                          monkeypatch):
        # the lockstep loop is geometry.shooting_log: one general-metric
        # log_many is one call of it, for the whole batch, and the closed
        # form of A = I never calls it
        calls = []
        loop = so3.shooting_log

        def counted(*args, **kwargs):
            calls.append(1)
            return loop(*args, **kwargs)

        monkeypatch.setattr(so3, "shooting_log", counted)
        gen = np.random.default_rng(5)
        for group, expected in ((rp.RotationGroup(), 0), (rp.RotationGroup(inertia_metric), 1)):
            points = np.stack([group.random_point(gen) for _ in range(4)])
            targets = np.stack([group.exp(p, unit_tangent(group, gen, p, 0.5)) for p in points])
            calls.clear()
            group.log_many(points, targets)
            assert len(calls) == expected

    def test_second_order_start_leaves_a_third_order_gap(self, inertia_metric):
        # the geodesic with velocity v ends at r = v - nabla_v v / 2 + O(|v|^3),
        # so the start r + nabla_r r / 2 misses the target by O(|r|^3) and r
        # itself by O(|r|^2).  The chords take the fourth-order flow, whose
        # error stays far below the gaps even where the substep count
        # differs between the start and v
        group = rp.RotationGroup(inertia_metric)
        radii = [0.0125, 0.025, 0.05, 0.1]
        gen = np.random.default_rng(4)
        for _ in range(3):
            p = group.random_point(gen)
            u = unit_tangent(group, gen, p)
            principal, second = [], []
            for r in radii:
                q = group.exp(p, r * u)
                rel = so3.rotation_log(p.T @ q)
                for gaps, start in ((principal, rel),
                                    (second, rel + 0.5 * so3.connection(rel, rel, inertia_metric))):
                    end = group.exp(p, start)
                    gaps.append(group.norm(end, so3.rotation_log(end.T @ q)))
            assert log_log_slope(radii, principal) < 2.2
            assert log_log_slope(radii, second) >= 2.8

    def test_cubic_start_leaves_a_fourth_order_gap(self, inertia_metric):
        # the Magnus inverse through the cubic term, the start of every shot
        # within _CUBIC_START_ANGLE, misses the target by O(|r|^4).  The
        # radii stop where the flow's own error, below 1.5e-10 up to 0.05
        # and 1.5e-9 at 0.2, stays far below the gaps (2.5e-10 at 0.025)
        group = rp.RotationGroup(inertia_metric)
        radii = [0.025, 0.05, 0.1, 0.2]
        gen = np.random.default_rng(4)
        for _ in range(3):
            p = group.random_point(gen)
            u = unit_tangent(group, gen, p)
            gaps = []
            for r in radii:
                q = group.exp(p, r * u)
                rel = so3.rotation_log(p.T @ q)
                g = so3.connection(rel, rel, inertia_metric)
                start = rel + 0.5 * g + (so3.connection(g, rel, inertia_metric)
                                         + so3.connection(rel, g, inertia_metric)
                                         + np.cross(rel, g)) / 12.0
                end = group.exp(p, start)
                gaps.append(group.norm(end, so3.rotation_log(end.T @ q)))
            assert log_log_slope(radii, gaps) >= 3.8

    def test_general_metric_log_needs_few_flows(self, inertia_metric, monkeypatch):
        # full shots from the cubic start take 2.0 flows per pair on nearby
        # pairs: the start and one correction.  From the second-order start
        # they took 2.8, from the principal vector 3.0, and half shots ~47.
        # Each 0.05 shot is one Runge-Kutta substep: one turn per flow
        calls = {"flow": 0, "turn": 0}
        flow = rp.RotationGroup._flow

        def counting_flow(self, *args):
            moved, turns = flow(self, *args)
            calls["flow"] += 1
            calls["turn"] += len(turns)
            return moved, turns

        group = rp.RotationGroup(inertia_metric)
        gen = np.random.default_rng(50)
        pairs = []
        for _ in range(10):
            p = group.random_point(gen)
            pairs.append((p, group.exp(p, unit_tangent(group, gen, p, 0.05))))
        monkeypatch.setattr(rp.RotationGroup, "_flow", counting_flow)
        for p, q in pairs:
            group.log(p, q)
        assert calls["flow"] <= 20
        assert calls["turn"] <= calls["flow"]

    def test_zero_angle_rows_leave_after_the_first_shot(self, inertia_metric, monkeypatch):
        # a pair at a zero principal angle starts from zero, and its first
        # shot's gap is exactly zero: it logs to an exact zero, takes no
        # later shot, and the other rows come out bit for bit as from a
        # batch without it
        group = rp.RotationGroup(inertia_metric)
        gen = np.random.default_rng(31)
        points = np.stack([group.random_point(gen) for _ in range(5)])
        targets = np.stack([group.exp(p, unit_tangent(group, gen, p, 0.3)) for p in points])
        targets[[1, 3]] = points[[1, 3]]
        widths = []
        loop = so3.shooting_log

        def counted(shot, v, **kwargs):
            def wrapped(rows, vel):
                widths.append(len(vel))
                return shot(rows, vel)
            return loop(wrapped, v, **kwargs)

        monkeypatch.setattr(so3, "shooting_log", counted)
        logs = group.log_many(points, targets)
        assert widths[0] == 5 and max(widths[1:]) == 3
        assert logs[[1, 3]].tobytes() == np.zeros((2, 3)).tobytes()
        keep = [0, 2, 4]
        assert logs[keep].tobytes() == group.log_many(points[keep], targets[keep]).tobytes()
        widths.clear()
        assert group.log_many(points[[1, 3]], targets[[1, 3]]).tobytes() == np.zeros((2, 3)).tobytes()
        assert widths == [2]

    def test_anisotropic_sweep_keeps_its_converging_pairs(self):
        # strong anisotropy, diag(1, 1, 10), at metric radius 1.0 and 2.0,
        # each from a fresh generator: every pair that converged from the
        # second-order start still converges.  Pair 17 at 2.0 (|r| = 1.97)
        # fails from the cubic start, so it keeps the second-order one
        # beyond _CUBIC_START_ANGLE
        group = rp.RotationGroup(so3.MetricSpec(np.diag([1.0, 1.0, 10.0])))
        expected = {1.0: set(range(20)) - {6}, 2.0: {0, 2, 3, 5, 9, 14, 15, 17}}
        for radius, converging in expected.items():
            gen = np.random.default_rng(2007)
            pairs = []
            for _ in range(20):
                p = group.random_point(gen)
                pairs.append((p, group.exp(p, unit_tangent(group, gen, p, radius))))
            for i in sorted(converging):
                p, q = pairs[i]
                try:
                    group.log(p, q)
                except ShootingError as exc:
                    pytest.fail(f"pair {i} at radius {radius}: {exc}")

    def test_antipodal_rotation_rejected(self):
        from riempoly.geometry import CutLocusError

        group = rp.RotationGroup()
        half_turn = so3.rodrigues(np.array([0.0, 0.0, np.pi]))
        with pytest.raises(CutLocusError):
            group.log(np.eye(3), half_turn)

    @pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_rotation_log_accurate_near_a_half_turn(self, gap):
        # near a half turn the angle needs arctan2(|skew|, tr R - 1): arccos
        # of the trace would lose half its digits, 1.7e-5 at pi - 1e-5
        axes = np.random.default_rng(7).standard_normal((200, 3))
        w = (np.pi - gap) * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        assert np.abs(so3.rotation_log(so3.rodrigues(w)) - w).max() <= 1e-9

    def test_rounded_half_turns_rejected(self):
        # half turns between Haar-random rotations, formed with rounding,
        # each read within 1e-9 of pi: every pair is on the cut locus
        group = rp.RotationGroup()
        gen = np.random.default_rng(11)
        axes = gen.standard_normal((2000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        points = np.stack([group.random_point(gen) for _ in range(2000)])
        targets = points @ so3.rodrigues(np.pi * axes)
        for p, q in zip(points, targets):
            with pytest.raises(CutLocusError):
                group.log_many(p[None], q[None])


class TestLogErrors:
    """A failed log names the pair of the batch it failed on."""

    @pytest.mark.parametrize("matrix", [np.eye(3), np.diag([1.0, 2.0, 3.0])],
                             ids=["identity", "inertia"])
    def test_cut_locus_error_names_the_first_pair(self, matrix, rng):
        # pairs 1 and 3 are exact half turns apart (a cyclic permutation and
        # diagonal sign flips multiply without rounding); the error names
        # pair 1 and its angle
        group = rp.RotationGroup(so3.MetricSpec(matrix))
        cycle = np.eye(3)[[1, 2, 0]]
        points = np.stack([group.random_point(rng), cycle, group.random_point(rng), cycle])
        targets = np.stack([points[0] @ so3.rodrigues(0.3 * E1),
                            cycle @ np.diag([-1.0, 1.0, -1.0]),
                            points[2] @ so3.rodrigues(0.5 * E3),
                            cycle @ np.diag([1.0, -1.0, -1.0])])
        with pytest.raises(CutLocusError, match=r"batch index 1: angle 3\.14159"):
            group.log_many(points, targets)

    def test_shooting_error_names_the_worst_pair(self, inertia_metric, rng, monkeypatch):
        # a flow whose transported basis points the wrong way never reduces a
        # gap, so every pair halves its step until it gives up; the error
        # names the pair left farthest from its target and keeps its residual.
        # A pair at a zero angle put in front converges on the first shot,
        # and the error still counts it in the batch
        group = rp.RotationGroup(inertia_metric)
        points = np.stack([group.random_point(rng) for _ in range(3)])
        targets = np.stack([group.exp(p, unit_tangent(group, rng, p, r))
                            for p, r in zip(points, (0.2, 0.6, 0.4))])
        # each pair's first residual: the endpoint of the cubic start from
        # its principal rotation vector r, with g = nabla_r r, r + g / 2 +
        # (nabla_g r + nabla_r g + cross(r, g)) / 12
        first = []
        for p, q in zip(points, targets):
            r = so3.rotation_log(p.T @ q)
            g = so3.connection(r, r, inertia_metric)
            end = group.exp(p, r + 0.5 * g + (so3.connection(g, r, inertia_metric)
                                              + so3.connection(r, g, inertia_metric)
                                              + np.cross(r, g)) / 12.0)
            first.append(group.norm(end, so3.rotation_log(end.T @ q)))
        flow = rp.RotationGroup._flow

        def reversed_flow(self, f):
            moved, turns = flow(self, f)
            return -moved, turns

        monkeypatch.setattr(rp.RotationGroup, "_flow", reversed_flow)
        assert int(np.argmax(first)) == 1
        with pytest.raises(ShootingError, match="pair 1 of 3") as caught:
            group.log_many(points, targets)
        assert caught.value.residual == pytest.approx(first[1], rel=1e-12)
        still = group.random_point(rng)
        with pytest.raises(ShootingError, match="pair 2 of 4") as caught:
            group.log_many(np.concatenate([still[None], points]),
                           np.concatenate([still[None], targets]))
        assert caught.value.residual == pytest.approx(first[1], rel=1e-12)


@pytest.mark.parametrize("view", ["exp", "transport", "step"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("matrix", [np.eye(3), np.diag([1.0, 2.0, 3.0])],
                         ids=["identity", "inertia"])
def test_non_finite_velocity_is_named(matrix, bad, view):
    # the flow reads every chord before either metric's branch, so a NaN or
    # infinite velocity fails with one message on both metrics, not deep in
    # a substep count or an SVD, and never returns NaN
    group = rp.RotationGroup(so3.MetricSpec(matrix))
    v = np.array([bad, 0.0, 0.0])
    run = {"exp": lambda: group.exp(np.eye(3), v),
           "transport": lambda: group.transport(np.eye(3), v, E2),
           "step": lambda: group.step(np.eye(3), v, np.stack([E2, E3]))}[view]
    with pytest.raises(ValueError, match="velocity is not finite: row 0 has chord length"):
        run()


class TestBatchedKernels:
    """The log shoots every pair at once: each kernel batches over a leading
    pair axis, and a row's result does not depend on the batch around it."""

    def test_log_of_a_pair_does_not_depend_on_its_batch(self, inertia_metric):
        group = rp.RotationGroup(inertia_metric)
        gen = np.random.default_rng(23)
        points, targets = [], []
        for radius in np.linspace(0.05, 2.5, 8):
            p = group.random_point(gen)
            points.append(p)
            targets.append(group.exp(p, unit_tangent(group, gen, p, radius)))
        lockstep = group.log_many(np.stack(points), np.stack(targets))
        for log, p, q in zip(lockstep, points, targets):
            assert np.abs(log - group.log(p, q)).max() <= 1e-14

    def test_flow_rows_take_their_own_substeps(self, inertia_metric, rng):
        # no substep, one midpoint substep, and 1, 3 and 4 Runge-Kutta
        # substeps: each row moves as it does alone, and a row that is done
        # holds still, its turns zero
        group = rp.RotationGroup(inertia_metric)
        speeds = np.array([0.0, 4e-3, 0.012, 0.12, 0.2])
        v = rng.standard_normal((5, 3))
        v *= (speeds / np.linalg.norm(v, axis=1))[:, None]
        stack = rng.standard_normal((5, 2, 3))
        moved, turns = group._flow(so3._stacked(v, stack))
        assert len(turns) == 4
        points = np.stack([group.random_point(rng) for _ in range(5)])
        ends = so3._compose(points, turns)
        for b in range(5):
            alone, own = group._flow(so3._stacked(v[b], stack[b]))
            assert len(own) == [0, 1, 1, 3, 4][b]
            assert np.abs(moved[b] - alone).max() <= 1e-15
            assert np.abs(ends[b] - so3._compose(points[b], own)).max() <= 1e-15
            assert not np.any(np.stack(turns)[len(own):, b])

    def test_rotation_log_rows_match_on_every_branch(self, rng):
        # zero, the series below 1e-6 rad, the generic angle, and the axis
        # branch near pi with either sign of the skew part
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angles = [0.0, 1e-8, 1.0, np.pi - 1e-7, -(np.pi - 1e-7)]
        rots = np.stack([so3.rodrigues(a * axis) for a in angles])
        stacked = so3.rotation_log(rots)
        for a, r, w in zip(angles, rots, stacked):
            assert np.array_equal(w, so3.rotation_log(r))
            assert np.abs(w - a * axis).max() <= 1e-6 * max(abs(a), 1e-8)

    def test_project_point_rows_match_on_a_reflection(self, rng):
        group = rp.RotationGroup()
        mats = rng.standard_normal((4, 3, 3))
        mats[2] = -np.stack([group.random_point(rng)])[0]      # det -1
        stacked = group.project_point(mats)
        for m, r in zip(mats, stacked):
            assert np.array_equal(r, group.project_point(m))
        assert np.abs(np.linalg.det(stacked) - 1.0).max() < 1e-12


class TestAlgebraFlow:
    """The rotation group's own integrate and pullback run in the algebra.

    They are the step loop's and the default recursion's math, with the
    rotations composed once per pass, the step loop's record kept as it
    is, and the node maps, each block's transports from one batched call,
    applied as batched running products."""

    METRICS = pytest.mark.parametrize("matrix", [np.eye(3), np.diag([1.0, 2.0, 3.0])],
                                      ids=["identity", "inertia"])

    @pytest.mark.parametrize("case", ["random", "zero_v1", "zero", "tiny"])
    @METRICS
    def test_matches_step_loop_and_default_recursion(self, matrix, case, rng):
        group = rp.RotationGroup(so3.MetricSpec(matrix))
        grids = (rp.time_grid(1.0, 1), rp.time_grid(1.0, 7, [0.3141]),
                 rp.time_grid(1.0, 200))
        for k in (1, 2, 3):
            for times in grids:
                p = group.random_point(rng)
                vels = np.array([unit_tangent(group, rng, p) for _ in range(k)])
                if case == "zero_v1":
                    vels[0] = 0.0
                elif case == "zero":
                    vels[:] = 0.0
                elif case == "tiny":
                    vels *= 1e-10
                where = f"order {k}, {len(times) - 1} steps"
                ref_points, ref_flow = Manifold.integrate(group, p, vels, times)
                points, flow = group.integrate(p, vels, times)
                # the step loop's whole record, its vectors and matrices, bit
                # for bit, and nothing beside it
                assert len(flow) == len(ref_flow) == 2
                for got_part, ref_part in zip(flow, ref_flow):
                    assert np.array_equal(got_part, ref_part), where
                assert np.array_equal(points[0], p)
                assert np.abs(points - ref_points).max() <= 1e-13, where
                if case == "zero":
                    assert np.array_equal(points, np.repeat(p[None], len(times), axis=0))
                # the batched node maps against the node walk, with cotangents
                # at node 0 only, at the last node only, and at every third
                for nodes in ([0], [len(times) - 1], np.arange(0, len(times), 3)):
                    nodes = np.asarray(nodes)
                    cotangents = rng.standard_normal((len(nodes), 3))
                    expected = Manifold.pullback(
                        group, rp.Trajectory(times, ref_points, ref_flow), nodes, cotangents)
                    got = group.pullback(rp.Trajectory(times, points, flow), nodes, cotangents)
                    assert got.shape == expected.shape == (k + 1, 3)
                    gap = np.abs(got - expected).max()
                    assert gap <= 1e-13 * np.abs(expected).max(), (where, nodes)

    @METRICS
    def test_pass_takes_no_step_and_no_projection(self, matrix, rng, monkeypatch):
        # the nodes are products of exact turns, rotations to rounding, so a
        # forward and a reverse pass take no polar factor at all
        group = rp.RotationGroup(so3.MetricSpec(matrix))
        p = group.random_point(rng)
        state = rp.PolynomialState(p, [unit_tangent(group, rng, p) for _ in range(3)])
        nodes = np.arange(0, 51, 5)
        cotangents = rng.standard_normal((len(nodes), 3))
        calls = Counter()
        for name in ("step", "project_point"):
            def counted(*args, _name=name, _fn=getattr(rp.RotationGroup, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(rp.RotationGroup, name, counted)
        traj = rp.integrate_polynomial(group, state, rp.time_grid(1.0, 50))
        group.pullback(traj, nodes, cotangents)
        assert calls == Counter()
        # the counters work: the default integrate steps node by node, and
        # each step takes its endpoint's polar factor
        Manifold.integrate(group, p, state.vels, rp.time_grid(1.0, 50))
        assert calls == Counter(step=50, project_point=50)

    @pytest.mark.parametrize("matrix", [np.eye(3), np.diag([1.0, 2.0, 3.0]),
                                        np.diag([1.0, 1.0, 10.0])],
                             ids=["identity", "inertia", "anisotropic"])
    def test_nodes_are_rotations(self, matrix, rng):
        # no node takes a polar factor: a running product of exact turns
        # stays orthogonal with determinant 1 to rounding, however many
        # steps it takes
        group = rp.RotationGroup(so3.MetricSpec(matrix))
        for k in (1, 2, 3):
            for steps in (7, 200, 4000):
                p = group.random_point(rng)
                vels = 3.0 * rng.standard_normal((k, 3))
                points, _ = group.integrate(p, vels, rp.time_grid(1.0, steps))
                gram = np.swapaxes(points, -1, -2) @ points
                where = f"order {k}, {steps} steps"
                assert np.abs(gram - np.eye(3)).max() <= 1e-12, where
                assert np.abs(np.linalg.det(points) - 1.0).max() <= 1e-12, where


class TestTransport:
    @pytest.mark.parametrize("matrix", [np.eye(3), np.diag([1.0, 2.0, 3.0])],
                             ids=["identity", "inertia"])
    def test_transport_takes_a_stack_of_directions(self, matrix, rng):
        # the fields of row b ride along direction b, as in one call per row
        group = rp.RotationGroup(so3.MetricSpec(matrix))
        p = group.random_point(rng)
        directions = 0.3 * rng.standard_normal((4, 3))
        for shape in ((4, 3), (4, 2, 3)):
            x = rng.standard_normal(shape)
            moved = group.transport(p, directions, x)
            assert moved.shape == shape
            for b in range(4):
                alone = group.transport(p, directions[b], x[b])
                assert np.abs(moved[b] - alone).max() <= 1e-15, (shape, b)

    @pytest.mark.parametrize("matrix", [np.eye(3), np.diag([1.0, 2.0, 3.0])],
                             ids=["identity", "inertia"])
    def test_velocities_carry_the_points_leading_axes(self, matrix, rng):
        # one point broadcasts against a batch of velocities, each row
        # stepping from it; other leading axes would compose every row's
        # turns into one rotation, so they raise and name both shapes
        group = rp.RotationGroup(so3.MetricSpec(matrix))
        p = group.random_point(rng)
        v = 0.3 * rng.standard_normal((4, 3))
        ends = group.exp(p, v)
        assert ends.shape == (4, 3, 3)
        for b in range(4):
            assert np.array_equal(ends[b], group.exp(p, v[b])), b
        for points in (np.stack([p, p]), p[None]):
            message = f"velocities (4, 3) do not match points {points.shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                group.exp(points, v)
            with pytest.raises(ValueError, match=re.escape(message)):
                group.transport(points, v, v)

    def test_transport_reversibility(self, inertia_metric, rng):
        group = rp.RotationGroup(inertia_metric)
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 0.8)
        x = rng.standard_normal(3)
        q = group.exp(p, v)
        v_end = group.transport(p, v, v)
        back = group.transport(q, -v_end, group.transport(p, v, x))
        assert np.abs(back - x).max() < 1e-5

    def test_norm_preserved_along_geodesic(self, inertia_metric, rng):
        group = rp.RotationGroup(inertia_metric)
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 1.0)
        x = rng.standard_normal(3)
        xt = group.transport(p, v, x)
        assert abs(inertia_metric.inner(xt, xt)
                   - inertia_metric.inner(x, x)) < 1e-6

    def test_transport_is_the_transport_half_of_step(self, inertia_metric, rng):
        # the group writes its geodesic once, in step: transport is the base
        # class's view of it under a general metric and under A = I alike
        group = rp.RotationGroup(inertia_metric)
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 0.7)
        x = rng.standard_normal((4, 3))
        assert np.array_equal(group.transport(p, v, x), group.step(p, v, x)[1])
        identity = rp.RotationGroup()
        assert np.array_equal(identity.transport(p, v, x), identity.step(p, v, x)[1])

    def test_bi_invariant_closed_form_matches_oracle(self, identity_metric, rng):
        group = rp.RotationGroup()
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 1.2)
        x = rng.standard_normal((4, 3))
        closed = group.transport(p, v, x)
        dts = [1e-3, 5e-4, 2.5e-4]
        runs = [transport_along_geodesic(v, x, 1.0, dt, identity_metric)
                for dt in dts]
        errs = [np.abs(run - closed).max() for run in runs]
        # the oracle's first-order error shrinks onto the closed form, and
        # its Richardson extrapolation meets it to second order (~2e-8); the
        # general metric's stepped flow, run on A = I, misses by ~4e-9
        assert 0.95 <= log_log_slope(dts, errs) <= 1.05
        assert np.abs(2.0 * runs[2] - runs[1] - closed).max() < 1e-7

    def test_bi_invariant_exact_reversibility_and_norm(self, rng):
        group = rp.RotationGroup()
        p = group.random_point(rng)
        v = unit_tangent(group, rng, p, 1.5)
        x = rng.standard_normal((4, 3))
        q, moved = group.step(p, v, x)
        v_end = group.transport(p, v, v)
        back = group.transport(q, -v_end, moved)
        assert np.abs(back - x).max() < 1e-12
        norms = np.linalg.norm(x, axis=1)
        assert np.abs(np.linalg.norm(moved, axis=1) - norms).max() < 1e-12


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

    def test_holonomy_oracle_general_metric(self, inertia_metric, rng, monkeypatch):
        """Loop transport around a small geodesic parallelogram.

        Riding x, then the transported y, then back, picks up
        s^2 R(x, y) on the transported vector, up to O(s^3) closure terms.
        """
        # every leg, though far shorter than _MAX_STEP, takes a Runge-Kutta
        # substep, so that the flow's error stays far below s^3
        monkeypatch.setattr(so3, "_MAX_STEP", 2e-5)
        group = rp.RotationGroup(inertia_metric)
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
        assert group.point_residual(fixed) < 1e-12

    def test_injectivity_radius_scales_with_metric(self, inertia_metric):
        assert injectivity_radius(rp.RotationGroup(), np.eye(3)) == pytest.approx(np.pi)
        assert injectivity_radius(rp.RotationGroup(inertia_metric), np.eye(3)) \
            == pytest.approx(np.pi)
