"""Shared fixtures and oracle helpers for the test suite."""

import math
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import riempoly as rp
from riempoly import so3
from riempoly.kendall import _align_many
from riempoly.regress import _residuals, integrate_adjoint

# deterministic examples and no per-example deadline: the suite must give
# the same verdict on every run, however loaded the machine
settings.register_profile("riempoly", derandomize=True, deadline=None)
settings.load_profile("riempoly")

SRC = Path(__file__).resolve().parents[1] / "src"
RAT_FIXTURE = SRC / "riempoly" / "data" / "rat_calvaria_synthetic.csv"

Child = namedtuple("Child", "code stderr files")


def run_riempoly(workdir, seed, *argv, code=None):
    """Run `python -m riempoly *argv`, or `python -c code *argv`, in a fresh process.

    The child imports the package from src/, with nothing installed, treats
    warnings as errors, as the suite does, and hashes under
    PYTHONHASHSEED=seed: the rolled passes memoize their chord tables by the
    grid's bytes, and no output may depend on where a hash puts them.  It
    runs in workdir, a new directory, so relative output paths land there.
    Returns the exit code, stderr, and the bytes of every file it wrote, by
    path relative to workdir.
    """
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="error",
               PYTHONHASHSEED=str(seed))
    head = ["-c", code] if code else ["-m", "riempoly"]
    proc = subprocess.run([sys.executable, *head, *map(str, argv)], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=600)
    files = {path.relative_to(workdir).as_posix(): path.read_bytes()
             for path in sorted(workdir.rglob("*")) if path.is_file()}
    return Child(proc.returncode, proc.stderr, files)


def sphere_cubic_csv():
    """16 records of a cubic on S^2 (speeds 1, 1.5 and 2) with 0.05-rad noise."""
    rng = np.random.default_rng(2012)
    p = rng.standard_normal(3)
    p /= np.linalg.norm(p)
    v = rng.standard_normal((3, 3))
    v -= np.outer(v @ p, p)
    v *= (np.array([1.0, 1.5, 2.0]) / np.linalg.norm(v, axis=1))[:, None]
    lines = ["id,time,x1,y1,z1"]
    for n in range(16):
        t = n / 15
        w = t * v[0] + t * t / 2 * v[1] + t ** 3 / 6 * v[2]
        a = np.linalg.norm(w)
        x = np.cos(a) * p + np.sinc(a / np.pi) * w
        e = rng.standard_normal(3)
        e -= (e @ x) * x
        y = np.cos(0.05) * x + np.sin(0.05) * e / np.linalg.norm(e)
        lines.append(f"s{n:02d},{n}," + ",".join(map(repr, (y / np.linalg.norm(y)).tolist())))
    return "\n".join(lines) + "\n"


def rotation_curve_csv():
    """12 records of a smooth rotation curve with 0.05-rad noise."""
    def turn(w):
        t = np.linalg.norm(w)
        if t == 0.0:
            return np.eye(3)
        a, b, c = w / t
        k = np.array([[0.0, -c, b], [c, 0.0, -a], [-b, a, 0.0]])
        return np.eye(3) + np.sin(t) * k + (1.0 - np.cos(t)) * (k @ k)

    rng = np.random.default_rng(2012)
    start = turn(rng.standard_normal(3))
    w1, w2 = 0.03 * rng.standard_normal(3), 0.003 * rng.standard_normal(3)
    lines = ["id,time," + ",".join(f"{a}{i}" for i in (1, 2, 3) for a in "xyz")]
    for n in range(12):
        e = rng.standard_normal(3)
        r = start @ turn(n * w1 + n * n * w2) @ turn(0.05 * e / np.linalg.norm(e))
        lines.append(f"r{n:02d},{n}," + ",".join(map(repr, r.ravel().tolist())))
    return "\n".join(lines) + "\n"


def shapes_3d_csv():
    """10 records of 5 landmarks in 3-D on a smooth curve with 0.02 noise."""
    rng = np.random.default_rng(2012)
    base, d1, d2 = rng.standard_normal((3, 5, 3))
    lines = ["id,time," + ",".join(f"{a}{i}" for i in range(1, 6) for a in "xyz")]
    for n in range(10):
        x = base + n * 0.05 * d1 + n * n * 0.005 * d2 + 0.02 * rng.standard_normal((5, 3))
        lines.append(f"s{n:02d},{n}," + ",".join(map(repr, x.ravel().tolist())))
    return "\n".join(lines) + "\n"


def small_tps():
    """A TPS file of 8 blocks of 4 planar landmarks on a noisy trend."""
    rng = np.random.default_rng(2012)
    base, trend = rng.standard_normal((2, 4, 2))
    lines = []
    for n in range(8):
        lines.append("LM=4")
        for row in base + n * 0.05 * trend + 0.02 * rng.standard_normal((4, 2)):
            lines.append(" ".join(map(repr, row.tolist())))
        lines += [f"ID=t{n}", f"AGE={7 * (n + 1)}"]
    return "\n".join(lines) + "\n"


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
    if name == "kendall_3d":
        return rp.KendallShapeSpace(5, 3)
    if name == "sphere_15":
        return rp.Sphere(15)
    if name == "kendall_8_2":
        return rp.KendallShapeSpace(8, 2)
    raise ValueError(name)


MANIFOLD_NAMES = ["euclidean", "sphere", "so3", "kendall"]


def objective_sse(manifold, traj, data):
    """The fit's objective on traj: the mean squared norm of the residual logs.

    Each observation is logged from its node, so every observation time must
    be a node of traj.
    """
    return _residuals(manifold, traj.points[traj.node_index(data.times)], data.points)[1]


def procrustes_align(target, base):
    """target (m x d rows) rotated, never reflected, onto base: the fit's alignment."""
    t, b = np.asarray(target, dtype=float), np.asarray(base, dtype=float)
    if t.shape != b.shape:
        raise ValueError("configurations must share m and d")
    return _align_many(t[None], b[None])[0]


def vertical_basis(points):
    """Orthonormal rows (flattened) spanning the rotation orbit at an (m, d) shape.

    The rows of an SVD of the d(d-1)/2 rotation generators, x -> x (E_ab -
    E_ba), that belong to singular values above 1e-10; a generator that fixes
    a degenerate shape adds no row.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    gens = []
    for a in range(d):
        for b in range(a + 1, d):
            skew = np.zeros((d, d))
            skew[a, b], skew[b, a] = 1.0, -1.0
            gens.append((points @ skew).reshape(-1))
    _, sing, rows = np.linalg.svd(np.array(gens), full_matrices=False)
    return rows[sing > 1e-10]


def contract_shot(manifold, p, q, endpoint_gap):
    """A shot for geometry.shooting_log from the manifold contract alone.

    p and q stack one pair per row.  Shooting pair r with velocity v takes
    one step from p[r], which yields the endpoint and the velocity there,
    measures the gap endpoint_gap(end, q[r]), a tangent at the end toward
    q[r], and transports it back along the reversed geodesic onto the
    tangent space at p[r].  endpoint_gap only needs to be first-order
    accurate; the fixed point is exact.  Returns the pulled gaps and the
    gaps' metric norms.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)

    def shot(rows, vel):
        pulled, norms = [], []
        for base, target, v in zip(p[rows], q[rows], vel):
            end, moved = manifold.step(base, v, v[None])
            gap = endpoint_gap(end, target)
            pulled.append(manifold.project_tangent(base, manifold.transport(end, -moved[0], gap)))
            norms.append(manifold.norm(end, gap))
        return np.array(pulled), np.array(norms)

    return shot


def shape_distance(p_config, q_config):
    """Quotient distance between two landmark configurations of any scale."""
    p, q = rp.to_preshape(p_config), rp.to_preshape(q_config)
    if (p.m, p.d) != (q.m, q.d):
        raise ValueError("configurations must share m and d")
    return rp.KendallShapeSpace(p.m, p.d).dist(p.flat(), q.flat())


def injectivity_radius(manifold, p):
    """Injectivity radius at p: tangents shorter than it are recovered by log."""
    if isinstance(manifold, rp.Euclidean):
        return np.inf
    if isinstance(manifold, rp.Sphere):
        return np.pi
    if isinstance(manifold, rp.KendallShapeSpace):
        return np.pi / 2.0
    if isinstance(manifold, rp.RotationGroup):
        return np.pi * np.sqrt(manifold.metric.eigenvalues[0])
    raise TypeError(f"no injectivity radius for {manifold.name}")


# largest constraint residual a sampled point or tangent may carry, per space
TOLERANCES = {
    rp.Euclidean: 1e-12,
    rp.Sphere: 1e-10,
    rp.KendallShapeSpace: 1e-8,
    rp.RotationGroup: 1e-8,
}


def vee(w, tol=1e-9):
    """Inverse of so3.hat; rejects matrices that are not skew-symmetric."""
    w = np.asarray(w, dtype=float)
    sym = np.abs(w + w.T).max()
    if sym > tol:
        raise ValueError(f"matrix is not skew-symmetric (residual {sym:.3e})")
    return np.array([w[2, 1], w[0, 2], w[1, 0]])


def kabsch_rotations(targets, bases):
    """SVD (Kabsch) rotations in SO(d), acting on landmark rows as x -> R x,
    that align each (m, d) target onto its base: the oracle for the planar
    closed form."""
    m = np.einsum("nmj,nmk->njk", bases, targets)
    u, _, vt = np.linalg.svd(m)
    signs = np.ones(m.shape[:2])
    signs[:, -1] = np.sign(np.linalg.det(u @ vt))
    return np.einsum("nij,nj,njk->nik", u, signs, vt)


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
                       steps=1000, times=(0.0, 0.33, 0.71, 1.0), vectors=None):
    """A small regression instance: smooth state plus nearby observations.

    The curve is integrated on time_grid(1, steps, times), so every
    observation time is a node.  vectors, if given, maps the drawn
    (k, *tangent_shape) vectors to the state's, for instance to zero or
    align some of them.
    """
    p = manifold.random_point(rng)
    vels = np.array([unit_tangent(manifold, rng, p, scale) for _ in range(k)])
    if vectors is not None:
        vels = vectors(vels)
    state = rp.PolynomialState(p, vels.reshape((k,) + manifold.tangent_shape))
    t_obs = np.array(times)
    traj = rp.integrate_polynomial(manifold, state, rp.time_grid(1.0, steps, t_obs))
    pts = []
    for t in t_obs:
        g = traj.points[traj.node_index(float(t))]
        w = unit_tangent(manifold, rng, g, obs_scale_factor * scale)
        pts.append(manifold.project_point(manifold.exp(g, w)))
    data = rp.TimedDataset(manifold, t_obs, np.stack(pts))
    return state, traj, data


def node_state(traj, index):
    """The curve's point and vectors at one node of a step-loop trajectory,
    whose flow record holds every node's vectors, as a state."""
    return rp.PolynomialState(traj.points[index], traj.flow[0][index])


def residual_logs(manifold, traj, data):
    """log_{gamma(t_j)} y_j of every observation at its node."""
    return manifold.log_many(traj.points[traj.node_index(data.times)], data.points)


def fd_gradient(manifold, data, state, times, h=1e-5):
    """Central finite differences of the objective in an orthonormal frame.

    Every candidate is integrated on the grid times.

    Base-point differences move along the exponential map with the vectors
    carried by parallel transport, matching the variation the reverse pass
    differentiates.  Returns (k+1, n_basis) components plus the basis.
    """

    def energy(s):
        traj = rp.integrate_polynomial(manifold, s, times)
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
                  times=(0.0, 0.33, 0.71, 1.0), vectors=None):
    """Relative mismatch between the reverse pass and finite differences."""
    state, traj, data = random_fit_problem(manifold, k, rng, scale=scale,
                                           steps=steps, times=times,
                                           vectors=vectors)
    nodes = traj.node_index(data.times)
    grads = integrate_adjoint(manifold, traj, nodes, residual_logs(manifold, traj, data))
    fd, basis = fd_gradient(manifold, data, state, traj.times)
    adj = np.array([
        [manifold.inner(state.gamma, g, b) for b in basis]
        for g in grads
    ])
    num = float(np.sqrt(np.sum((adj - fd) ** 2)))
    den = float(np.sqrt(np.sum(fd ** 2)))
    return num / max(den, 1e-300)


def taylor_step(h, k):
    """The flat polynomial's move over a step of length h, entry by entry.

    Row 0 maps v_1 .. v_k to the chord sum_j h^(j+1)/(j+1)! v_(1+j), and
    row i to the vector sum_j h^j/j! v_(i+j) at the step's end.
    """
    out = np.zeros((k + 1, k))
    for j in range(k):
        out[0, j] = h ** (j + 1) / math.factorial(j + 1)
        for i in range(1, j + 2):
            out[i, j] = h ** (j + 1 - i) / math.factorial(j + 1 - i)
    return out


def adjoint_reference(manifold, traj, data):
    """Per-node oracle for the default pullback: the same recursion, map by map.

    The jumps come from one log_many call, summed per node.  Walking from
    the final node to the first, with h the length of the step that ends
    there, the order-zero multiplier absorbs the curvature coupling and the
    node's jump, the multipliers go through the transpose of the step's
    Taylor map (taylor_step), and curvature, transport and project_tangent
    act on the multipliers themselves.  The vectors of every node are the
    step loop's flow record, which is None at order zero.  Returns the
    (k+1, *tangent_shape) gradient.
    """
    k = 0 if traj.flow is None else traj.flow[0].shape[1]
    n_steps = len(traj) - 1

    nodes = traj.node_index(data.times)
    jumps = np.zeros((len(traj),) + manifold.tangent_shape)
    np.add.at(jumps, nodes, manifold.log_many(traj.points[nodes], data.points))
    jumps *= 2.0 / data.size

    lam = np.zeros((k + 1,) + manifold.tangent_shape)
    for n in range(n_steps, 0, -1):
        gamma = traj.points[n]
        h = traj.times[n] - traj.times[n - 1]
        if k:
            vels = traj.flow[0][n]
            w = vels[0]
            lam[0] += h * np.sum(
                manifold.curvature(gamma, vels, lam[1:], vels[0]), axis=0
            )
        else:
            w = np.zeros(manifold.tangent_shape)
        lam[0] += jumps[n]
        back = -h * w
        incremented = lam.copy()
        incremented[1:] = np.einsum("ri,r...->i...", taylor_step(h, k), lam)
        lam = manifold.transport(gamma, back, incremented)
        lam = np.asarray(
            manifold.project_tangent(traj.points[n - 1], lam), dtype=float
        )
    lam[0] += jumps[0]
    return -lam


def expm(a):
    """Matrix exponential: scaling by 2^s, a Taylor series, s squarings."""
    s = max(0, int(np.ceil(np.log2(max(np.abs(a).sum(axis=1).max(), 1e-300)))) + 1)
    a = a / 2.0 ** s
    out = term = np.eye(len(a), dtype=a.dtype)
    for i in range(1, 20):
        term = term @ a / i
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def expm_frechet_adjoint(x, m):
    """The gradient at x of Re <m, expm(x)>: the Frechet derivative of expm
    at x^H in the direction m, the corner of one block exponential."""
    n = len(x)
    block = np.zeros((2 * n, 2 * n), np.result_type(x, m))
    block[:n, :n] = block[n:, n:] = x.conj().T
    block[:n, n:] = m
    return expm(block)[:n, n:]


def rolled_gradient_reference(manifold, state, traj, data):
    """Ambient-coordinate oracle for the rolled reverse pass (geometry.unroll).

    On the sphere, and on planar shape space in complex coordinates, node n
    is x_n = A_n p with D x D frames A_n = T_0 ... T_{n-1}, and the turn
    T_m = expm(W_m p^H - p W_m^H) rotates the plane {p, W_m} by |W_m|, with
    W_m = sum_i (t_{m+1}^i - t_m^i)/i! v_i the flat chord of step m.  The
    objective's derivative with respect to T_m is M_m = A_m^H (sum_{n>m}
    G_n x_n^H) A_{m+1}; the adjoint Frechet derivative of expm takes it to
    the generator, whose chain rule gives W_m, and so the vectors, and p.
    Base-point rows move p along exp and carry the vectors by transport:
    grad_p - sum_i (grad_v_i^H p) v_i, projected.  No span, no QR, no
    special case for a zero W_m.  The initial vectors are the state's, as
    traj integrated them.  Returns the (k+1, *tangent_shape) gradient.
    """
    planar = isinstance(manifold, rp.KendallShapeSpace)
    as_ambient = (lambda a: np.ascontiguousarray(a).view(complex)) if planar else np.asarray
    k, steps = state.order, len(traj) - 1
    p = as_ambient(traj.points[0])
    vels = as_ambient(state.vels.reshape((k,) + manifold.tangent_shape))
    nodes = traj.node_index(data.times)
    cot = np.zeros((len(traj),) + manifold.tangent_shape)
    np.add.at(cot, nodes, manifold.log_many(traj.points[nodes], data.points))
    cot = as_ambient(cot * (-2.0 / data.size))

    t = traj.times - traj.times[0]
    chords = np.array([[(t[m + 1] ** i - t[m] ** i) / math.factorial(i)
                        for m in range(steps)] for i in range(1, k + 1)]).reshape(k, steps)
    size = len(p)
    walks = chords.T @ vels
    gens = [np.outer(w, p.conj()) - np.outer(p, w.conj()) for w in walks]
    frames = [np.eye(size, dtype=p.dtype)]
    for x in gens:
        frames.append(frames[-1] @ expm(x))
    points = np.array([a @ p for a in frames])

    grad_p = sum(a.conj().T @ g for a, g in zip(frames, cot))
    grad_w = []
    rest = np.zeros((size, size), p.dtype)
    for m in range(steps - 1, -1, -1):
        rest += np.outer(cot[m + 1], points[m + 1].conj())
        turn = frames[m].conj().T @ rest @ frames[m + 1]
        g = expm_frechet_adjoint(gens[m], turn)
        grad_w.append((g - g.conj().T) @ p)
        grad_p = grad_p + (g.conj().T @ walks[m] - g @ walks[m])
    grad_v = chords @ np.array(grad_w[::-1])
    grad_p = grad_p - sum((g.conj() @ p) * v for g, v in zip(grad_v, vels))
    rows = np.concatenate([grad_p[None], grad_v])
    rows = rows.view(float) if planar else rows.real
    return np.array(manifold.project_tangent(traj.points[0], rows))


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
        r = r @ so3.rodrigues(h * w)
        r = r @ (1.5 * np.eye(3) - 0.5 * (r.T @ r))    # one Newton step to the polar factor
        w = w - h * so3.connection(w, w, metric)
    return r, w


def transport_along_geodesic(omega, fields, duration, dt, metric=None):
    """First-order oracle for SO(3) parallel transport, stepped like
    integrate_geodesic.

    Each Euler step moves the fields by their rate -connection(omega, x) and
    the body velocity by -connection(omega, omega).  Returns the transported
    fields; error is O(dt).
    """
    if metric is None:
        metric = so3.MetricSpec(np.eye(3))
    w = np.array(omega, dtype=float)
    x = np.array(fields, dtype=float)
    steps = max(1, int(round(duration / dt)))
    h = duration / steps
    for _ in range(steps):
        x = x - h * so3.connection(w, x, metric)
        w = w - h * so3.connection(w, w, metric)
    return x
