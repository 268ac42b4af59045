"""Manifold contract shared by every geometry, plus the flat oracle space.

All geometries represent points and tangent vectors in ambient coordinates
(Lie-algebra coordinates for the rotation group).  Operations are pure
functions of their inputs; manifold objects are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import functools

import numpy as np

# How many grids' chord tables the rolled passes keep (_chords).
_CHORD_TABLES = 16


class GeometryError(Exception):
    """Base class for geometric failures."""


class CutLocusError(GeometryError):
    """Log map requested at or beyond the cut locus."""


class ShootingError(GeometryError):
    """Iterative log map failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class Manifold:
    """Abstract contract every geometry implements.

    Points and tangents are plain ndarrays.  Tangent-valued operations accept
    stacked inputs: any leading axes broadcast, the trailing axes are one
    tangent vector.  A geometry writes five methods: its geodesic once, in
    step, its log once, in log_many, its curvature and the two projections.
    exp, transport, log, dist_many and dist are derived from step and
    log_many here; inner is the ambient dot product unless the geometry has
    another metric; random points and tangents project a Gaussian draw, and
    the residuals measure drift as the distance to the two projections.  The
    fit takes no distance: its objective is the mean squared metric norm of
    the residual logs, which also give its gradient and the reported
    distances.

    integrate returns the point of every node of a time grid and a flow
    record, exactly what the geometry's own pullback reads.  Each step of
    the grid follows the flat polynomial's exact move over that step, so
    the scheme is second order and exact in flat space.  The reverse of
    integrate is pullback, the gradient at the initial conditions from
    cotangents at the nodes, and the contract's one reverse hook, for
    orders k >= 1.  Its default discretizes the continuous adjoint, first
    order in the spacing and exact in flat space, as one recursion on the
    multipliers through curvature, transport and project_tangent, node by
    node, reading every node's vectors and every step's matrix from the
    step loop's record.  A geometry whose integrate rolls overrides
    integrate and pullback with roll, whose record is its set-up, and its
    exact reverse, unroll.  SO(3) runs the step loop in its algebra, with
    the same record, and applies the recursion's node maps as batched
    running products.  The default step loop and recursion serve flat
    space, shape space of d >= 3 dimensions and any geometry that writes
    only the five methods above.
    """

    name: str = "manifold"
    point_shape: tuple = ()
    tangent_shape: tuple = ()

    def step(self, p, v, stack):
        """One geodesic step: the endpoint exp(p, v) and stack transported there.

        The one routine in which a geometry writes its geodesic; exp and
        transport are views of it.  The endpoint lies on the manifold and is
        p itself when v is zero.  It is the node-by-node kernel of the
        default integrate and the descent's move of one line-search candidate.
        """
        raise NotImplementedError

    def integrate(self, p, stack, times):
        """The forward flow of an order-k curve, k >= 1: every node's point.

        times is the increasing grid of nodes, the state given at the first.
        Over a step of length h the curve follows the flat polynomial's
        chord, sum_j h^(j+1)/(j+1)! v_(1+j), and the vectors become
        sum_j h^j/j! v_(i+j) (flat_flow); one step along the chord moves the
        point and carries them to the next node.  Returns the points,
        (len(times), *point_shape), initial node first, and the flow record:
        exactly what the geometry's own pullback reads, so that the reverse
        builds none of it again.  This default takes one step per node and
        records the vectors of every node, (len(times), k, *tangent_shape),
        and every step's flat_flow matrix.  In flat space each step is that
        exact move.  Geometries whose step is a rotation override it with
        roll, whose record is its set-up, and SO(3) runs this loop in its
        algebra and returns the same record.
        """
        stack = np.asarray(stack, dtype=float)
        flats = flat_flow(np.diff(times), len(stack))
        points = np.empty((len(times),) + self.point_shape)
        vels = np.empty((len(times),) + stack.shape)
        points[0], vels[0] = p, stack
        for n, flat in enumerate(flats, start=1):
            moved = flat @ stack
            p, stack = self.step(p, moved[0], moved[1:])
            points[n], vels[n] = p, stack
        return points, (vels, flats)

    def exp(self, p, v):
        """Point reached at time 1 along the geodesic from p with velocity v."""
        return self.step(p, v, np.empty((0,) + self.tangent_shape))[0]

    def transport(self, p, direction, x):
        """Parallel transport of x along the geodesic s -> exp(p, s*direction), s in [0,1]."""
        return self.step(p, direction, x)[1]

    def log_many(self, points, targets):
        """log(p, q) of each matching row pair."""
        raise NotImplementedError

    def dist_many(self, points, targets):
        """dist(p, q) of each matching row pair: the metric norm of its log."""
        logs = self.log_many(points, targets)
        return np.sqrt(np.maximum(self.inner(points, logs, logs), 0.0))

    def log(self, p, q):
        """Minimal tangent vector at p mapping to q under exp; zero when q is p."""
        if np.array_equal(p, q):
            return np.zeros(self.tangent_shape)
        return self.log_many(np.asarray(p)[None], np.asarray(q)[None])[0]

    def dist(self, p, q) -> float:
        """Geodesic distance from p to q; zero when q is p."""
        if np.array_equal(p, q):
            return 0.0
        return float(self.dist_many(np.asarray(p)[None], np.asarray(q)[None])[0])

    def curvature(self, p, x, y, z):
        """Curvature operator R(x, y)z at p."""
        raise NotImplementedError

    def pullback(self, traj, nodes, cotangents):
        """The gradient at traj's initial conditions of sum_n <G_n, x_n>, k >= 1.

        The reverse of integrate, over the whole pass.  x_n are the points of
        traj, nodes the distinct nodes that carry a cotangent G_n, in
        increasing order, and cotangents the rows G_n, each tangent at x_n.
        Returns the (k + 1, *tangent_shape) gradient, base point first: the
        base point moves along exp with the vectors carried by transport.
        Order zero takes no reverse pass (regress.integrate_adjoint).

        This default discretizes the continuous adjoint system, so it is
        first order in the spacing, not the exact gradient of the discrete
        flow.  It reads the vectors v_n of every node and the flat_flow
        matrix of every step from traj.flow, the record of the default
        integrate.  The multipliers lam, one row per initial condition,
        start at zero after the final node.  Walking from the final node n
        to the first, with h the length and F the matrix of the step that
        ends at node n,

            lam[0] += h sum_i curvature(x_n, v_{n,i}, lam[i], v_{n,1}) + G_n;
            lam[1:] = F^T lam;
            lam = project_tangent(x_{n-1}, transport(x_n, -h v_{n,1}, lam)),

        and finally lam[0] += G_0.  F^T keeps flat space exact.  The maps act
        on the k + 1 rows themselves, node by node, and the cotangents are
        read from the end of nodes, so memory stays flat in the step count.
        Geometries whose integrate rolls override this with unroll.
        """
        vels, flats = traj.flow
        lam = np.zeros((vels.shape[1] + 1,) + self.tangent_shape)
        j = len(nodes) - 1
        for n in range(len(traj) - 1, 0, -1):
            v, h = vels[n], traj.times[n] - traj.times[n - 1]
            lam[0] += h * np.add.reduce(self.curvature(traj.points[n], v, lam[1:], v[0]))
            if j >= 0 and nodes[j] == n:
                lam[0] += cotangents[j]
                j -= 1
            lam[1:] = flats[n - 1].T @ lam
            moved = self.transport(traj.points[n], -h * v[0], lam)
            lam = np.asarray(self.project_tangent(traj.points[n - 1], moved), dtype=float)
        if j >= 0:
            lam[0] += cotangents[j]
        return lam

    def inner(self, p, x, y):
        """Metric inner product of tangents x, y at p: the ambient dot product."""
        if np.ndim(x) == 1 and np.ndim(y) == 1:
            return float(np.dot(x, y))
        return np.add.reduce(np.asarray(x) * y, axis=-1)

    def norm(self, p, x) -> float:
        return float(np.sqrt(max(self.inner(p, x, x), 0.0)))

    def project_point(self, p):
        """Nearest representative on the constraint set (drift cleanup)."""
        raise NotImplementedError

    def project_tangent(self, p, x):
        """Projection of an ambient vector onto the tangent space at p."""
        raise NotImplementedError

    def point_residual(self, p):
        """How far p lies off the manifold: the ambient norm of p - project_point(p).

        Batches over leading axes; NaN where the projection is undefined.
        """
        p = np.asarray(p, dtype=float)
        return _ambient_norm(p - self.project_point(p), len(self.point_shape))

    def tangent_residual(self, p, x):
        """How far x lies off the tangent space at p: the norm of x - project_tangent(p, x).

        Batches over the leading axes of x, one norm per row.
        """
        x = np.asarray(x, dtype=float)
        return _ambient_norm(x - self.project_tangent(p, x), len(self.tangent_shape))

    def random_point(self, rng):
        """A Gaussian draw in the ambient space, projected onto the manifold."""
        return self.project_point(rng.standard_normal(self.point_shape))

    def random_tangent(self, rng, p):
        """A Gaussian draw in the ambient space, projected onto the tangent space at p."""
        return self.project_tangent(p, rng.standard_normal(self.tangent_shape))

    def __repr__(self) -> str:
        return self.name


class Euclidean(Manifold):
    """Flat space R^n, the correctness oracle.

    It writes only the five contract methods: the default integrate's steps
    are then the flat polynomial's exact moves, and the default pullback is
    their exact transpose, so both are exact here.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.point_shape = (dim,)
        self.tangent_shape = (dim,)
        self.name = f"euclidean({dim})"

    def _check(self, *arrays):
        for a in arrays:
            if np.shape(a)[-1] != self.dim:
                raise ValueError(
                    f"expected trailing dimension {self.dim}, got {np.shape(a)}"
                )

    def step(self, p, v, stack):
        moved = np.array(stack, dtype=float)
        # the loops hand step arrays of its own shape, which three attribute
        # reads pass; anything else, a list or a batch included, takes _check
        if not (getattr(p, "shape", None) == getattr(v, "shape", None) == self.point_shape
                == moved.shape[-1:]):
            self._check(p, v, stack)
        return p + v, moved

    def curvature(self, p, x, y, z):
        return np.zeros(np.broadcast(x, y, z).shape)

    def project_point(self, p):
        return np.asarray(p, dtype=float)

    def project_tangent(self, p, x):
        return np.asarray(x, dtype=float)

    def log_many(self, points, targets):
        self._check(points, targets)
        return np.asarray(targets) - np.asarray(points)


def _ambient_norm(gap, axes):
    """The Euclidean norm of gap over its last axes."""
    return np.sqrt(np.add.reduce(gap * gap, axis=tuple(range(-axes, 0))))


def monomials(times, order):
    """phi_i(t) = t^i / i!, i = 0..order, at each time: (order + 1, len(times)).

    In flat space the order-k curve is sum_i phi_i(t) v_i.
    """
    times = np.asarray(times, dtype=float)
    phi = np.ones((order + 1, len(times)))
    for i in range(1, order + 1):
        phi[i] = phi[i - 1] * times / i
    return phi


def flat_flow(spans, order):
    """The flat polynomial's exact move over steps of the given lengths.

    Returns one (order + 1, order) matrix per step.  Applied to the vectors
    v_1 .. v_k at the step's start, row 0 gives the chord, sum_j
    h^(j+1)/(j+1)! v_(1+j), and row i the vector v_i at its end, sum_j
    h^j/j! v_(i+j): entry (r, c) is h^(c-r+1)/(c-r+1)!, zero below.
    """
    taylor = monomials(spans, order).T          # h^i / i!, i = 0..order
    power = np.arange(order)[None] - np.arange(order + 1)[:, None] + 1
    return np.where(power >= 0, taylor[:, np.maximum(power, 0)], 0.0)


@functools.lru_cache(maxsize=_CHORD_TABLES)
def _chords(grid, order):
    """The chord coefficients c_i(n) of a grid, given as its bytes, at one order.

    A descent's grid and order never change, so its candidates share one
    read-only table; the memo keeps the _CHORD_TABLES most recent.
    """
    times = np.frombuffer(grid)
    chords = np.diff(monomials(times - times[0], order)[1:], axis=1)
    chords.flags.writeable = False
    return chords


def _rolling(p, stack, times):
    """What roll and unroll share: the span's basis, the chords, turns and frames.

    roll builds it once per pass and returns it as the flow record, which
    unroll reads and never writes.  Returns the orthonormal basis of
    span{p, stack} (a QR), the coordinates of p and of the rows in it, the
    chord coefficients c_i(n) = (t_{n+1}^i - t_n^i) / i! (times counted
    from the first node; one read-only table per grid and order, _chords),
    the unit direction e of p and, for every step, the turn's unit
    direction u (zero where the chord is), the chord's length |m_n| with
    its cos and sin, and the frames F_0 = I, F_n = T_0 ... T_{n-1}.  The
    frames are real: a complex span keeps them in their real form
    [[Re F, -Im F], [Im F, Re F]] from end to end, where numpy's batched
    product is several times faster than on complex matrices.

    Each turn is built from its blocks.  The QR's R is upper triangular
    with a real diagonal (LAPACK's Householder QR), so e = e0 e_1 with
    e0 = +-1, and a chord has no e_1 coordinate, the rows being tangent at
    p, but rounding, which u drops.  The turn of the plane {e, u} by |m_n|
    is then T = [[cos, -sin e0 u^H], [sin e0 u, I + (cos - 1) u u^H]].
    """
    basis, coef = np.linalg.qr(np.concatenate([p[None], stack]).T)
    chords = _chords(np.asarray(times, dtype=float).tobytes(), len(stack))
    # the turn of step n: plane {e, u} at the angle |m_n|, with the chord
    # m_n = sum_i c_i(n) b_i(0) in body-frame coordinates
    e = coef[:, 0] / abs(coef[0, 0])
    w = chords.T @ coef[:, 1:].T
    w[:, 0] = 0.0
    speed = np.sqrt(np.add.reduce((w * w.conj()).real, axis=-1))
    u = w / np.where(speed > 0.0, speed, 1.0)[:, None]
    cos, sin = np.cos(speed), np.sin(speed)
    tail = u[:, 1:]
    turns = np.empty((len(u), len(e), len(e)), coef.dtype)
    turns[:, 0, 0] = cos
    turns[:, 1:, 0] = (e[0].real * sin)[:, None] * tail
    turns[:, 0, 1:] = -turns[:, 1:, 0].conj()
    turns[:, 1:, 1:] = (np.eye(len(e) - 1)
                        + (cos - 1.0)[:, None, None] * tail[:, :, None] * tail[:, None].conj())
    turns = _real_form(turns)
    frames = np.concatenate([np.eye(turns.shape[-1])[None], _running_products(turns)])
    return basis, coef, chords, e, u, speed, cos, sin, frames


def _real_form(a):
    """A complex matrix (last two axes) as [[Re a, -Im a], [Im a, Re a]]; a real one as is."""
    return (np.concatenate([np.concatenate([a.real, -a.imag], axis=-1),
                            np.concatenate([a.imag, a.real], axis=-1)], axis=-2)
            if np.iscomplexobj(a) else a)


def _span_vector(x, basis):
    """Vectors of basis's span from their real form [Re x, Im x] (a column of _real_form)."""
    return x[..., :basis.shape[1]] + 1j * x[..., basis.shape[1]:] if np.iscomplexobj(basis) else x


def roll(p, stack, times, settle):
    """Manifold.integrate in closed form, where each step is a rotation.

    On the sphere, and on planar shape space read as complex m-vectors (J
    is multiplication by i), step(p, v, .) turns the real or complex plane
    {p, v} by the angle |v| and fixes everything orthogonal to it.  In the
    frame that moves with these turns the vectors form a flat polynomial,
    b_i(t) = sum_j t^j/j! b_{i+j}(0), and the step from t_n to t_{n+1}
    turns the plane {p, m_n} by |m_n|, with m_n = sum_i (t_{n+1}^i -
    t_n^i)/i! b_i(0) the flat chord: the curve is that polynomial rolled
    onto the manifold (Jupp & Kent 1987, "Fitting smooth paths to spherical
    data").  Every turn acts in the span of p and the initial vectors, so
    turns and frames are small matrices in one orthonormal basis of it (a
    QR), whatever the ambient size, and the frame of node n is the product
    of the first n turns.

    p and the k >= 1 rows of stack are real or complex, the rows tangent at
    p, and times the increasing grid of nodes.  settle maps a batch of raw
    points back onto the manifold.  Node n is R_00 times column 0 of its
    frame, read back from the real form on a complex span; nodes before
    the first nonzero turn are p itself, bit for bit.  Returns the points
    of every node and the flow record, as Manifold.integrate does: the
    set-up (_rolling) that unroll takes instead of rebuilding it.  No
    node's vectors are formed.
    """
    flow = _rolling(p, stack, times)
    basis, coef, _, _, _, speed, _, _, frames = flow
    turned = (speed > 0.0).nonzero()[0]         # the nodes after the first turn move
    moved = turned[0] + 1 if len(turned) else len(times)
    points = np.empty((len(times),) + p.shape, p.dtype)
    points[:moved] = p
    points[moved:] = settle((coef[0, 0] * _span_vector(frames[moved:, :, 0], basis)) @ basis.T)
    return points, flow


def unroll(p, flow, nodes, cotangents):
    """The reverse of roll: the exact gradient of sum_n <G_n, x_n>.

    p is the base point and flow roll's record of the pass.  nodes are
    distinct node indices in increasing order, cotangents the gradients G_n
    of the objective at those nodes' points x_n, real or complex like p.
    Node n is x_n = F_n p in the basis of roll, so the objective's derivative
    with respect to turn m is M_m = F_m^H S_{m+1} F_{m+1}, with S_n the
    reverse cumulative sum of g_n x_n^H (g the cotangents' part in the
    span).  S changes only at the given nodes, so it is summed there, in
    real form like the frames, and read at each step's end; M is then two
    real batched products, in real form too, where M^H is the transpose.
    The turn's closed form takes M_m to the chord m_m, and the chord
    coefficients c take that to the vectors; with e = e0 e_1, M e, M^H e
    and <e, M e> are a column, a row and an entry of M.  A vector's part
    outside the span turns the out-of-span part of x_n only, by
    sum_{m<n} c(m) <x_n, F_{m+1} r_m> with r_m = ((cos - 1) u + sin e) /
    |m_m| (e where the chord is zero): prefix sums of vectors of the span's
    size, from the real-form frames, paired with the cotangents outside
    the span, taken only when the span is narrower than the ambient space.
    The base point moves along exp with the vectors carried by transport,
    which is the rotation X = d p^H - p d^H of the whole flow, so its row
    is the tangent part of sum_n (x_n^H p) G_n - (G_n^H p) x_n.  Returns
    the (k + 1, len(p)) gradient, base point first; no recursion, nothing
    of size D x D, and no complex matrix product.
    """
    basis, coef, chords, e, u, speed, cos, sin, frames = flow
    turning = speed > 0.0
    safe = np.where(turning, speed, 1.0)
    cos_over = np.where(turning, (cos - 1.0) / safe, 0.0)[:, None]
    sin_over = np.where(turning, sin / safe, 1.0)[:, None]

    xi = coef[0, 0] * _span_vector(frames[nodes, :, 0], basis)    # the nodes' points in the span
    inside = cotangents @ basis.conj()
    # M_m, m < steps: reverse cumulative sums of g_n x_n^H between turns,
    # summed over the nodes and read at each step's end
    outer = _real_form(inside[:, :, None] * xi.conj()[:, None, :])
    rest = np.add.accumulate(np.concatenate([outer, np.zeros_like(outer[:1])])[::-1])[::-1]
    rest = rest[np.searchsorted(nodes, np.arange(1, len(frames)))]
    m = frames[:-1].swapaxes(-1, -2) @ rest @ frames[1:]

    # T = I + (cos - 1)(e e^H + u u^H) + sin (u e^H - e u^H) at the angle
    # |m|, so the gradient at the chord m is kappa u + (h - Re<u, h> u) / |m|
    # with h = (cos - 1)(M + M^H) u + sin (M - M^H) e and
    # kappa = cos Re<u, (M - M^H) e> - sin Re(<e, M e> + <u, M u>): in real
    # form Re<a, b> is the dot product, M^H is M^T, and with e = e0 e_1,
    # e0 = +-1, M e, M^H e and <e, M e> are a column, a row and an entry of M
    e0, ur = e[0].real, _real_form(u[:, :, None])[..., 0]
    skew = e0 * (m[:, :, 0] - m[:, 0])
    mu = np.einsum("nij,nj->ni", m, ur)
    kappa = (cos * np.einsum("ni,ni->n", ur, skew)
             - sin * (m[:, 0, 0] + np.einsum("ni,ni->n", ur, mu)))
    grad_w = cos_over * (mu + np.einsum("nji,nj->ni", m, ur)) + sin_over * skew
    grad_w += (kappa - np.einsum("ni,ni->n", ur, grad_w))[:, None] * ur
    rows = _span_vector(chords @ grad_w, basis)[:, 1:] @ basis[:, 1:].T

    if basis.shape[1] < len(p):
        # out of the span: prefix sums sum_{m<n} c_j(m) F_{m+1} r_m at the nodes
        outside = cotangents - inside @ basis.T
        r = np.einsum("nij,nj->ni", frames[1:], cos_over * ur) + (sin_over * e0) * frames[1:, :, 0]
        prefix = np.zeros((len(chords), len(frames), r.shape[-1]))
        np.add.accumulate(chords[:, :, None] * r, axis=1, out=prefix[:, 1:])
        rows += np.einsum("nr,jnr->jn", xi.conj(), _span_vector(prefix[:, nodes], basis)) @ outside

    points = xi @ basis.T
    base = (points.conj() @ p) @ cotangents - (cotangents.conj() @ p) @ points
    base -= (p.conj() @ base) * p
    return np.concatenate([base[None], rows])


def _running_products(mats):
    """mats[0] @ ... @ mats[n] for every n, in log depth.

    mats are real; a complex span's turns come in their real form
    (_real_form), which numpy's batched product handles several times
    faster than complex matrices.
    """
    out = mats.copy()
    span = 1
    while span < len(out):
        out[span:] = out[:-span] @ out[span:]
        span *= 2
    return out


def shooting_log(shoot, v, *, name, tol=1e-9, max_iter=200):
    """Iterative log map of a batch of pairs: shoot the exponential in lockstep.

    v holds one initial velocity per pair.  shoot(rows, vel) shoots the
    pairs rows, an index array or a slice, from their base points with the
    velocities vel, and returns two things per pair: the endpoint gap, a
    tangent at the endpoint toward the pair's target, pulled back to the
    base point, and that gap's metric norm.  Pulling the gap back by
    parallel transport along the reversed geodesic, or by the inverse of
    the shot's own transport, differs from the inverse differential of exp
    by a term of order curvature times squared length, so full shots
    shrink the gap by about that factor each; the fixed point, a zero gap,
    is exact.  Each pair adds its pulled gap times its own step, 1 at first
    and halved whenever a shot fails to lower its gap, and leaves the batch
    once the gap is at most tol.  A pair gives up after max_iter shots or
    once its step falls below 1e-12; a NaN gap stays open.  The shot's own
    errors, such as a CutLocusError, propagate.  Returns the velocities; a
    pair left above tol raises ShootingError, which names the pair left
    farthest, of name's batch, and carries its residual.
    """
    v = np.array(v, dtype=float)
    pulled, err = shoot(slice(None), v)
    step = np.ones(len(v))
    live = np.flatnonzero(~(err <= tol))        # a NaN gap stays open
    for _ in range(max_iter):
        if not live.size:
            break
        trial = v[live] + step[live, None] * pulled[live]
        t_pulled, t_err = shoot(live, trial)
        better = t_err < err[live]
        won = live[better]
        v[won], pulled[won], err[won] = trial[better], t_pulled[better], t_err[better]
        step[live[~better]] *= 0.5
        live = live[~(err[live] <= tol) & (step[live] >= 1e-12)]
    worst = int(np.argmax(err))
    if err[worst] <= tol:
        return v
    raise ShootingError(
        f"log map did not reach tolerance {tol:g} on {name}: pair {worst} "
        f"of {len(v)} left at residual {err[worst]:.3e}", residual=float(err[worst]),
    )
