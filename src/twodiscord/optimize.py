"""Search over measurement bases.

Every search runs its starts in lockstep, so each step is one batched
computation. ``_lockstep`` runs the starts and holds the stopping rule, the
retire rule and the winner rule; each search supplies only its starts and
its step, ``advance(idx)``, which updates points and values in place and
returns nothing. Restart r draws from ``_restart_streams``. The basis
searches iterate the measurement unitaries themselves, from the warm starts
of ``warm_start_bases``, the same in every dimension, then Haar random
restarts (``_start_points``), drawn once per (dims, restarts, seed) and
cached read-only (``_haar_starts``); the one engine, ``jacobi_search``,
supplies their step. Every basis search calls it through ``search_bases``,
which assembles its ``DiscordValue``: the state's total minus the best
retained value, with the caller's bound.

``jacobi_search`` runs every discord search as Jacobi sweeps: each step
rotates a round of disjoint Givens planes, each by the rotation its
objective's plane solve picks from the plane data of ``_plane_data``. In
one plane the moved rows or blocks are affine in a unit 3-vector v. The
retained purity (``RETAINED_PURITY``) is then a quadratic form in v, solved
exactly by one 3x3 eigenproblem (Cardoso & Souloumiac 1996); the entropic
objectives (``entropic.RETAINED_INFORMATION``) take the best point of a
small grid and one Riemannian Newton step (``plane_ascent``).

The two-qubit alternation on the Bloch objective (``_alternating_detail``)
runs through the same ``_lockstep``; its starts are pairs of Bloch
directions. Its step is two half-steps, each from a 2x2 Gram, or, from a
start's second step on, one Riemannian Newton step (``_newton_points``,
shared with ``plane_ascent``) on the objective maximized over b
(``_reduced_bloch``). The geometric grid oracle bounds its rows, and whole
cells of directions (``_grid_cells``), by that same maximum. Every Bloch
product, here and in ``verification``, comes from ``_bloch_gram``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .measurement import OrthonormalBasis, ProductMeasurement, _haar_from_ginibre
from .states import BipartiteState, TwoQubitBloch, _freeze, _ginibre_matrix, partial_trace

# a start stops at the iteration cap (Jacobi sweeps or alternation steps), or
# when an iteration raises its value by less than the value tolerance
_MAX_ITERATIONS = 500
_VALUE_TOLERANCE = 1e-12
# restarts trailing the incumbent best by less than this are retired early;
# the retained leader still refines down to the value tolerance
_RETIRE_LAG = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """How many random restarts a search adds to its warm starts, and their seed."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, low in (("restarts", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {v!r}")
            if v < low:
                raise DomainError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class OptimizationResult:
    """What a search found and what it cost.

    ``best_params`` is the winning start's point, one entry per side: the
    unitaries of a basis search, the Bloch directions (a, b) of the
    two-qubit alternation.
    """

    best_value: float
    best_params: object
    restarts_run: int
    iterations_total: int
    converged: bool


@dataclass(frozen=True)
class DiscordValue:
    """A discord value, the best measurement found, and a floor under the value:
    the spectral bound of a geometric discord, 0 for an entropic one (bits)."""

    value: float
    optimal_measurement: object  # ProductMeasurement, or OrthonormalBasis for one-sided
    lower_bound: float
    optimizer_report: OptimizationResult


# ---------------------------------------------------------------------------
# warm starts

def _check_extra_warm_starts(state: BipartiteState, side, extra):
    """Raise DimensionMismatchError unless every OrthonormalBasis in ``extra``
    has the dimension of the measured ``side`` of ``state``."""
    n = state.dim_a if side == "A" else state.dim_b
    for basis in extra:
        if basis.dim != n:
            raise DimensionMismatchError(f"an extra warm start has dimension {basis.dim}, "
                                         f"side {side} has {n}")


def warm_start_bases(state: BipartiteState, sides, extra=()) -> list:
    """Starting points, as tuples of unitaries, for a search measuring ``sides``.

    In order, for every dimension: the computational bases, the eigenbases
    of the measured marginals, then the OrthonormalBases in ``extra``, for a
    one-sided search.
    """
    dims = {"A": state.dim_a, "B": state.dim_b}
    _check_extra_warm_starts(state, sides[0], extra)
    return [tuple(np.eye(dims[s], dtype=complex) for s in sides),
            tuple(np.linalg.eigh(partial_trace(state, s).entries)[1] for s in sides),
            *((basis.vectors,) for basis in extra)]


# ---------------------------------------------------------------------------
# the lockstep loop over the starts of a search

def _restart_streams(seed: int, restarts: int):
    """Restart r's generator ``default_rng([seed, r])`` for each r < ``restarts``,
    so a restart's draws do not depend on how many restarts there are."""
    for r in range(restarts):
        yield np.random.default_rng([seed, r])


@lru_cache(maxsize=16)
def _haar_starts(dims: tuple, restarts: int, seed: int) -> tuple:
    """The random starts of a basis search, built once per key: one read-only
    (restarts, n, n) stack of Haar unitaries per side of ``dims``. Restart r's
    unitaries are drawn in side order from its ``_restart_streams`` generator."""
    draws = [[_ginibre_matrix(rng, n, n) for n in dims] for rng in _restart_streams(seed, restarts)]
    return tuple(_freeze(_haar_from_ginibre(np.array([d[q] for d in draws])))
                 for q in range(len(dims)))


def _check_measured(dims):
    """Raise DomainError unless each measured side in ``dims`` has dimension >= 2."""
    if min(dims) < 2:
        raise DomainError(f"a measured side must have dimension >= 2, got {min(dims)}")


def _start_points(dims, cfg: OptimizerConfig, warm_starts) -> list:
    """One (len(warm_starts) + cfg.restarts, n, n) stack of start unitaries per side.

    The warm starts (tuples of unitaries) come first, then the
    ``cfg.restarts`` random starts of ``_haar_starts``, drawn once per
    (dims, restarts, seed) and cached read-only. Each call copies both into
    fresh stacks, which the search updates in place.
    """
    _check_measured(dims)
    rand = _haar_starts(tuple(dims), cfg.restarts, cfg.seed)
    points = []
    for q, n in enumerate(dims):
        warm = np.array([np.asarray(w[q], dtype=complex) for w in warm_starts])
        points.append(np.concatenate([warm.reshape(-1, n, n), rand[q]]))
    return points


def _retire(values, active, converged):
    """Retire the active starts that have caught up with the incumbent maximum.

    The lowest-index start within ``_RETIRE_LAG`` of the maximum keeps
    refining; the rest can only tie it.
    """
    near = values >= values.max() - _RETIRE_LAG
    caught = np.nonzero(active & near)[0]
    if len(caught):
        keep = int(np.nonzero(near)[0][0])
        drop = caught[caught != keep]
        converged[drop] = True
        active[drop] = False


def _lockstep(points, values, advance) -> OptimizationResult:
    """Run the starts of a search in lockstep and report the winner.

    ``points`` holds one stack per side with the S starts on its leading
    axis: (S, n, n) unitaries for a basis search (``_start_points``), (S, 3)
    Bloch directions for the two-qubit alternation. ``values`` holds the S
    objective values at the starts. ``advance(idx)`` moves the running
    starts ``idx`` one iteration, updating ``points`` and ``values`` at
    ``idx`` in place, and returns nothing. The stopping rule is here: a
    start stops converged when an iteration raises its value by less than
    ``_VALUE_TOLERANCE``, and stops after ``_MAX_ITERATIONS`` iterations;
    after every iteration ``_retire`` retires the starts that have caught
    up with the best. The winner is the first start within
    ``_VALUE_TOLERANCE`` of the best value, ``best_params`` of the result is
    its tuple of points, and ``iterations_total`` sums the iterations of all
    starts. This is the only multistart loop: every search ends here.
    """
    total = len(values)
    active = np.ones(total, dtype=bool)
    converged = np.zeros(total, dtype=bool)
    iters = np.zeros(total, dtype=int)
    while np.any(active):
        idx = np.nonzero(active)[0]
        before = values[idx]
        advance(idx)
        done = idx[values[idx] - before < _VALUE_TOLERANCE]
        iters[idx] += 1
        converged[done] = True
        active[done] = False
        active[idx[iters[idx] >= _MAX_ITERATIONS]] = False
        _retire(values, active, converged)

    best = int(np.nonzero(values >= values.max() - _VALUE_TOLERANCE)[0][0])
    return OptimizationResult(
        best_value=float(values[best]),
        best_params=tuple(p[best].copy() for p in points),
        restarts_run=total,
        iterations_total=int(iters.sum()),
        converged=bool(converged[best]),
    )


# ---------------------------------------------------------------------------
# Jacobi sweeps: one plane solve per Givens plane

def _round_robin(n):
    """Rounds of disjoint planes (j, k), j < k, that cover each plane of an
    n-dimensional side once: n - 1 rounds for even n, n for odd n (the
    circle method). Each round is a pair of index arrays (j, k)."""
    seats = list(range(n)) + ([-1] if n % 2 else [])  # -1 sits a round out
    half = len(seats) // 2
    rounds = []
    for _ in range(len(seats) - 1):
        pairs = sorted((min(a, b), max(a, b)) for a, b in zip(seats[:half], reversed(seats[half:]))
                       if min(a, b) >= 0)
        rounds.append(tuple(np.array(v) for v in zip(*pairs)))
        seats = seats[:1] + seats[-1:] + seats[1:-1]
    return rounds


def rotated_states(r: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """(U_A x U_B)^dag rho (U_A x U_B) for each pair of an (N, na, na) and an
    (N, nb, nb) stack of unitaries, as an (N, na, nb, na, nb) stack; ``r`` is
    the (na, nb, na, nb) state."""
    na, nb = r.shape[0], r.shape[1]
    n, d = ua.shape[0], na * nb
    w = (ua[:, :, None, :, None] * ub[:, None, :, None, :]).reshape(n, d, d)
    return (w.conj().transpose(0, 2, 1) @ r.reshape(d, d) @ w).reshape(n, na, nb, na, nb)


def _measured_first(rt, side):
    """An (R, na, nb, na, nb) stack of states with the measured side on axes 1 and 3."""
    return rt if side == "A" else rt.transpose(0, 2, 1, 4, 3)


def _dephased(rt, sides):
    """What a search measuring ``sides`` reads of each state in an
    (R, na, nb, na, nb) stack in its current bases.

    Two sides: the dephased table <alpha beta|rho|alpha beta>, real and
    (R, na, nb). One side: the blocks <o|rho|o> of the measured side, an
    (R, n, m, m) stack of m x m matrices, one per basis vector o.
    """
    if len(sides) == 2:
        return np.einsum("rabab->rab", rt).real
    return np.einsum("rabac->rabc", _measured_first(rt, sides[0]))


def _retained_purities(d):
    """The retained purity, the sum of squared moduli of each table or set
    of blocks in a stack from ``_dephased``."""
    return np.sum(d.real ** 2 + d.imag ** 2, axis=tuple(range(1, d.ndim)))


def _plane_data(view, j, k, two_sided):
    """What rotating basis vectors j[p], k[p] moves, for each plane p and restart r.

    ``view`` is the (R, n, m, n, m) stack of states in the current bases,
    measured side first (``_measured_first``). Rotating basis vectors j and
    k by (theta, phi) (see ``_rotations``) turns the blocks <j|rho~|j> and
    <k|rho~|k> into a + X and a - X, with X = sum_i v_i g_i and
    v = (cos 2theta, sin 2theta cos phi, sin 2theta sin phi). From the
    blocks H = rho~[:, beta, :, gamma], a = (H_jj + H_kk)/2 and
    g = ((H_jj - H_kk)/2, (H_jk + H_kj)/2, i (H_jk - H_kj)/2). The N = P R
    planes run plane-major. Two-sided, the diagonals (beta = gamma) are the
    two moved rows of the dephased table: a is (N, m) and g (N, 3, m), both
    real. One-sided, a is (N, m, m) and g (N, 3, m, m), Hermitian in their
    last two axes.
    """
    def entry(a, b):
        e = view[:, a, :, b, :]  # advanced indices first: (P, R, m, m)
        e = np.diagonal(e, axis1=2, axis2=3) if two_sided else e
        return e.reshape(-1, *e.shape[2:])

    hjj, hkk, hjk, hkj = entry(j, j), entry(k, k), entry(j, k), entry(k, j)
    a = 0.5 * (hjj + hkk)
    g = np.stack([0.5 * (hjj - hkk), 0.5 * (hjk + hkj), 0.5j * (hjk - hkj)], axis=1)
    return (a.real, g.real) if two_sided else (a, g)


def _purity_plane(a, g):
    """The best direction v of each plane for the retained purity.

    The moved purity is 2 |a|^2 + 2 v^t G v with the Gram G = Re sum g g^H,
    so v is G's top eigenvector: one 3x3 ``eigh`` per plane.
    """
    g = g.reshape(len(g), 3, -1)
    gram = np.einsum("nak,nbk->nab", g, g.conj()).real
    return np.linalg.eigh(gram)[1][..., -1]


def _fibonacci_directions(n):
    """n unit vectors spread over the half sphere v_0 > 0 (a Fibonacci lattice),
    one per antipodal pair."""
    i = np.arange(n) + 0.5
    x = 1.0 - i / n
    rho, az = np.sqrt(1.0 - x * x), i * np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([x, rho * np.cos(az), rho * np.sin(az)], axis=1)


# the grid of the non-quadratic plane solves: no move first, so a tie keeps it,
# then _PLANE_GRID_SIZE directions; one Newton step of length <= _NEWTON_CAP follows
_PLANE_GRID_SIZE = 8
_NEWTON_CAP = 0.5
# curvatures below this count as this, so a flat plane takes a capped step
_CURVATURE_FLOOR = 1e-12
_PLANE_GRID = np.vstack([[1.0, 0.0, 0.0], _fibonacci_directions(_PLANE_GRID_SIZE)])


def _newton_points(v, grad, hess):
    """One Riemannian Newton ascent step on the unit sphere from each of the
    (N, 3) points v, given f's gradient (N, 3) and Hessian (N, 3, 3) in R^3;
    returns the (N, 3) unit vectors reached.

    With the tangent projector P = I - v v^t, the step solves
    |H| eta = P grad for the Riemannian Hessian H = P Hess P - (v . grad) P,
    its eigenvalues taken in magnitude so that it ascends where f is not
    concave (Absil, Mahony & Sepulchre 2008; Ishteva, Absil & Van Dooren
    2013), and is cut to length ``_NEWTON_CAP``. Whether the point raises f
    is for the caller to check.
    """
    radial = np.sum(v * grad, axis=1)
    vv = v[:, :, None] * v[:, None, :]
    proj = np.eye(3) - vv
    # v is an eigenvector of h with eigenvalue 1 and carries no gradient
    h = proj @ hess @ proj - radial[:, None, None] * proj + vv
    mu, e = np.linalg.eigh(h)
    coef = ((grad - radial[:, None] * v)[:, None] @ e)[:, 0]
    eta = (e @ (coef / np.maximum(np.abs(mu), _CURVATURE_FLOOR))[:, :, None])[..., 0]
    norm = np.linalg.norm(eta, axis=1, keepdims=True)
    step = v + eta * np.minimum(1.0, _NEWTON_CAP / np.maximum(norm, _NEWTON_CAP))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    return step


def plane_ascent(value, derivatives):
    """The plane solve of a smooth objective f(v) that is even on the sphere.

    ``value(v)`` maps an (N, C, 3) stack of unit vectors, or a (C, 3) stack
    shared by the N planes, to the (N, C) values of f; ``derivatives(v)``
    maps (N, 3) to f's gradient (N, 3) and Hessian (N, 3, 3) in R^3.
    Returns (N, 3): the best point of ``_PLANE_GRID``, moved by one
    Riemannian Newton step (``_newton_points``) when that raises f. No move
    is the first grid point, so a plane solve never lowers f.
    """
    vals = value(_PLANE_GRID)
    best = np.argmax(vals, axis=1)
    v = _PLANE_GRID[best]
    f0 = vals[np.arange(len(v)), best]
    step = _newton_points(v, *derivatives(v))
    better = value(step[:, None])[:, 0] > f0
    return np.where(better[:, None], step, v)


class PlaneObjective(NamedTuple):
    """An objective of ``jacobi_search``.

    ``values(d)`` maps the R tables (two-sided, ``d.ndim == 3``) or sets of
    blocks (one-sided) that ``_dephased`` reads from the states in their
    current bases to R values; ``solve(a, g)`` maps the plane data
    of ``_plane_data`` to the (N, 3) unit vectors v of the rotations to
    take (``_rotations``), never lowering the value.
    """

    values: Callable
    solve: Callable


RETAINED_PURITY = PlaneObjective(_retained_purities, _purity_plane)


def _rotations(v):
    """cos theta, sin theta and e^{i phi} of the rotation that realizes each v.

    v is signed so that v_0 >= 0 (the objectives are even in v);
    theta = arccos(v_0) / 2 and phi = atan2(v_2, v_1). The unitary rotation
    that ``_jacobi_step`` applies takes basis vector j to
    c u_j + e^{i phi} s u_k and k to -e^{-i phi} s u_j + c u_k.
    """
    v = np.where(v[..., :1] < 0, -v, v)
    theta = 0.5 * np.arccos(np.clip(v[..., 0], -1.0, 1.0))
    return np.cos(theta), np.sin(theta), np.exp(1j * np.arctan2(v[..., 2], v[..., 1]))


def _jacobi_step(u, view, j, k, two_sided, solve):
    """Rotate basis vectors j[p], k[p] of each (R, n, n) basis in ``u`` by the
    rotation ``solve`` picks for their plane, in place; ``view`` is as for
    ``_plane_data``."""
    v = solve(*_plane_data(view, j, k, two_sided)).reshape(len(j), len(u), 3)
    c, s, ph = (x.T[:, None] for x in _rotations(v))
    uj, uk = u[:, :, j], u[:, :, k]
    u[:, :, j], u[:, :, k] = c * uj + ph * s * uk, -ph.conj() * s * uj + c * uk


def jacobi_search(r, sides, cfg: OptimizerConfig, warm_starts=(),
                  objective: PlaneObjective = RETAINED_PURITY) -> OptimizationResult:
    """Maximize ``objective`` over the bases of the measured ``sides`` by Jacobi sweeps.

    ``r`` is the (na, nb, na, nb) state; ``sides`` is ("A", "B") for a
    two-sided objective of the dephased table, ("A",) or ("B",) for a
    one-sided one of the measured side's blocks. ``_lockstep`` runs the
    starts of ``_start_points``.

    Each step rotates every running start's state into its current bases
    and applies the rotation ``objective.solve`` picks in each plane
    (``_jacobi_step``), so no step lowers the value. Disjoint planes of one
    side move disjoint basis vectors, so a step handles a whole
    ``_round_robin`` round at once. A sweep visits every plane of each
    measured side once and updates the start's bases and value;
    ``_lockstep`` judges convergence. ``iterations_total`` counts sweeps.
    """
    size = {"A": r.shape[0], "B": r.shape[1]}
    points = _start_points(tuple(size[s] for s in sides), cfg, list(warm_starts))
    total = len(points[0])
    bases = {s: np.broadcast_to(np.eye(n, dtype=complex), (total, n, n)) for s, n in size.items()}
    bases.update(zip(sides, points))
    rounds = [(s, j, k) for s in sides for j, k in _round_robin(size[s])]
    values = objective.values(_dephased(rotated_states(r, bases["A"], bases["B"]), sides))

    def sweep(idx):
        cur = {s: b[idx] for s, b in bases.items()}
        for s, j, k in rounds:
            view = _measured_first(rotated_states(r, cur["A"], cur["B"]), s)
            _jacobi_step(cur[s], view, j, k, len(sides) == 2, objective.solve)
        for s in sides:
            bases[s][idx] = cur[s]
        values[idx] = objective.values(_dephased(rotated_states(r, cur["A"], cur["B"]), sides))

    return _lockstep(points, values, sweep)


def search_bases(state: BipartiteState, sides, cfg: OptimizerConfig, total, lower_bound,
                 objective: PlaneObjective = RETAINED_PURITY, extra=()) -> DiscordValue:
    """The discord ``total`` minus the best retained ``objective`` found by
    ``jacobi_search`` on ``state`` from the ``warm_start_bases`` of ``sides``
    and ``extra``, with ``lower_bound`` under it.

    The measurement is the winning ProductMeasurement when both sides are
    measured, the winning OrthonormalBasis when one is.
    """
    res = jacobi_search(state.reshaped(), sides, cfg, warm_start_bases(state, sides, extra),
                        objective)
    bases = [OrthonormalBasis(u) for u in res.best_params]
    m = ProductMeasurement(*bases) if len(sides) == 2 else bases[0]
    return DiscordValue(float(total - res.best_value), m, lower_bound, res)


# ---------------------------------------------------------------------------
# alternating eigen-iteration and grid oracle on the two-qubit Bloch objective

def _gram_top(g11, g22, g12):
    """The top eigenvalue of each 2x2 Gram matrix [[g11, g12], [g12, g22]],
    and the gap r between its two eigenvalues."""
    r = np.sqrt((g11 - g22) ** 2 + 4.0 * g12**2)
    return 0.5 * (g11 + g22 + r), r


def _bloch_gram(bloch: TwoQubitBloch, av):
    """a.x, w = T^t a and the Gram entries g11 = |y|^2, g22 = |w|^2, g12 = a.Ty
    of y and w at each row a of the (N, 3) stack av, from one product av (x, T, T y).
    Every Bloch-data product of the package is formed here."""
    q = (av @ np.column_stack([bloch.x, bloch.t, bloch.t @ bloch.y])).T
    return (q[0], q[1:4].T, float(bloch.y @ bloch.y),
            q[1] * q[1] + q[2] * q[2] + q[3] * q[3], q[4])


def _reduced_bloch(bloch: TwoQubitBloch, av):
    """The Bloch pair objective maximized over b, F(a), at each row a of the
    (N, 3) stack av, the gap r and the unit b attaining F; returns (F, r, b).

    F(a) = max_b [(a.x)^2 + (b.y)^2 + (a T b)^2] = (a.x)^2 + (g11 + g22 + r) / 2,
    with r the gap of the Gram [[g11, g12], [g12, g22]] of y and w = T^t a
    (``_bloch_gram``, ``_gram_top``). b, the top eigenvector of y y^t + w w^t,
    is c1 y + c2 w for the Gram's top eigenvector c = (g11 - g22 + r, 2 g12),
    or (2 g12, g22 - g11 + r) where g11 < g22, so no entry cancels; where c
    is 0 (a double eigenvalue), b is y / |y|, or e_3 if y = 0. The first
    component of b of largest magnitude is positive.
    """
    ax, w, g11, g22, g12 = _bloch_gram(bloch, av)
    top, r = _gram_top(g11, g22, g12)
    d, g2 = g11 - g22, 2.0 * g12
    bv = np.where(d >= 0, d + r, g2)[:, None] * bloch.y + np.where(d >= 0, g2, r - d)[:, None] * w
    n = np.sqrt(np.einsum("ij,ij->i", bv, bv))
    if not n.all():
        bv[n == 0], n[n == 0] = bloch.y / np.sqrt(g11) if g11 > 0 else np.eye(3)[2], 1.0
    bv /= np.copysign(n, bv[np.arange(len(bv)), np.argmax(np.abs(bv), axis=1)])[:, None]
    return ax * ax + top, r, bv


def _reduced_bloch_derivatives(bloch: TwoQubitBloch):
    """The derivatives of ``_reduced_bloch``'s F for one state: a function
    mapping an (N, 3) stack av to the gradient (N, 3) and Hessian (N, 3, 3)
    in R^3 of F at each row a; r must be > 0 there.

    With M = T T^t, u = T y and N = (g22 - g11) M a + 2 g12 u:
    grad = 2 (a.x) x + M a + N / r and
    Hess = 2 x x^t + M + (2 M a a^t M + (g22 - g11) M + 2 u u^t) / r - 2 N N^t / r^3.
    M, u, g11 = |y|^2, 2 x x^t + M and 2 u u^t are built once, here.
    """
    x, y, t = bloch.x, bloch.y, bloch.t
    m, u = t @ t.T, t @ y
    g11, hess0, uu = float(y @ y), 2.0 * np.outer(x, x) + m, 2.0 * np.outer(u, u)

    def derivatives(av):
        ax, ma, g12 = av @ x, av @ m, av @ u
        g22 = np.sum(av * ma, axis=1)
        d, r = g22 - g11, _gram_top(g11, g22, g12)[1][:, None]
        nn = d[:, None] * ma + 2.0 * g12[:, None] * u
        grad = 2.0 * ax[:, None] * x + ma + nn / r
        rr = r[:, :, None]
        hess = (hess0 + (2.0 * ma[:, :, None] * ma[:, None] + d[:, None, None] * m + uu)
                / rr - 2.0 * nn[:, :, None] * nn[:, None] / rr**3)
        return grad, hess

    return derivatives


@lru_cache(maxsize=8)
def _random_directions(seed: int, restarts: int) -> np.ndarray:
    """The random starts of the two-qubit alternation, read-only (restarts, 3),
    built once per key: row r is the Gaussian draw of restart r's
    ``_restart_streams`` generator made unit (e_1 if it is 0)."""
    starts = np.empty((restarts, 3))
    for r, rng in enumerate(_restart_streams(seed, restarts)):
        v = rng.standard_normal(3)
        starts[r] = v / np.linalg.norm(v) if np.any(v) else np.eye(3)[0]
    return _freeze(starts)


# the reduced objective is smooth where its Gram's eigenvalue gap exceeds this
_SMOOTH_GAP = 1e-9


def _alternating_detail(b: TwoQubitBloch, cfg: OptimizerConfig) -> OptimizationResult:
    """Multistart alternation, run by ``_lockstep``.

    The starts are e_1, e_2, e_3, the top right singular vector of T, y/|y|
    (when y != 0) and the ``_random_directions`` of ``cfg``, each a start
    for b. A start's first step is two half-steps, a from b, then b from a,
    each a top eigenvector taken from a 2x2 Gram (``_reduced_bloch``; for
    a, on the Bloch data with the parties swapped). Every later step first
    tries one Riemannian Newton step (``_newton_points``) on the reduced
    objective F(a), the maximum over b, and keeps the Newton point and its
    b when F rises there; otherwise, and where the gap r <= ``_SMOOTH_GAP``
    (F is not differentiable at a double eigenvalue), it takes both
    half-steps. F, r and b are kept from the step that set a. Near maximal
    entanglement the half-steps alone zigzag along a near-flat ridge for
    hundreds of steps per start. A step never lowers a start's value, and
    ``_lockstep`` judges convergence; ``best_params`` is (a, b).
    """
    ny, vt = np.linalg.norm(b.y), np.linalg.svd(b.t)[2]
    bv = np.concatenate([np.eye(3), vt[:1], (b.y / ny)[None] if ny > 0 else np.empty((0, 3)),
                         _random_directions(cfg.seed, cfg.restarts)])
    flip = TwoQubitBloch(b.y, b.x, b.t.T)  # parties swapped: its b half-step is the a half-step
    derivatives = _reduced_bloch_derivatives(b)
    a = np.zeros_like(bv)
    values, f, gap = np.full(len(bv), -np.inf), np.zeros(len(bv)), np.zeros(len(bv))

    def step(idx):
        cur, new, r, nb, old = a[idx], f[idx], gap[idx], bv[idx], values[idx]
        # a start's first step (value -inf) has no a yet
        tried = np.nonzero(np.isfinite(old) & (r > _SMOOTH_GAP))[0]
        half = np.ones(len(idx), dtype=bool)
        if len(tried):
            cand = _newton_points(cur[tried], *derivatives(cur[tried]))
            fc, rc, bc = _reduced_bloch(b, cand)
            rise = fc > new[tried]
            up = tried[rise]
            cur[up], new[up], r[up], nb[up] = cand[rise], fc[rise], rc[rise], bc[rise]
            half[up] = False
        if np.any(half):
            cur[half] = _reduced_bloch(flip, nb[half])[2]
            new[half], r[half], nb[half] = _reduced_bloch(b, cur[half])
        a[idx], f[idx], gap[idx], bv[idx] = cur, new, r, nb
        values[idx] = np.maximum(old, new)

    return _lockstep([a, bv], values, step)


def alternating_sphere_max(b: TwoQubitBloch, cfg: OptimizerConfig):
    """Maximize (a.x)^2 + (b.y)^2 + (a T b)^2 over unit vectors by alternation;
    returns (a, b, value).

    Each half-step is the exact top-eigenvector maximization of a quadratic
    form on the sphere, so the value sequence is nondecreasing.
    """
    res = _alternating_detail(b, cfg)
    a, bv = res.best_params
    return a, bv, res.best_value


def _grid_angles(resolution: int):
    """(sin, cos) of the colatitudes i pi / R, i <= R, and (cos, sin) of the
    longitudes k pi / R, k < 2R, run on past R and 2R for partial cells."""
    if resolution < 8:
        raise DomainError("resolution must be >= 8")
    theta = np.append(np.linspace(0.0, np.pi, resolution + 1), np.zeros(_CELL_BANDS))
    phi = np.arange(2 * resolution + _CELL_LONGITUDES) * (np.pi / resolution)
    return np.stack([np.sin(theta), np.cos(theta)]), np.stack([np.cos(phi), np.sin(phi)])


@lru_cache(maxsize=16)
def projective_grid(resolution: int) -> np.ndarray:
    """One direction per antipodal pair of a latitude-longitude grid:
    R^2 - R + 1 unit vectors, as a read-only (R^2 - R + 1, 3) array.

    The whole-sphere grid has R + 1 latitudes theta_i = i pi / R and 2R
    longitudes phi_k = k pi / R; the antipode of latitude i, longitude k is
    latitude R - i, longitude k + R (mod 2R). This grid keeps the north
    pole, every latitude with 0 < 2i < R and, for even R, the first R
    longitudes of the equator, so an objective even in each direction has
    the same maximum on it as on the whole sphere grid. Each resolution is
    built once, on first use, and shared by every later call.
    """
    r = resolution
    (st, ct), (cp, sp) = _grid_angles(r)
    # longitudes kept at latitude i = 0, 1, ...: pole, open bands, even-R equator
    count = [1] + [2 * r] * ((r + 1) // 2 - 1) + [r] * (1 - r % 2)
    i = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    return _freeze(np.stack([st[i] * cp[k], st[i] * sp[k], ct[i]], axis=1))


# a grid cell is this many consecutive latitude bands by this many
# consecutive longitudes of ``projective_grid``
_CELL_BANDS = 8
_CELL_LONGITUDES = 16
# relative and absolute padding of a cell's angular radius
_CELL_PAD = 1e-9
# the grid oracle scores surviving cells this many at a time, so that a flat
# objective, where most cells survive, never holds the whole grid at once
_CELL_BLOCK = 64


class _GridCells(NamedTuple):
    """The cells of one ``projective_grid``, each held by four corners.

    The pole is one cell. The open latitude bands are cut into runs of
    ``_CELL_BANDS`` (the last may be shorter) and, for even R, the half
    equator is one more run; each run is cut into runs of
    ``_CELL_LONGITUDES`` longitudes (the last may be shorter), so the cells
    partition the grid. Cell c holds the directions at latitude ``band[c] + i``
    and longitude ``lon[c] + k``, i < ``bands[c]``, k < ``width[c]``, of the
    ``_grid_angles`` tables ``theta`` and ``phi``; ``full[c]`` when it is 8 x 16.
    ``corners[k * C + c]``, k < 4, enclose cell c of the C: every direction
    in it lies in the convex hull of 0 and those corners. A cell in
    ``wide`` spans a right angle or more around its centre and has no
    enclosure.
    """

    band: np.ndarray
    lon: np.ndarray
    bands: np.ndarray
    width: np.ndarray
    full: np.ndarray
    corners: np.ndarray
    wide: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def directions(self, ids):
        """The directions of the cells ids (an array), each once: rows of
        ``projective_grid``, bit for bit, from the cells' angle tables."""
        i, k = np.arange(_CELL_BANDS)[:, None], np.arange(_CELL_LONGITUDES)
        st, ct = np.take(self.theta, self.band[ids, None, None] + i, axis=1)
        cp, sp = np.take(self.phi, self.lon[ids, None, None] + k, axis=1)
        u = np.empty((len(st), _CELL_BANDS, _CELL_LONGITUDES, 3))
        u[..., 0], u[..., 1], u[..., 2] = st * cp, st * sp, ct
        if self.full[ids].all():
            return u.reshape(-1, 3)
        keep = (i < self.bands[ids, None, None]) & (k < self.width[ids, None, None])
        return np.take(u.reshape(-1, 3), np.flatnonzero(keep), axis=0)


@lru_cache(maxsize=16)
def _grid_cells(resolution: int) -> _GridCells:
    """The cells of ``projective_grid(resolution)`` and their enclosures.

    A cell whose directions have colatitudes in [t1, t2] and longitudes in
    [p1, p2] lies within the angle alpha = (t2 - t1) / 2 + sin(tm) (p2 - p1) / 2
    of its centre c at (tm, pm), the midpoints: a leg along the small
    circle of colatitude tm, then one along a meridian. Padded by
    ``_CELL_PAD``, alpha < pi / 2 puts every direction u of the cell in
    conv{0, c + tan(alpha) (+-e_theta +- e_phi)}: u / (u.c) lies in that
    tangent square at c, and 0 < u.c <= 1. Only the corners, four integers
    and a flag per cell, and the angle tables are built, once per resolution.
    """
    angles, r, step = _grid_angles(resolution), resolution, np.pi / resolution
    # (first band, bands, longitudes per band) per run of bands
    open_bands = (r + 1) // 2 - 1
    runs = [(0, 1, 1)] + [(i, min(_CELL_BANDS, open_bands + 1 - i), 2 * r)
                          for i in range(1, open_bands + 1, _CELL_BANDS)]
    if r % 2 == 0:
        runs.append((r // 2, 1, r))
    table = np.array(runs)
    count = -(-table[:, 2] // _CELL_LONGITUDES)  # cells per run
    run = np.repeat(np.arange(len(runs)), count)
    lo = (np.arange(len(run)) - np.repeat(np.cumsum(count) - count, count)) * _CELL_LONGITUDES
    first, bands, stride = table[run].T
    width = np.minimum(lo + _CELL_LONGITUDES, stride) - lo
    t1, t2 = first * step, (first + bands - 1) * step
    p1, p2 = lo * step, (lo + width - 1) * step
    tm, pm = 0.5 * (t1 + t2), 0.5 * (p1 + p2)
    alpha = 0.5 * (t2 - t1) + np.sin(tm) * 0.5 * (p2 - p1)
    alpha = alpha * (1.0 + _CELL_PAD) + _CELL_PAD
    wide = alpha >= 0.5 * np.pi
    st, ct, sp, cp = np.sin(tm), np.cos(tm), np.sin(pm), np.cos(pm)
    c = np.stack([st * cp, st * sp, ct], axis=1)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    h = np.tan(np.where(wide, 0.0, alpha))[:, None]
    corners = np.concatenate([c + h * (s1 * e_theta + s2 * e_phi)
                              for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)])
    full = bands * width == _CELL_BANDS * _CELL_LONGITUDES
    arrays = (first, lo, bands, width, full, corners, np.flatnonzero(wide), *angles)
    return _GridCells(*map(_freeze, arrays))


def _cell_bound(cells: _GridCells, *values):
    """Upper bound on each cell of the smallest of convex functions that are
    smallest at 0, from their values at the cells' corners (one array per
    function, one value per row of ``cells.corners``).

    A convex function peaks at a vertex of a polytope (Horst & Tuy 1996),
    and on conv{0, corners} the vertex 0 never wins, so each function's
    largest corner value bounds it on the cell; the smallest of those
    bounds the smallest function. The corner values of that smallest
    function, which is not convex, would bound nothing. A wide cell gets
    inf.
    """
    ub = np.min([v.reshape(4, -1).max(axis=0) for v in values], axis=0)
    ub[cells.wide] = np.inf
    return ub


def _row_bounds(b: TwoQubitBloch, av, gy):
    """Two upper bounds on the grid objective's row maximum at each row a of
    av, both convex in a and smallest at 0: F(a) (``_reduced_bloch``) and
    (a.x)^2 + gy + |T^t a|^2, where gy >= the grid maximum of (b.y)^2.
    Both come from one ``_bloch_gram``, without the b of ``_reduced_bloch``."""
    ax, _, g11, g22, g12 = _bloch_gram(b, av)
    ax2 = ax * ax
    return ax2 + _gram_top(g11, g22, g12)[0], ax2 + gy + g22


def sphere_grid_oracle(b: TwoQubitBloch, resolution: int) -> float:
    """Exhaustive max of the Bloch pair objective over grid points on both spheres.

    The objective is even in a and in b, so both range over
    ``projective_grid``, one direction per antipodal pair.

    The pairwise max is computed exactly by branch-and-bound on two levels,
    over the cells of ``_grid_cells``. The row of A direction a is bounded
    by the smaller of F(a), the continuous maximum over b
    (``_reduced_bloch``), and (a.x)^2 + Gy + |T^t a|^2, where Gy is the grid
    maximum of (b.y)^2 (``_row_bounds``). Both are convex in a, so a cell of
    A directions is bounded by the smaller of their largest corner values
    (``_cell_bound``). The largest-bounded row of the best-bounded cell
    seeds the incumbent; only cells whose bound exceeds it get
    per-direction bounds, and only their directions whose bound exceeds it
    are scanned, in decreasing bound. In the row of a, a cell of B
    directions is scored only when (a.x)^2 plus the corner bound of the
    convex (b.y)^2 + (b.T^t a)^2 can beat the incumbent; without one, the
    best-bounded cell is scored first, and not again. Gy is found by the
    same search over B cells. Surviving cells' directions are built
    ``_CELL_BLOCK`` cells at a time (``_GridCells.directions``), never the
    whole grid, so a flat objective holds one block at once. No pruned
    direction can change it.
    """
    cells = _grid_cells(resolution)
    ky2 = (cells.corners @ b.y) ** 2

    def blocks(ids):
        for lo in range(0, len(ids), _CELL_BLOCK):
            yield cells.directions(ids[lo:lo + _CELL_BLOCK])

    def search(bounds, score, best=-np.inf):
        # score(directions, best) over the cells whose bound exceeds the
        # incumbent; without one, over the best-bounded cell first, once
        first = -1
        if best == -np.inf:
            first = int(np.argmax(bounds))
            best = score(*blocks([first]), best)
        ids = np.flatnonzero(bounds > best)
        for u in blocks(ids[ids != first]):
            best = score(u, best)
        return best

    gy = search(_cell_bound(cells, ky2), lambda u, best: max(best, float(((u @ b.y) ** 2).max())))

    def row(a, best):
        w, ax2 = a @ b.t, float(a @ b.x) ** 2

        def score(u, best):
            v, q = u @ w, u @ b.y
            v *= v
            q *= q
            v += q
            return max(best, ax2 + float(v.max()))

        return search(ax2 + _cell_bound(cells, ky2 + (cells.corners @ w) ** 2), score, best)

    ub = _cell_bound(cells, *_row_bounds(b, cells.corners, gy))
    seed = next(blocks([int(np.argmax(ub))]))
    best = row(seed[int(np.argmax(np.minimum(*_row_bounds(b, seed, gy))))], -np.inf)
    # (direction, bound) of every direction whose bound exceeds the seed's row
    kept = [np.empty((0, 4))]
    for u in blocks(np.flatnonzero(ub > best)):
        bounds = np.minimum(*_row_bounds(b, u, gy))
        kept.append(np.column_stack([u, bounds])[bounds > best])
    kept = np.concatenate(kept)
    av, bounds = kept[:, :3], kept[:, 3]
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] <= best:
            break
        best = row(av[i], best)
    return float(best)
