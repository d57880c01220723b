"""The compass search over measurement bases, reference for the Jacobi searches.

A compass (pattern) search polls closed-form Givens rotations of the
current bases at a step it adapts and accepts the best poll, so it never
lowers its objective and uses none of the plane solves of
``jacobi_search``. The tests
compare the Jacobi searches with it from the same starts: the two-sided
objectives through ``TablePolls`` (two-row table updates), the one-sided
entropic objective through ``maximize_over_bases`` and the blocks of
``_side_blocks``. It shares ``_lockstep`` and ``_start_points`` with the
Jacobi searches, so the same iteration cap, retire rule and winner rule
hold for both.
"""

import numpy as np

from twodiscord import entropic
from twodiscord.entropic import entropy_of_spectra, shannon_bits
from twodiscord.optimize import (
    _VALUE_TOLERANCE,
    OptimizationResult,
    OptimizerConfig,
    _lockstep,
    _rotate_columns,
    _start_points,
    rotated_states,
)

_INITIAL_STEP = 0.25
# a compass start also stops when its step falls below this
_STEP_TOLERANCE = 1e-10


def _givens_planes(dims):
    """The Givens poll directions over a product of unitary groups of sizes ``dims``.

    Returns arrays (side, j, k, mult_j, mult_k, sign), one entry per
    direction. A direction rotates columns j < k of one side's unitary:
    column j becomes c u_j + mult_j s u_k and column k becomes
    mult_k s u_j + c u_k, with c, s the cosine and sine of sign times the
    step. (mult_j, mult_k) = (-1, 1) is the real generator E_jk - E_kj and
    (i, i) the imaginary one i(E_jk + E_kj). Directions run side by side,
    the real planes then the imaginary ones (row-major over j < k), all with
    sign +1, then the same list with sign -1; 2 n(n-1) directions per side.
    """
    side, j, k, mult_j, mult_k = [], [], [], [], []
    for q, n in enumerate(dims):
        jq, kq = np.triu_indices(n, k=1)
        for mj, mk in ((-1.0, 1.0), (1j, 1j)):
            side += [q] * len(jq)
            j += list(jq)
            k += list(kq)
            mult_j += [mj] * len(jq)
            mult_k += [mk] * len(jq)
    half = len(side)
    sign = np.concatenate([np.ones(half), -np.ones(half)])
    return tuple(np.tile(np.asarray(v), 2) for v in (side, j, k, mult_j, mult_k)) + (sign,)


def _givens_poll(bases, steps, planes):
    """Candidates U G for each restart's unitaries and each Givens direction.

    ``bases`` holds one (R, n, n) unitary stack per side; the result holds one
    (R * D, n, n) stack per side, restart-major, where D is the number of
    directions in ``planes``. A candidate differs from its base only in the
    two columns its direction rotates, on its direction's side.
    """
    side, j, k, mult_j, mult_k, sign = planes
    ndir = len(sign)
    ang = steps[:, None] * sign[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    out = []
    for q, u in enumerate(bases):
        r, n, _ = u.shape
        cand = np.repeat(u[:, None], ndir, axis=1)
        d = np.nonzero(side == q)[0]
        jq, kq = j[d], k[d]
        # advanced indices on axes 1 and 3 put the direction axis first: (Dq, R, n)
        cand[:, d, :, jq], cand[:, d, :, kq] = _rotate_columns(
            u[:, :, jq].transpose(2, 0, 1), u[:, :, kq].transpose(2, 0, 1),
            cos[:, d].T[:, :, None], sin[:, d].T[:, :, None],
            mult_j[d, None, None], mult_k[d, None, None],
        )
        out.append(cand.reshape(r * ndir, n, n))
    return out


def _rotate_accepted(points, rows, dirs, steps, planes):
    """Apply direction ``dirs[i]`` at step ``steps[i]`` to restart ``rows[i]``, in place."""
    side, j, k, mult_j, mult_k, sign = planes
    ang = steps * sign[dirs]
    cos, sin = np.cos(ang)[:, None], np.sin(ang)[:, None]
    for q, u in enumerate(points):
        on = side[dirs] == q
        r, d = rows[on], dirs[on]
        # advanced indices on axes 0 and 2 give (len(r), n) column stacks
        u[r, :, j[d]], u[r, :, k[d]] = _rotate_columns(
            u[r, :, j[d]], u[r, :, k[d]], cos[on], sin[on], mult_j[d, None], mult_k[d, None]
        )


class _CandidatePolls:
    """Scores polls by building every candidate's unitaries for ``batch_eval``.

    ``batch_eval(*stacks)`` maps one (N, n, n) stack of unitaries per side to
    N objective values.
    """

    def __init__(self, batch_eval):
        self.batch_eval = batch_eval

    def values(self, points):
        return np.asarray(self.batch_eval(*points), dtype=float)

    def poll(self, points, steps, planes):
        cand = _givens_poll(points, steps, planes)
        return np.asarray(self.batch_eval(*cand), dtype=float).reshape(len(steps), -1)


def compass_search(scorer, dims, cfg: OptimizerConfig, warm_starts=()) -> OptimizationResult:
    """Maximize an objective over measurement bases, one per side, by compass search.

    A point is a tuple of unitaries, one per measured side with sizes
    ``dims``, whose columns are the basis vectors; ``_lockstep`` runs the
    starts of ``_start_points``.

    ``scorer`` evaluates the objective: ``scorer.values(points)`` maps one
    (R, n, n) stack per side to R values, and ``scorer.poll(points, steps,
    planes)`` maps the same stacks, R step sizes and the directions of
    ``_givens_planes`` to the (R, D) values of every restart's polled
    candidates.

    Each round is one scorer call. A poll is U G for a closed-form Givens
    rotation G in one plane of one side (see ``_givens_planes``), so
    candidates need no matrix exponential. Each running start accepts its
    best polled candidate (the lowest direction index on ties) by rotating
    its own two columns and doubles its step, up to the initial step, or
    halves its step on failure. It stops converged when an accepted rise
    falls below ``_VALUE_TOLERANCE`` or its step falls below
    ``_STEP_TOLERANCE``. ``iterations_total`` counts poll rounds.
    """
    points = _start_points(dims, cfg, list(warm_starts))
    planes = _givens_planes(dims)
    values = scorer.values(points)
    steps = np.full(len(values), _INITIAL_STEP)

    def poll_round(idx):
        vals = scorer.poll([p[idx] for p in points], steps[idx], planes)
        best_j = np.argmax(vals, axis=1)
        best_v = vals[np.arange(len(idx)), best_j]
        imp = best_v - values[idx]
        acc = imp > 0
        up = idx[acc]
        values[up] = best_v[acc]
        _rotate_accepted(points, up, best_j[acc], steps[up], planes)
        steps[up] = np.minimum(2.0 * steps[up], _INITIAL_STEP)
        steps[idx[~acc]] *= 0.5
        return np.where(acc, imp < _VALUE_TOLERANCE, steps[idx] < _STEP_TOLERANCE)

    return _lockstep(points, values, poll_round)


def maximize_over_bases(batch_eval, dims, cfg: OptimizerConfig,
                        warm_starts=()) -> OptimizationResult:
    """``compass_search`` of a batched objective over measurement bases.

    ``batch_eval(*stacks)`` maps one (N, n, n) stack of candidate unitaries
    per side to N objective values; every polled candidate is built.
    """
    return compass_search(_CandidatePolls(batch_eval), dims, cfg, warm_starts)


# ---------------------------------------------------------------------------
# scorers: two-sided polls by two-row table updates, and the one-sided
# entropic objective from the measured side's blocks

def _side_blocks(r, u, side):
    """Blocks <o|rho|o> on the measured side for each basis in an (N, n, n) stack.

    Side A gives (N, na, nb, nb) blocks, side B gives (N, nb, na, na).
    """
    n, d = u.shape[0], u.shape[1]
    rows = np.einsum("nao,nco->noac", u.conj(), u).reshape(n * d, d * d)
    rm = r.transpose(0, 2, 1, 3) if side == "A" else r.transpose(1, 3, 0, 2)
    m = rm.shape[2]
    return (rows @ rm.reshape(d * d, m * m)).reshape(n, d, m, m)


def _plane_rows(p, g, cos, sin, j, k, mult_j, mult_k):
    """Tables after a Givens rotation of rows j and k, one per direction.

    ``p`` is the (R, n, m) base table and ``g[r, a, c, x]`` the entry (a, c)
    of the Hermitian block of column x, so ``p[r, a, x] = g[r, a, a, x]``.
    Column j of the basis becomes c e_j + mult_j s e_k and column k becomes
    mult_k s e_j + c e_k, so row j becomes c^2 H_jj + s^2 H_kk +
    2cs Re(mult_j H_jk) and row k becomes s^2 H_jj + c^2 H_kk +
    2cs Re(conj(mult_k) H_jk). ``cos`` and ``sin`` are (R, D); the result is
    (R, D, n, m).
    """
    c, s = cos[..., None], sin[..., None]
    hjj, hkk, hjk = p[:, j], p[:, k], g[:, j, k]
    cross = 2.0 * c * s
    d = np.arange(len(j))
    out = np.repeat(p[:, None], len(j), axis=1)
    out[:, d, j] = c * c * hjj + s * s * hkk + cross * (mult_j[:, None] * hjk).real
    out[:, d, k] = s * s * hjj + c * c * hkk + cross * (mult_k.conj()[:, None] * hjk).real
    return out


class TablePolls:
    """A ``compass_search`` scorer of two-sided Givens polls by two-row table updates.

    ``score`` maps an (N, na, nb) stack of tables, negatives clipped to 0,
    to N values. Per round each restart's state is rotated into its current
    bases once; the blocks rho~[:, beta, :, beta] (side A) and
    rho~[alpha, :, alpha, :] (side B) give every candidate's two new rows
    or columns.
    """

    def __init__(self, r, score):
        self.r = r
        self.na, self.nb = r.shape[0], r.shape[1]
        self.score = score

    def values(self, points):
        p = np.einsum("rabab->rab", rotated_states(self.r, *points)).real
        return self.score(np.maximum(p, 0.0))

    def tables(self, points, steps, planes):
        """(R, D, na, nb) candidate tables for the directions of ``_givens_planes``."""
        side, j, k, mult_j, mult_k, sign = planes
        ang = steps[:, None] * sign[None, :]
        cos, sin = np.cos(ang), np.sin(ang)
        rt = rotated_states(self.r, *points)
        p = np.einsum("rabab->rab", rt).real
        out = np.empty((len(steps), len(sign), self.na, self.nb))
        on_a, on_b = side == 0, side == 1
        out[:, on_a] = _plane_rows(
            p, np.einsum("rabcb->racb", rt), cos[:, on_a], sin[:, on_a],
            j[on_a], k[on_a], mult_j[on_a], mult_k[on_a],
        )
        out[:, on_b] = _plane_rows(
            p.transpose(0, 2, 1), np.einsum("rabad->rbda", rt), cos[:, on_b], sin[:, on_b],
            j[on_b], k[on_b], mult_j[on_b], mult_k[on_b],
        ).transpose(0, 1, 3, 2)
        return np.maximum(out, 0.0, out=out)

    def poll(self, points, steps, planes):
        t = self.tables(points, steps, planes)
        return self.score(t.reshape(-1, self.na, self.nb)).reshape(t.shape[:2])


def _one_sided_information(r, u, side):
    """H(p) - sum_o S(<o|rho|o>) for each basis in an (N, n, n) stack, p_o the
    blocks' traces: the one-sided entropic objective, from the blocks alone."""
    blocks = _side_blocks(r, u, side)
    nn, n, k = blocks.shape[:3]
    s_joint = entropy_of_spectra(np.linalg.eigvalsh(blocks).reshape(nn, n * k))
    p_marg = np.einsum("nokk->no", blocks).real
    return shannon_bits(np.where(p_marg < 0, 0.0, p_marg), axis=-1) - s_joint


def _compass_information(state, sides, cfg, warm):
    """The compass search of an entropic objective from the given starts."""
    r = state.reshaped()
    if len(sides) == 2:
        return compass_search(TablePolls(r, entropic._retained_information),
                              (state.dim_a, state.dim_b), cfg, warm)
    return maximize_over_bases(lambda u: _one_sided_information(r, u, sides[0]),
                               (r.shape["AB".index(sides[0])],), cfg, warm)
