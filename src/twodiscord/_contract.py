"""Batched contractions and the poll scorer of the entropic searches.

The state is a (na, nb, na, nb) tensor throughout. ``rotated_states`` writes
it in a stack of product bases, as the geometric Jacobi sweeps and
``TablePolls`` need. ``side_blocks_batch`` takes a stack of candidate basis
unitaries, so a one-sided poll is one call. ``TablePolls`` scores the
two-sided entropic polls without building candidate unitaries: a Givens poll
on side A moves only two rows of the dephased table (on side B, two
columns), and those rows follow in closed form from the state in the
current bases.
"""

from __future__ import annotations

import numpy as np

EIG_FLOOR = 1e-14


def _projector_rows(u: np.ndarray) -> np.ndarray:
    """rows[n, o, a c] = conj(u[n, a, o]) u[n, c, o], flattened over (a, c)."""
    n, d, _ = u.shape
    return np.einsum("nao,nco->noac", u.conj(), u).reshape(n, d, d * d)


def side_blocks_batch(r: np.ndarray, u: np.ndarray, side: str) -> np.ndarray:
    """Blocks <o|rho|o> on the measured side for each candidate basis.

    Side A gives (N, na, nb, nb) blocks, side B gives (N, nb, na, na).
    """
    na, nb = r.shape[0], r.shape[1]
    n = u.shape[0]
    if side == "A":
        rm = np.ascontiguousarray(r.transpose(0, 2, 1, 3)).reshape(na * na, nb * nb)
        w = _projector_rows(u).reshape(n * na, na * na)
        return (w @ rm).reshape(n, na, nb, nb)
    rm = np.ascontiguousarray(r.transpose(1, 3, 0, 2)).reshape(nb * nb, na * na)
    w = _projector_rows(u).reshape(n * nb, nb * nb)
    return (w @ rm).reshape(n, nb, na, na)


def rotated_states(r: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """(U_A x U_B)^dag rho (U_A x U_B) for each pair of an (N, na, na) and an
    (N, nb, nb) stack of unitaries, as an (N, na, nb, na, nb) stack."""
    na, nb = r.shape[0], r.shape[1]
    n, d = ua.shape[0], na * nb
    w = (ua[:, :, None, :, None] * ub[:, None, :, None, :]).reshape(n, d, d)
    return (w.conj().transpose(0, 2, 1) @ r.reshape(d, d) @ w).reshape(n, na, nb, na, nb)


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
    """Scores two-sided entropic Givens polls by two-row updates of the dephased table.

    ``score`` maps an (N, na, nb) stack of tables p[alpha, beta] =
    <alpha beta|rho|alpha beta>, negatives clipped to 0, to N values. Per
    round each restart's state is rotated into its current bases once,
    rho~ = (U_A x U_B)^dag rho (U_A x U_B); the base table is diag rho~ and
    the blocks rho~[:, beta, :, beta] (side A) and rho~[alpha, :, alpha, :]
    (side B) give every candidate's two new rows or columns.
    """

    def __init__(self, r: np.ndarray, score):
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


def shannon_bits(p: np.ndarray, axis) -> np.ndarray:
    """-sum p log2 p with the 0 log 0 = 0 convention (floor 1e-14)."""
    safe = np.where(p < EIG_FLOOR, 1.0, p)
    return -np.sum(p * np.log2(safe), axis=axis)


def entropy_of_spectra(w: np.ndarray, axis=-1) -> np.ndarray:
    """Entropy in bits from (possibly slightly negative) eigenvalue stacks."""
    w = np.where(w < 0, 0.0, w)
    return shannon_bits(w, axis)
