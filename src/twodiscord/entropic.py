"""Von Neumann entropy, mutual information, and the entropic discords under
one- and two-sided projective measurements. All values are in bits.

Both discords maximize a retained information over measurement bases by
``optimize.search_bases`` on ``RETAINED_INFORMATION``. In one Givens plane
the moved rows of the dephased table, or the moved blocks of the measured
side, are a +- X with X linear in a unit 3-vector v; the objective moves by
phi(a + X) + phi(a - X), whose closed-form derivatives in v drive the plane
solve's Newton step (``optimize.plane_ascent``). Every entropy here and in
``verification`` is built on ``plogp``, the one floor for 0 log 0.
"""

from __future__ import annotations

import numpy as np

from .measurement import ProductMeasurement, dephase_one_sided, diagonal_distribution
from .optimize import (
    DiscordValue,
    OptimizerConfig,
    PlaneObjective,
    plane_ascent,
    search_bases,
)
from .states import BipartiteState, DensityMatrix, _check_side, partial_trace

EIG_FLOOR = 1e-14


def plogp(p: np.ndarray, out=None) -> np.ndarray:
    """p log2 p elementwise, 0 where p < ``EIG_FLOOR`` (0 log 0 = 0).

    ``out`` must not alias ``p``: p is read again after ``out`` is written.
    """
    # the bool p < EIG_FLOOR counts as 1, so the max is 1 below the floor and p above it
    safe = np.log2(np.maximum(p, p < EIG_FLOOR, out=out), out=out)
    return np.multiply(safe, p, out=out)


def shannon_bits(p: np.ndarray, axis) -> np.ndarray:
    """-sum p log2 p with the 0 log 0 = 0 convention of ``plogp``."""
    return -np.sum(plogp(p), axis=axis)


def entropy_of_spectra(w: np.ndarray, axis=-1) -> np.ndarray:
    """Entropy in bits from (possibly slightly negative) eigenvalue stacks."""
    w = np.where(w < 0, 0.0, w)
    return shannon_bits(w, axis)


def entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho), with 0 log 0 = 0."""
    w = np.linalg.eigvalsh(rho.entries)
    return float(entropy_of_spectra(w))


def mutual_information(state: BipartiteState) -> float:
    """S(rho_A) + S(rho_B) - S(rho); zero exactly on product states."""
    return (
        entropy(partial_trace(state, "A"))
        + entropy(partial_trace(state, "B"))
        - entropy(state.rho)
    )


def _retained_information(p: np.ndarray) -> np.ndarray:
    """Mutual information of the two-sided-dephased state from its diagonal
    table, for each (na, nb) table in a stack."""
    return (
        shannon_bits(p.sum(axis=-1), axis=-1)
        + shannon_bits(p.sum(axis=-2), axis=-1)
        - shannon_bits(p.reshape(*p.shape[:-2], -1), axis=-1)
    )


def measured_loss_two_sided(state: BipartiteState, m: ProductMeasurement) -> float:
    """Mutual information lost under the two-sided dephasing; never negative."""
    p = diagonal_distribution(state, m)
    return mutual_information(state) - float(_retained_information(p))


def loss_split(state: BipartiteState, m: ProductMeasurement):
    """The loss decomposed into the A-side and B-side dephasing contributions.

    The components sum to measured_loss_two_sided and each is a one-sided
    mutual-information loss, hence nonnegative.
    """
    mid = dephase_one_sided(state, m.basis_a, "A")
    final = dephase_one_sided(mid, m.basis_b, "B")
    loss_a = mutual_information(state) - mutual_information(mid)
    loss_b = mutual_information(mid) - mutual_information(final)
    return loss_a, loss_b


# ---------------------------------------------------------------------------
# the retained information as a Jacobi objective

def _retained_informations(d):
    """The objective of the entropic searches for each table or set of
    blocks in a stack from ``optimize._dephased``.

    Two sides (tables): ``_retained_information``. One side: the sum of
    ``_phi`` over the spectra of the blocks <o|rho~|o> of the measured side,
    H(p) - sum_o S(<o|rho~|o>) with p_o their traces, the negated
    conditional-entropy gap.
    """
    if d.ndim == 3:
        return _retained_information(np.maximum(d, 0.0))
    return _phi(np.linalg.eigvalsh(d)).sum(axis=-1)


def _phi(lam):
    """h(sum lam) - sum h(lam) of each spectrum in a (..., K) stack, h(x) = -x log2 x."""
    lam = np.maximum(lam, 0.0)
    return shannon_bits(lam.sum(axis=-1, keepdims=True), axis=-1) - shannon_bits(lam, axis=-1)


def _phi_derivatives(lam, gh):
    """Gradient (..., 3) and Hessian (..., 3, 3) in v of phi(spectrum of B) along
    B = a + sum_i v_i g_i.

    ``lam`` (..., K) is B's spectrum and ``gh`` the g_i in B's eigenbasis:
    (..., 3, K, K), or (..., 3, K) when B and the g_i are diagonal (rows).
    With h'(x) = -log2 x - 1/ln 2, the first derivatives are
    h'(tr B) tr g_i - sum_l h'(lam_l) gh_i,ll, and by Daleckii-Krein the
    second are h''(tr B) tr g_i tr g_j - Re sum_lm gh_i,lm conj(gh_j,lm) D_lm,
    with D the divided differences of h' over the spectrum; on rows only
    D_ll = h''(lam_l) enters. Eigenvalues below ``EIG_FLOOR`` are raised to it.
    """
    lam = np.maximum(lam, EIG_FLOOR)
    tr = lam.sum(axis=-1)
    rows = gh.ndim == lam.ndim + 1
    diag = gh if rows else np.diagonal(gh, axis1=-2, axis2=-1).real
    tg = diag.sum(axis=-1)
    grad = (diag @ np.log2(lam)[..., None])[..., 0] - np.log2(tr)[..., None] * tg
    if rows:
        dd = -1.0 / (lam * np.log(2.0))
    else:
        # (h'(lam_l) - h'(lam_m)) / (lam_l - lam_m) = -log1p(x) / (x lam_m ln 2),
        # x = lam_l / lam_m - 1
        x = (lam[..., :, None] - lam[..., None, :]) / lam[..., None, :]
        ratio = np.log1p(x) / np.where(x == 0.0, 1.0, x)
        dd = -np.where(x == 0.0, 1.0, ratio) / (lam[..., None, :] * np.log(2.0))
    flat = gh.reshape(*tg.shape, -1)
    hess = (-1.0 / (tr * np.log(2.0)))[..., None, None] * tg[..., :, None] * tg[..., None, :]
    weighted = gh * np.expand_dims(dd, lam.ndim - 1)
    hess -= (weighted.reshape(flat.shape) @ flat.conj().swapaxes(-1, -2)).real
    return grad, hess


def _moved(a, g, v):
    """The blocks a + X and a - X, X = sum_i v_i g_i, for each plane and each
    of C directions: v is (N, C, 3) or a (C, 3) stack shared by the N planes;
    the result is (N, 2, C, ...) (see ``_plane_data``)."""
    n, shape = len(a), a.shape[1:]
    x = (v @ g.reshape(n, 3, -1)).reshape(n, 1, -1, *shape)
    return a[:, None, None] + np.array([1.0, -1.0]).reshape(2, 1, *(1 for _ in shape)) * x


def _plane_value(a, g, v):
    """phi(a + X) + phi(a - X) for each plane and direction: (N, C).

    Two-sided, a and g are table rows, whose entries are their own spectra;
    one-sided, they are blocks, whose spectra come from ``eigvalsh``.
    """
    b = _moved(a, g, v)
    return _phi(b if a.ndim == 2 else np.linalg.eigvalsh(b)).sum(axis=1)


def _plane_derivatives(a, g, v):
    """Gradient (N, 3) and Hessian (N, 3, 3) of ``_plane_value`` at (N, 3) directions v.

    B = a - X moves along -g, so its g in ``_phi_derivatives`` is negated.
    A row is a diagonal block whose eigenbasis is the standard one.
    """
    b = _moved(a, g, v[:, None])[:, :, 0]
    if a.ndim == 2:
        lam, gh = b, np.array([1.0, -1.0])[:, None, None] * g[:, None]
    else:
        lam, q = np.linalg.eigh(b)
        gh = (np.array([1.0, -1.0])[:, None, None, None]
              * (q.conj().swapaxes(-1, -2)[:, :, None] @ g[:, None] @ q[:, :, None]))
    grad, hess = _phi_derivatives(lam, gh)
    return grad.sum(axis=1), hess.sum(axis=1)


def _information_plane(a, g):
    """The plane solve of the retained information: ``plane_ascent`` on
    ``_plane_value``, the part of the objective that one plane moves."""
    return plane_ascent(lambda v: _plane_value(a, g, v), lambda v: _plane_derivatives(a, g, v))


RETAINED_INFORMATION = PlaneObjective(_retained_informations, _information_plane)


# ---------------------------------------------------------------------------
# optimized discords

def discord_one_sided(state: BipartiteState, side: str, cfg: OptimizerConfig,
                      extra_warm_starts=()) -> DiscordValue:
    """S(rho_side) - S(rho) + min over found bases of [S(rho~) - S(rho~_side)].

    A heuristic upper estimate of the true infimum. The basis comes from the
    Jacobi sweeps of ``search_bases`` on ``RETAINED_INFORMATION``.
    """
    _check_side(side)
    total = entropy(partial_trace(state, side)) - entropy(state.rho)
    return search_bases(state, (side,), cfg, total, 0.0, RETAINED_INFORMATION,
                        extra_warm_starts)


def discord_two_sided(state: BipartiteState, cfg: OptimizerConfig) -> DiscordValue:
    """Mutual information minus the best found retained mutual information.

    The bases come from the Jacobi sweeps of ``search_bases`` on
    ``RETAINED_INFORMATION``.
    """
    return search_bases(state, ("A", "B"), cfg, mutual_information(state), 0.0,
                        RETAINED_INFORMATION)
