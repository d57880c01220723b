"""Batched contractions and entropies shared by the searches.

The state is a (na, nb, na, nb) tensor throughout. ``rotated_states`` writes
it in a stack of product bases, as every Jacobi sweep needs: each round
reads its plane data (``optimize._plane_data``) from the running starts'
states in their current bases. ``shannon_bits`` and ``entropy_of_spectra``
are the entropies of the entropic objectives, with one floor for 0 log 0.
"""

from __future__ import annotations

import numpy as np

EIG_FLOOR = 1e-14


def rotated_states(r: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """(U_A x U_B)^dag rho (U_A x U_B) for each pair of an (N, na, na) and an
    (N, nb, nb) stack of unitaries, as an (N, na, nb, na, nb) stack."""
    na, nb = r.shape[0], r.shape[1]
    n, d = ua.shape[0], na * nb
    w = (ua[:, :, None, :, None] * ub[:, None, :, None, :]).reshape(n, d, d)
    return (w.conj().transpose(0, 2, 1) @ r.reshape(d, d) @ w).reshape(n, na, nb, na, nb)


def shannon_bits(p: np.ndarray, axis) -> np.ndarray:
    """-sum p log2 p with the 0 log 0 = 0 convention (floor 1e-14)."""
    safe = np.where(p < EIG_FLOOR, 1.0, p)
    return -np.sum(p * np.log2(safe), axis=axis)


def entropy_of_spectra(w: np.ndarray, axis=-1) -> np.ndarray:
    """Entropy in bits from (possibly slightly negative) eigenvalue stacks."""
    w = np.where(w < 0, 0.0, w)
    return shannon_bits(w, axis)
