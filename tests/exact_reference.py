"""Exact discords of three families of states, references for every search.

- Werner and isotropic m x m states: measured in any basis {a}, every
  conditional state m <a|rho|a> has the same spectrum c, and the two-sided
  table is affine in the doubly stochastic |<a_i|b_j>|^2, so its entropy is
  least at a permutation. Hence D_A = D_B = D_AB = log2 m + H(c) - S(rho).
  See also Chitambar, PRA 86, 032110 (2012).
- Pure states with Schmidt coefficients lambda: every entropic discord is
  S(rho_A) = H(lambda), and every geometric one is 1 - sum lambda^2 (Luo &
  Fu, PRA 82, 034302 (2010); the product of the Schmidt bases attains the
  one-sided value two-sided).
- Classical-quantum states sum_i p_i |a_i><a_i| x rho_i: measuring the
  classical side in {a_i} moves nothing, so both of its one-sided discords
  are 0, and the two-sided geometric discord is the quantum side's. For a
  qubit, rho_i = (I + r_i.sigma)/2, that is
  min_n sum_i p_i^2 (|r_i|^2 - (r_i.n)^2)/2 = (tr M - lambda_max(M))/2 with
  M = sum_i p_i^2 r_i r_i^t.

Each state can be put in Haar-random local frames U x V
(``in_random_frames``), which move no discord; in the computational frame
a warm start is already optimal.
"""

import numpy as np

import twodiscord as td
from twodiscord.measurement import haar_unitary
from twodiscord.states import PAULI


def shannon_oracle(probs) -> float:
    """-sum p log2 p over the entries above 1e-14."""
    probs = np.asarray(probs, dtype=float)
    probs = probs[probs > 1e-14]
    return float(-np.sum(probs * np.log2(probs)))


def family_entropic_discord(family: str, m: int, x: float) -> float:
    """log2 m + H(c) - S(rho): D_A = D_B = D_AB of ``family``(m, x).

    ``family``(m, x) is alpha I + beta X, X the swap (Werner) or m times the
    maximally entangled projector (isotropic), with spectrum w; every
    conditional state has spectrum c.
    """
    if family == "werner":
        alpha, beta = (m - x) / (m**3 - m), (m * x - 1) / (m**3 - m)
        w = np.repeat([alpha + beta, alpha - beta], [m * (m + 1) // 2, m * (m - 1) // 2])
    else:
        alpha, beta = (1 - x) / (m**2 - 1), (m**2 * x - 1) / (m**2 - 1) / m
        w = np.repeat([alpha + m * beta, alpha], [1, m * m - 1])
    c = np.repeat([m * (alpha + beta), m * alpha], [1, m - 1])
    return float(np.log2(m)) + shannon_oracle(c) - shannon_oracle(w)


def pure_state(schmidt, ua, ub) -> td.BipartiteState:
    """sum_i sqrt(schmidt_i) ua[:, i] x ub[:, i]; ``schmidt`` sums to 1 and
    has min(na, nb) entries."""
    k = len(schmidt)
    psi = ((ua[:, :k] * np.sqrt(schmidt)) @ ub[:, :k].T).reshape(-1)
    return td.make_bipartite(np.outer(psi, psi.conj()), len(ua), len(ub))


def pure_entropic_discord(schmidt) -> float:
    """S(rho_A) = H(schmidt)."""
    return shannon_oracle(schmidt)


def pure_geometric_discord(schmidt) -> float:
    """1 - sum schmidt^2."""
    return float(1.0 - np.sum(np.square(schmidt)))


def classical_quantum(p, classical, states, quantum: str) -> td.BipartiteState:
    """sum_i p_i |a_i><a_i| x states[i], the states on side ``quantum``;
    ``classical`` holds the basis a_i as columns."""
    n, m = len(classical), states.shape[-1]
    proj = np.einsum("ai,bi->iab", classical, classical.conj())
    pair = "i,iac,ibd->abcd" if quantum == "B" else "i,ibd,iac->abcd"
    rho = np.einsum(pair, p, proj, states)
    dims = (n, m) if quantum == "B" else (m, n)
    return td.make_bipartite(rho.reshape(n * m, n * m), *dims)


def classical_quantum_geometric_discord(p, qubits) -> float:
    """(tr M - lambda_max(M))/2, M = sum_i p_i^2 r_i r_i^t with r_i the Bloch
    vector of the qubit state ``qubits[i]``: the qubit side's one-sided and
    the two-sided geometric discord."""
    r = np.einsum("iab,kba->ik", qubits, PAULI).real
    m = np.einsum("i,ia,ib->ab", np.square(p), r, r)
    return float(0.5 * (np.trace(m) - np.linalg.eigvalsh(m)[-1]))


def in_random_frames(state: td.BipartiteState, rng) -> td.BipartiteState:
    """(U x V) rho (U x V)^dag for Haar unitaries U, then V, drawn from ``rng``."""
    w = np.kron(haar_unitary(rng, state.dim_a), haar_unitary(rng, state.dim_b))
    return td.make_bipartite(w @ state.entries @ w.conj().T, state.dim_a, state.dim_b)
