"""The Koashi-Winter reference for the one-sided entropic discord of a
two-qubit state of rank <= 2 (Koashi & Winter, PRA 69, 022309 (2004);
Wootters, PRL 80, 2245 (1998)).

Purify rho_AB by a qubit C. Measuring A by the best POVM leaves
S(A) - S(AB) + E_f(rho_BC), and E_f of a two-qubit state has Wootters'
closed form. The projective discord that the library searches is never
below it.
"""

import numpy as np

import twodiscord as td
from twodiscord.states import PAULI

_YY = np.kron(PAULI[1], PAULI[1])


def purification(rho: np.ndarray) -> np.ndarray:
    """A (2, 2, 2) tensor psi[a, b, c] with tr_C |psi><psi| = rho, for a
    two-qubit rho of rank <= 2: sum_k sqrt(w_k) |v_k> |k> over its top two
    eigenpairs."""
    w, v = np.linalg.eigh(rho)
    return (v[:, 2:] * np.sqrt(np.maximum(w[2:], 0.0))).reshape(2, 2, 2)


def concurrence(rho: np.ndarray) -> float:
    """Wootters' concurrence: max(0, l1 - l2 - l3 - l4), l_i the decreasing
    square roots of the spectrum of rho (Y x Y) rho* (Y x Y)."""
    ev = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY).real
    lam = np.sqrt(np.sort(np.maximum(ev, 0.0))[::-1])
    return max(0.0, lam[0] - lam[1:].sum())


def entanglement_of_formation(rho: np.ndarray) -> float:
    """E_f = h((1 + sqrt(1 - C^2)) / 2) in bits, C the concurrence."""
    p = 0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - concurrence(rho) ** 2)))
    return float(sum(-q * np.log2(q) for q in (p, 1.0 - p) if q > 0.0))


def koashi_winter_bound(state: td.BipartiteState, side: str) -> float:
    """S(side) - S(AB) + E_f of the unmeasured side with the purifying qubit."""
    psi = purification(state.entries)
    rest = "abc,ade->bcde" if side == "A" else "abc,dbe->acde"
    rho_rest = np.einsum(rest, psi, psi.conj()).reshape(4, 4)
    return (td.entropy(td.partial_trace(state, side)) - td.entropy(state.rho)
            + entanglement_of_formation(rho_rest))
