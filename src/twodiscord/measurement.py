"""Orthonormal measurement bases and one-/two-sided dephasing channels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NotUnitVectorError
from .states import (
    PAULI,
    BipartiteState,
    DensityMatrix,
    _check_side,
    _freeze,
    _ginibre_matrix,
    classical_classical,
)

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class OrthonormalBasis:
    """A complete orthonormal basis stored as a unitary; columns are the vectors."""

    vectors: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.vectors, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise DomainError("basis vectors must have finite entries")
        gram = u.conj().T @ u
        if np.max(np.abs(gram - np.eye(u.shape[0]))) > UNITARY_TOL:
            raise DomainError("columns are not orthonormal within tolerance")
        object.__setattr__(self, "vectors", _freeze(u))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def projector(self, alpha: int) -> np.ndarray:
        v = self.vectors[:, alpha]
        return np.outer(v, v.conj())


def haar_unitary(rng, n: int) -> np.ndarray:
    """A Haar-random n x n unitary drawn from the Generator ``rng``."""
    return _haar_from_ginibre(_ginibre_matrix(rng, n, n))


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Ginibre matrices, one or an (..., n, n) stack.

    QR with the phases of R's diagonal moved into Q (Mezzadri, Notices AMS 54
    (2007)); without that fix Q is not Haar.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@dataclass(frozen=True)
class ProductMeasurement:
    """A pair of subsystem bases defining the projectors |a><a| x |b><b|."""

    basis_a: OrthonormalBasis
    basis_b: OrthonormalBasis


def computational_basis(dim: int) -> OrthonormalBasis:
    if dim < 1:
        raise DomainError("dim must be >= 1")
    return OrthonormalBasis(np.eye(dim, dtype=complex))


def _unit_3vector(v) -> np.ndarray:
    """``v`` as a float array, checked to be a real 3-vector of norm 1."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatchError(f"expected a real 3-vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= UNITARY_TOL:  # also rejects NaN
        raise NotUnitVectorError(f"norm is {norm}, expected 1")
    return v


def bloch_basis(a) -> OrthonormalBasis:
    """Qubit basis whose projectors are (I +- a.sigma)/2 for a real unit 3-vector.

    The first column is the +a eigenvector, fixed by the convention
    (cos(theta/2), e^{i phi} sin(theta/2)).
    """
    a = _unit_3vector(a)
    # not arccos(a_z): near a pole a_z rounds to +-1 and the polar angle is lost
    theta = np.arctan2(np.hypot(a[0], a[1]), a[2])
    phi = np.arctan2(a[1], a[0])
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    plus = np.array([c, np.exp(1j * phi) * s])
    minus = np.array([-s, np.exp(1j * phi) * c])
    return OrthonormalBasis(np.column_stack([plus, minus]))


def bloch_vector_of_basis(basis: OrthonormalBasis):
    """Inverse of bloch_basis up to phase: the +a projector's Bloch vector."""
    if basis.dim != 2:
        raise DimensionMismatchError("requires a qubit basis")
    return np.einsum("ab,iba->i", basis.projector(0), PAULI).real


def dephase_one_sided(state: BipartiteState, basis: OrthonormalBasis, side: str) -> BipartiteState:
    """sum_a (Pi_a x I) rho (Pi_a x I) (or the B-side analogue).

    Zeroes the off-diagonal blocks on the measured side in the measurement
    basis; the unmeasured marginal is preserved.
    """
    _check_side(side)
    na, nb = state.dim_a, state.dim_b
    u = basis.vectors
    if basis.dim != (na if side == "A" else nb):
        raise DimensionMismatchError("basis dimension does not match the measured side")
    r = state.reshaped()
    if side == "A":
        # blocks[o] = <o|rho|o>_A, an nb x nb matrix per basis vector o
        blocks = np.einsum("ao,abcd,co->obd", u.conj(), r, u, optimize=True)
        out = np.einsum("ao,obd,co->abcd", u, blocks, u.conj(), optimize=True)
    else:
        blocks = np.einsum("bo,abcd,do->oac", u.conj(), r, u, optimize=True)
        out = np.einsum("bo,oac,do->abcd", u, blocks, u.conj(), optimize=True)
    d = na * nb
    return BipartiteState(na, nb, DensityMatrix(out.reshape(d, d)))


def dephase_two_sided(state: BipartiteState, m: ProductMeasurement) -> BipartiteState:
    """sum_ab Pi_ab rho Pi_ab; diagonal in the product basis."""
    return classical_classical(diagonal_distribution(state, m), m.basis_a, m.basis_b)


def diagonal_distribution(state: BipartiteState, m: ProductMeasurement) -> np.ndarray:
    """The table <alpha beta|rho|alpha beta> >= 0, summing to 1."""
    na, nb = state.dim_a, state.dim_b
    if m.basis_a.dim != na or m.basis_b.dim != nb:
        raise DimensionMismatchError("measurement dims do not match the state")
    ua, ub = m.basis_a.vectors, m.basis_b.vectors
    r = state.reshaped()
    p = np.einsum("ap,bq,abcd,cp,dq->pq", ua.conj(), ub.conj(), r, ua, ub, optimize=True)
    p = np.real(p)
    # round-off may leave residue of order 1e-17 below zero
    return np.where(p < 0, 0.0, p)
