"""Validated density matrices, tensor-product structure and named state families.

The composite index convention is A-major throughout: basis vector
``|alpha beta>`` of the bipartite space sits at row ``alpha * dim_b + beta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidDistributionError,
    NonHermitianError,
    NonUnitTraceError,
    NotPositiveSemidefiniteError,
    NumericalResidueError,
)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
# the largest imaginary part a computed real quantity may carry (``_real``)
RESIDUE_TOL = 1e-10


def _freeze(a):
    """A private read-only C-contiguous copy of ``a``. Every read-only array
    of the package is made here, so no object shares its caller's memory."""
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


def _real(z, what: str) -> np.ndarray:
    """The real part of ``z``, real up to rounding: raises NumericalResidueError,
    naming the quantity ``what``, when an imaginary part exceeds ``RESIDUE_TOL``."""
    residue = np.abs(z.imag).max()
    if residue > RESIDUE_TOL:
        raise NumericalResidueError(f"{what} have imaginary residue {residue:.3e}")
    return z.real


PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
# PAULI_PRODUCTS[i, j] = sigma_i x sigma_j with sigma_0 = I, a (4, 4, 4, 4) stack
_SIGMA = np.concatenate([np.eye(2, dtype=complex)[None], PAULI])
PAULI_PRODUCTS = _freeze(np.einsum("iac,jbd->ijabcd", _SIGMA, _SIGMA).reshape(4, 4, 4, 4))


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite complex matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        # finite entries near the float range may overflow in these two checks,
        # which then fail on the inf they produce, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
                raise NonHermitianError(
                    f"matrix deviates from its conjugate transpose by "
                    f"{np.max(np.abs(m - m.conj().T)):.3e}"
                )
            tr = np.trace(m)
            if abs(tr - 1.0) > TRACE_TOL:
                raise NonUnitTraceError(f"trace is {tr}, expected 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_TOL:
            raise NotPositiveSemidefiniteError(f"minimum eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class BipartiteState:
    """A density matrix on a tensor product space with recorded subsystem dims."""

    dim_a: int
    dim_b: int
    rho: DensityMatrix

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionMismatchError("subsystem dimensions must be positive")
        if self.dim_a * self.dim_b != self.rho.dim:
            raise DimensionMismatchError(
                f"dims ({self.dim_a}, {self.dim_b}) do not factor matrix of "
                f"size {self.rho.dim}"
            )

    @property
    def entries(self) -> np.ndarray:
        return self.rho.entries

    @property
    def dim(self) -> int:
        return self.rho.dim

    def reshaped(self) -> np.ndarray:
        """Entries as a (dim_a, dim_b, dim_a, dim_b) tensor (row, row, col, col)."""
        na, nb = self.dim_a, self.dim_b
        return self.entries.reshape(na, nb, na, nb)


@dataclass(frozen=True)
class TwoQubitBloch:
    """Local Bloch vectors and correlation tensor of a two-qubit state."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        t = np.asarray(self.t, dtype=float)
        if x.shape != (3,) or y.shape != (3,) or t.shape != (3, 3):
            raise DimensionMismatchError("expected 3-vectors x, y and a 3x3 matrix t")
        if not all(np.isfinite(v).all() for v in (x, y, t)):
            raise DomainError("Bloch data must be finite")
        if np.linalg.norm(x) > 1 + PSD_TOL or np.linalg.norm(y) > 1 + PSD_TOL:
            raise NotPositiveSemidefiniteError("a local Bloch vector has norm > 1")
        for name, v in zip("xyt", (x, y, t)):
            object.__setattr__(self, name, _freeze(v))


def make_bipartite(entries, dim_a: int, dim_b: int) -> BipartiteState:
    """Validate a raw matrix as a bipartite state. Asymmetry is an error, never repaired."""
    entries = np.asarray(entries, dtype=complex)
    if entries.shape != (dim_a * dim_b, dim_a * dim_b):
        raise DimensionMismatchError(
            f"matrix shape {entries.shape} does not match dims ({dim_a}, {dim_b})"
        )
    return BipartiteState(dim_a, dim_b, DensityMatrix(entries))


def _check_side(side: str):
    if side not in ("A", "B"):
        raise DomainError(f"side must be 'A' or 'B', got {side!r}")


def partial_trace(state: BipartiteState, keep: str) -> DensityMatrix:
    """Reduced density matrix of subsystem ``keep`` ('A' or 'B')."""
    _check_side(keep)
    return DensityMatrix(np.einsum("ibjb->ij" if keep == "A" else "aiaj->ij", state.reshaped()))


def tensor(a: DensityMatrix, b: DensityMatrix) -> BipartiteState:
    """Kronecker product of two density matrices, A-major index convention."""
    return BipartiteState(a.dim, b.dim, DensityMatrix(np.kron(a.entries, b.entries)))


def purity(rho: DensityMatrix) -> float:
    m = rho.entries
    return float(np.real(np.einsum("ij,ji->", m, m)))


def swap_operator(m: int) -> np.ndarray:
    """The operator exchanging the two m-dimensional factors: the identity
    with rows k m + l and l m + k exchanged."""
    return np.eye(m * m, dtype=complex)[np.arange(m * m).reshape(m, m).T.ravel()]


def max_entangled_projector(m: int) -> np.ndarray:
    """Projector onto (1/sqrt(m)) sum_k |kk>."""
    v = np.zeros(m * m, dtype=complex)
    v[:: m + 1] = 1.0 / np.sqrt(m)
    return np.outer(v, v.conj())


# family -> the closed interval of its parameter x
FAMILY_DOMAINS = {"werner": (-1.0, 1.0), "isotropic": (0.0, 1.0)}


def _check_family(family: str, m: int, x: float):
    """Reject m < 2 and an x outside the family's domain."""
    if m < 2:
        raise DomainError("m must be >= 2")
    lo, hi = FAMILY_DOMAINS[family]
    if not lo <= x <= hi:
        raise DomainError(f"x must lie in [{lo:g}, {hi:g}], got {x}")


def werner(m: int, x: float) -> BipartiteState:
    """The m x m swap-symmetric one-parameter family, x in [-1, 1]."""
    _check_family("werner", m, x)
    ident = np.eye(m * m, dtype=complex)
    f = swap_operator(m)
    rho = (m - x) / (m**3 - m) * ident + (m * x - 1) / (m**3 - m) * f
    return make_bipartite(rho, m, m)


def isotropic(m: int, x: float) -> BipartiteState:
    """The m x m maximally-entangled-projector family, x in [0, 1]."""
    _check_family("isotropic", m, x)
    ident = np.eye(m * m, dtype=complex)
    mm = max_entangled_projector(m)
    rho = (1 - x) / (m**2 - 1) * ident + (m**2 * x - 1) / (m**2 - 1) * mm
    return make_bipartite(rho, m, m)


def bell_state() -> BipartiteState:
    """The projector onto (|00> + |11>)/sqrt(2)."""
    return isotropic(2, 1.0)


def from_bloch(b: TwoQubitBloch) -> BipartiteState:
    """Reconstruct the two-qubit state with local vectors (x, y) and tensor T."""
    c = np.block([[np.ones((1, 1)), b.y[None]], [b.x[:, None], b.t]])
    return make_bipartite(np.einsum("ij,ijab->ab", c, PAULI_PRODUCTS) / 4.0, 2, 2)


def to_bloch(state: BipartiteState) -> TwoQubitBloch:
    """Extract (x, y, T) from a (2, 2) state by the Pauli traces tr(rho sigma_i x sigma_j)."""
    if (state.dim_a, state.dim_b) != (2, 2):
        raise DimensionMismatchError("to_bloch requires dims (2, 2)")
    c = _real(np.einsum("ba,ijab->ij", state.entries, PAULI_PRODUCTS), "Pauli traces")
    return TwoQubitBloch(c[1:, 0], c[0, 1:], c[1:, 1:])


def classical_classical(p, basis_a, basis_b) -> BipartiteState:
    """sum_ab p[a, b] |alpha><alpha| x |beta><beta| in the given bases.

    The result is invariant under two-sided dephasing in the same bases.
    """
    p = np.asarray(p, dtype=float)
    na, nb = basis_a.dim, basis_b.dim
    if p.shape != (na, nb):
        raise DimensionMismatchError(f"table shape {p.shape} does not match bases")
    if np.any(p < 0) or abs(p.sum() - 1.0) > TRACE_TOL:
        raise InvalidDistributionError("entries must be nonnegative and sum to 1")
    w = np.kron(basis_a.vectors, basis_b.vectors)
    rho = (w * p.reshape(-1)) @ w.conj().T
    return make_bipartite(rho, na, nb)


def _ginibre_matrix(rng, rows: int, cols: int) -> np.ndarray:
    """A complex Ginibre matrix: real and imaginary parts standard normal."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _ginibre(rng, d: int, rank: int) -> np.ndarray:
    """G G^dag / tr for a complex d x rank Ginibre matrix G drawn from ``rng``."""
    g = _ginibre_matrix(rng, d, rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state(dim_a: int, dim_b: int, rank: int, seed: int) -> BipartiteState:
    """Seeded Ginibre construction G G^dag / tr, deterministic given seed."""
    d = dim_a * dim_b
    if not 1 <= rank <= d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    return make_bipartite(_ginibre(np.random.default_rng(seed), d, rank), dim_a, dim_b)
