"""Hilbert-Schmidt geometric discord: variational forms, the correlation-matrix
objective, spectral lower bounds, and closed forms for the named families."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, DomainError, NumericalResidueError
from .measurement import (
    OrthonormalBasis,
    ProductMeasurement,
    _unit_3vector,
    bloch_basis,
    diagonal_distribution,
)
from .optimize import (
    DiscordValue,
    OptimizationResult,
    OptimizerConfig,
    _alternating_detail,
    _check_extra_warm_starts,
    _check_measured,
    search_bases,
)
from .states import (RESIDUE_TOL, BipartiteState, _check_family, _check_side, _freeze, _real,
                     from_bloch, purity)

GRAM_TOL = 1e-12
COMPLETENESS_TOL = 1e-10


# ---------------------------------------------------------------------------
# operator bases and correlation matrices

@dataclass(frozen=True)
class HermitianOperatorBasis:
    """dim^2 Hermitian matrices, orthonormal under the trace inner product."""

    dim: int
    operators: np.ndarray  # (dim^2, dim, dim)

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        d = self.dim
        if ops.shape != (d * d, d, d):
            raise DimensionMismatchError(f"expected {d * d} {d}x{d} operators")
        if np.max(np.abs(ops - ops.conj().transpose(0, 2, 1))) > GRAM_TOL:
            raise DomainError("operators must be Hermitian")
        gram = np.einsum("iab,jba->ij", ops, ops)
        if np.max(np.abs(gram - np.eye(d * d))) > GRAM_TOL:
            raise DomainError("operators are not orthonormal under the trace inner product")
        # completeness: a fixed pseudo-random Hermitian must be reconstructed
        rng = np.random.default_rng(7919 * d + 11)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        coeffs = np.einsum("ab,iba->i", h, ops)
        recon = np.einsum("i,iab->ab", coeffs, ops)
        if np.max(np.abs(recon - h)) > COMPLETENESS_TOL:
            raise DomainError("operators do not span the Hermitian matrices")
        object.__setattr__(self, "operators", _freeze(ops))


@lru_cache(maxsize=16)
def hermitian_operator_basis(dim: int) -> HermitianOperatorBasis:
    """Identity over sqrt(dim), then normalized generalized Gell-Mann matrices.

    Fixed order: symmetric pairs (j < k, row-major), antisymmetric pairs
    (same order), then the dim-1 diagonal matrices. For dim 2 this is exactly
    {I, sigma_1, sigma_2, sigma_3}/sqrt(2); for dim 1 it is the single [[1]].
    Each dimension's basis is built and validated once and shared: the
    dataclass is frozen and its operators are read-only.
    """
    if dim < 1:
        raise DomainError("dim must be >= 1")
    ops = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            ops.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            ops.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        ops.append(m / np.sqrt(l * (l + 1)))
    return HermitianOperatorBasis(dim, np.array(ops))


@dataclass(frozen=True)
class CorrelationData:
    """Real coefficient matrix of a state in fixed Hermitian operator bases."""

    c: np.ndarray  # (na^2, nb^2)
    basis_a: HermitianOperatorBasis
    basis_b: HermitianOperatorBasis

    @property
    def dim_a(self) -> int:
        return self.basis_a.dim

    @property
    def dim_b(self) -> int:
        return self.basis_b.dim


def correlation_matrix(state: BipartiteState) -> CorrelationData:
    """C_ij = tr(rho (X_i x Y_j)) in the ``hermitian_operator_basis`` of each
    side; tr(C C^t) equals the state's purity."""
    basis_a = hermitian_operator_basis(state.dim_a)
    basis_b = hermitian_operator_basis(state.dim_b)
    r = state.reshaped()
    c = np.einsum("abcd,ica,jdb->ij", r, basis_a.operators, basis_b.operators, optimize=True)
    c = _real(c, "correlation coefficients")
    if abs(np.sum(c * c) - purity(state.rho)) > RESIDUE_TOL:
        raise NumericalResidueError("tr(CC^t) deviates from the state's purity")
    return CorrelationData(c, basis_a, basis_b)


def measurement_matrix(basis: OrthonormalBasis, ops: HermitianOperatorBasis) -> np.ndarray:
    """Rows are the operator-basis coefficient vectors of the projectors |a><a|."""
    if basis.dim != ops.dim:
        raise DimensionMismatchError("basis and operator basis dims differ")
    u = basis.vectors
    return _real(np.einsum("da,idc,ca->ai", u.conj(), ops.operators, u), "projector coefficients")


def objective27(cd: CorrelationData, a_mat: np.ndarray, b_mat: np.ndarray) -> float:
    """tr(A C B^t B C^t A^t): the retained purity for the bases behind A and B."""
    a_mat = np.asarray(a_mat, dtype=float)
    b_mat = np.asarray(b_mat, dtype=float)
    na, nb = cd.dim_a, cd.dim_b
    if a_mat.shape != (na, na * na) or b_mat.shape != (nb, nb * nb):
        raise DimensionMismatchError("A/B matrices do not conform with C")
    m = a_mat @ cd.c @ b_mat.T
    return float(np.sum(m * m))


# ---------------------------------------------------------------------------
# distances and dephased purities

def hs_distance_sq(r1: BipartiteState, r2: BipartiteState) -> float:
    """tr[(rho1 - rho2)^2]."""
    if (r1.dim_a, r1.dim_b) != (r2.dim_a, r2.dim_b):
        raise DimensionMismatchError("states live on different spaces")
    d = r1.entries - r2.entries
    return float(np.sum(np.abs(d) ** 2))


def dephased_purity(state: BipartiteState, m: ProductMeasurement) -> float:
    """Purity of the two-sided dephasing, sum of squared diagonal probabilities."""
    p = diagonal_distribution(state, m)
    return float(np.sum(p * p))


# ---------------------------------------------------------------------------
# closed forms

def werner_geo_closed(m: int, x: float) -> float:
    """(mx - 1)^2 / (m (m-1) (m+1)^2); zero exactly at x = 1/m."""
    _check_family("werner", m, x)
    return (m * x - 1) ** 2 / (m * (m - 1) * (m + 1) ** 2)


def isotropic_geo_closed(m: int, x: float) -> float:
    """(m^2 x - 1)^2 / (m (m-1) (m+1)^2); zero exactly at x = 1/m^2."""
    _check_family("isotropic", m, x)
    return (m**2 * x - 1) ** 2 / (m * (m - 1) * (m + 1) ** 2)


# ---------------------------------------------------------------------------
# spectral lower bounds

def _spectral_bound(cd: CorrelationData, k: int) -> float:
    """tr(CC^t) minus the top k eigenvalues of CC^t."""
    lam = np.linalg.eigvalsh(cd.c @ cd.c.T)[::-1]
    return float(np.sum(lam) - np.sum(lam[:k]))


def lower_bound_two_sided(cd: CorrelationData) -> float:
    """tr(CC^t) minus the top min(n_A, n_B) eigenvalues of CC^t."""
    return _spectral_bound(cd, min(cd.dim_a, cd.dim_b))


def lower_bound_one_sided(cd: CorrelationData, side: str) -> float:
    """tr(CC^t) minus the top n_A (side A) or n_B (side B) eigenvalues."""
    _check_side(side)
    return _spectral_bound(cd, cd.dim_a if side == "A" else cd.dim_b)


# ---------------------------------------------------------------------------
# optimized geometric discords

# code that imports GeoResult gets the one result type of every discord
GeoResult = DiscordValue


def geo_discord_two_sided(state: BipartiteState, cfg: OptimizerConfig) -> DiscordValue:
    """purity(state) minus the best found two-sided dephased purity.

    A heuristic upper estimate of the true infimum; the returned lower bound
    brackets it from below. No inner optimization over the classical
    probabilities is needed: for fixed bases the closest classical state is
    the dephased state itself (quadratic completion). The bases come from
    the exact Jacobi sweeps of ``search_bases``.
    """
    bound = lower_bound_two_sided(correlation_matrix(state))
    return search_bases(state, ("A", "B"), cfg, purity(state.rho), bound)


def geo_discord_one_sided(state: BipartiteState, side: str, cfg: OptimizerConfig,
                          extra_warm_starts=()) -> DiscordValue:
    """purity(state) minus the best found one-sided dephased purity.

    On a measured qubit the value is exact, with no search: in the operator
    basis {I, sigma}/sqrt(2) the basis of Bloch direction n retains
    G_00 + n^t G' n of the purity tr(G), with G = C C^t (C^t C for side B)
    and G' = G[1:, 1:], so D = tr(G) - G_00 - lambda_max(G'), attained at
    the top eigenvector n of G' (Luo & Fu, PRA 82, 034302 (2010)). The
    report then has no restarts and no iterations, and ``cfg`` and the
    extra warm starts are not used. On a side of dimension 3 or more the
    basis comes from the exact Jacobi sweeps of ``search_bases``.
    """
    _check_side(side)
    n = state.dim_a if side == "A" else state.dim_b
    _check_measured((n,))
    cd = correlation_matrix(state)
    bound, total = lower_bound_one_sided(cd, side), purity(state.rho)
    if n > 2:
        return search_bases(state, (side,), cfg, total, bound, extra=extra_warm_starts)
    _check_extra_warm_starts(state, side, extra_warm_starts)
    g = cd.c @ cd.c.T if side == "A" else cd.c.T @ cd.c
    lam, vec = np.linalg.eigh(g[1:, 1:])
    value = float(np.trace(g) - g[0, 0] - lam[-1])
    basis = bloch_basis(vec[:, -1])
    report = OptimizationResult(total - value, (basis.vectors,), 0, 0, True)
    return DiscordValue(value, basis, bound, report)


# ---------------------------------------------------------------------------
# two-qubit Bloch forms

def two_qubit_geo_objective(b, a, bv) -> float:
    """(a.x)^2 + (b.y)^2 + (a T b)^2 for unit 3-vectors a, b."""
    a, bv = _unit_3vector(a), _unit_3vector(bv)
    return float((a @ b.x) ** 2 + (bv @ b.y) ** 2 + (a @ b.t @ bv) ** 2)


def two_qubit_geo(b, cfg: OptimizerConfig) -> DiscordValue:
    """Two-sided geometric discord of a two-qubit state from its Bloch data.

    Every state runs the multistart alternating eigen-iteration. Its starts
    include the top right singular vector of T, so it reaches the exact
    structures T = 0, T = x y^t and x = y = 0 at its first step.
    """
    state = from_bloch(b)  # PSD check happens here
    total = 0.25 * (b.x @ b.x + b.y @ b.y + np.sum(b.t * b.t))
    report = _alternating_detail(b, cfg)
    m = ProductMeasurement(*map(bloch_basis, report.best_params))
    bound = lower_bound_two_sided(correlation_matrix(state))
    return DiscordValue(float(total - 0.25 * report.best_value), m, bound, report)
