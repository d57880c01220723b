"""Von Neumann entropy, mutual information, and the entropic discords under
one- and two-sided projective measurements. All values are in bits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._contract import TablePolls, entropy_of_spectra, shannon_bits, side_blocks_batch
from .measurement import (
    ProductMeasurement,
    _basis_unchecked,
    _check_side,
    dephase_one_sided,
    diagonal_distribution,
)
from .optimize import (
    OptimizationResult,
    OptimizerConfig,
    compass_search,
    maximize_over_bases,
    warm_start_bases,
)
from .states import BipartiteState, DensityMatrix, partial_trace


@dataclass(frozen=True)
class DiscordValue:
    """A discord value (bits) with the best measurement found."""

    value: float
    optimal_measurement: object  # ProductMeasurement, or OrthonormalBasis for one-sided
    optimizer_report: OptimizationResult


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
# optimized discords

def discord_one_sided(state: BipartiteState, side: str, cfg: OptimizerConfig,
                      extra_warm_starts=()) -> DiscordValue:
    """S(rho_side) - S(rho) + min over found bases of [S(rho~) - S(rho~_side)].

    A heuristic upper estimate of the true infimum.
    """
    _check_side(side)
    n = state.dim_a if side == "A" else state.dim_b
    r = state.reshaped()

    def batch(u):
        blocks = side_blocks_batch(r, u, side)
        nn = blocks.shape[0]
        k = blocks.shape[-1]
        w = np.linalg.eigvalsh(blocks.reshape(nn * n, k, k))
        s_joint = entropy_of_spectra(w.reshape(nn, n * k))
        p_marg = np.einsum("nokk->no", blocks).real
        s_marg = shannon_bits(np.where(p_marg < 0, 0.0, p_marg), axis=-1)
        return s_marg - s_joint  # maximize the negated conditional-entropy gap

    res = maximize_over_bases(
        batch, (n,), cfg, warm_start_bases(state, (side,), extra_warm_starts)
    )
    value = entropy(partial_trace(state, side)) - entropy(state.rho) - res.best_value
    basis = _basis_unchecked(res.best_params[0])
    return DiscordValue(value=float(value), optimal_measurement=basis, optimizer_report=res)


def discord_two_sided(state: BipartiteState, cfg: OptimizerConfig) -> DiscordValue:
    """Mutual information minus the best found retained mutual information."""
    res = compass_search(
        TablePolls(state.reshaped(), _retained_information), (state.dim_a, state.dim_b), cfg,
        warm_start_bases(state, ("A", "B")),
    )
    ua, ub = res.best_params
    value = mutual_information(state) - res.best_value
    return DiscordValue(
        value=float(value),
        optimal_measurement=ProductMeasurement(_basis_unchecked(ua), _basis_unchecked(ub)),
        optimizer_report=res,
    )
