import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twodiscord as td
from twodiscord import entropic, geometric, optimize
from twodiscord.verification import random_bipartite

# every name the package exports; a refactor that drops one breaks its users
PUBLIC_NAMES = (
    "DimensionMismatchError", "DiscordError", "DomainError", "InvalidDistributionError",
    "NonHermitianError", "NonUnitTraceError", "NotPositiveSemidefiniteError",
    "NotUnitVectorError", "NumericalResidueError", "StateFormatError", "BipartiteState",
    "DensityMatrix", "TwoQubitBloch", "bell_state", "classical_classical", "from_bloch",
    "isotropic", "make_bipartite", "partial_trace", "purity", "random_state", "tensor",
    "to_bloch", "werner", "OrthonormalBasis", "ProductMeasurement", "bloch_basis",
    "computational_basis", "dephase_one_sided", "dephase_two_sided", "diagonal_distribution",
    "DiscordValue", "discord_one_sided", "discord_two_sided", "entropy", "loss_split",
    "measured_loss_two_sided", "mutual_information", "CorrelationData", "GeoResult",
    "HermitianOperatorBasis", "correlation_matrix", "dephased_purity", "geo_discord_one_sided",
    "geo_discord_two_sided", "hermitian_operator_basis", "hs_distance_sq",
    "isotropic_geo_closed", "lower_bound_one_sided", "lower_bound_two_sided",
    "measurement_matrix", "objective27", "two_qubit_geo", "two_qubit_geo_objective",
    "werner_geo_closed", "OptimizationResult", "OptimizerConfig", "alternating_sphere_max",
    "sphere_grid_oracle", "load_state", "save_state", "state_from_dict", "state_to_dict",
)

CFG = td.OptimizerConfig(restarts=4, seed=0)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_imports(name):
    exec(f"from twodiscord import {name}", {})


class TestOneResultType:
    def test_one_class_under_every_name(self):
        assert td.GeoResult is td.DiscordValue
        assert geometric.GeoResult is entropic.DiscordValue is optimize.DiscordValue

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_every_discord_returns_it(self, dims):
        state = random_bipartite(np.random.default_rng([41, *dims]), *dims)
        geo = [td.geo_discord_two_sided(state, CFG),
               *(td.geo_discord_one_sided(state, side, CFG) for side in "AB")]
        ent = [td.discord_two_sided(state, CFG),
               *(td.discord_one_sided(state, side, CFG) for side in "AB")]
        if dims == (2, 2):
            geo.append(td.two_qubit_geo(td.to_bloch(state), CFG))
        for res in geo + ent:
            assert type(res) is td.DiscordValue
        for res in geo:
            assert res.value >= res.lower_bound - 1e-8
        for res in ent:
            assert res.lower_bound == 0.0


def _swapped(state):
    """The state on B (x) A: the parties' indices exchanged in rows and columns."""
    na, nb = state.dim_a, state.dim_b
    r = state.reshaped().transpose(1, 0, 3, 2).reshape(na * nb, na * nb)
    return td.make_bipartite(r, nb, na)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_party_swap_exchanges_the_sides(dims):
    # relabelling the parties leaves the two-sided discords unchanged and
    # turns side A's one-sided discords into side B's of the swapped state
    na, nb = dims
    for rank in range(1, na * nb + 1):
        state = random_bipartite(np.random.default_rng([43, na, nb, rank]), na, nb, rank=rank)
        swapped = _swapped(state)
        for two_sided, one_sided in ((td.discord_two_sided, td.discord_one_sided),
                                     (td.geo_discord_two_sided, td.geo_discord_one_sided)):
            assert two_sided(swapped, CFG).value == pytest.approx(
                two_sided(state, CFG).value, abs=1e-9)
            for side, other in ("AB", "BA"):
                assert one_sided(swapped, other, CFG).value == pytest.approx(
                    one_sided(state, side, CFG).value, abs=1e-9)


ONE_DIMENSIONAL_SIDE = r"^a measured side must have dimension >= 2, got 1$"


@pytest.mark.parametrize("dims", [(1, 2), (2, 1)])
def test_every_discord_agrees_on_a_one_dimensional_side(dims):
    # measuring the qubit leaves nothing to lose; every other call measures
    # the one-dimensional side and is refused with one message
    rho = random_bipartite(np.random.default_rng([47, *dims]), 2, 1).entries
    state = td.make_bipartite(rho, *dims)
    qubit, other = ("B", "A") if dims == (1, 2) else ("A", "B")
    for one_sided in (td.geo_discord_one_sided, td.discord_one_sided):
        assert abs(one_sided(state, qubit, CFG).value) <= 1e-15
        with pytest.raises(td.DomainError, match=ONE_DIMENSIONAL_SIDE):
            one_sided(state, other, CFG)
    for two_sided in (td.geo_discord_two_sided, td.discord_two_sided):
        with pytest.raises(td.DomainError, match=ONE_DIMENSIONAL_SIDE):
            two_sided(state, CFG)


def _bases(res):
    m = res.optimal_measurement
    return [m.basis_a, m.basis_b] if isinstance(m, td.ProductMeasurement) else [m]


@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_every_returned_basis_is_unitary(dims, seed):
    rng = np.random.default_rng(seed)
    state = random_bipartite(rng, *dims, rank=int(rng.integers(1, dims[0] * dims[1] + 1)))
    results = [td.geo_discord_two_sided(state, CFG), td.discord_two_sided(state, CFG),
               *(f(state, side, CFG) for side in "AB"
                 for f in (td.geo_discord_one_sided, td.discord_one_sided))]
    if dims == (2, 2):
        results.append(td.two_qubit_geo(td.to_bloch(state), CFG))
    for res in results:
        for basis in _bases(res):
            u = basis.vectors
            assert np.abs(u.conj().T @ u - np.eye(basis.dim)).max() <= 1e-12
