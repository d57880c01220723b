import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twodiscord as td
from twodiscord import OptimizerConfig, optimize
from twodiscord.geometric import measurement_matrix
from twodiscord.optimize import search_bases
from twodiscord.verification import (
    TOLERANCES,
    random_basis,
    random_bipartite,
    random_classical_classical,
    random_product_measurement,
    random_product_state,
    random_zero_marginal_two_qubit,
)

CFG = OptimizerConfig(restarts=16, seed=0)


class TestOperatorBasis:
    def test_qubit_basis_is_scaled_paulis(self):
        from twodiscord.states import PAULI

        ops = td.hermitian_operator_basis(2).operators
        np.testing.assert_allclose(ops[0], np.eye(2) / np.sqrt(2), atol=1e-15)
        want = np.array([PAULI[0], PAULI[1], PAULI[2]]) / np.sqrt(2)
        # symmetric, antisymmetric, diagonal order maps onto sigma_x, sigma_y, sigma_z
        np.testing.assert_allclose(ops[1:], want, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_gram_is_identity(self, d):
        ops = td.hermitian_operator_basis(d).operators
        gram = np.einsum("iab,jba->ij", ops, ops).real
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-13)

    def test_reconstructs_random_hermitian(self):
        rng = np.random.default_rng(0)
        ops = td.hermitian_operator_basis(3).operators
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = g + g.conj().T
        coeffs = np.einsum("ab,iba->i", h, ops)
        np.testing.assert_allclose(np.einsum("i,iab->ab", coeffs, ops), h, atol=1e-10)

    def test_built_once_per_dimension(self):
        basis = td.hermitian_operator_basis(3)
        assert td.hermitian_operator_basis(3) is basis
        with pytest.raises(ValueError):
            basis.operators[0, 0, 0] = 0.0

    def test_dimension_one_is_the_single_operator_one(self):
        np.testing.assert_array_equal(td.hermitian_operator_basis(1).operators, [[[1.0]]])
        with pytest.raises(td.DomainError, match=r"^dim must be >= 1$"):
            td.hermitian_operator_basis(0)

    def test_rejects_non_orthonormal(self):
        ops = td.hermitian_operator_basis(2).operators.copy()
        ops[1] = ops[2]
        with pytest.raises(td.DomainError):
            td.HermitianOperatorBasis(2, ops)


class TestCorrelationMatrix:
    def test_maximally_mixed_single_entry(self):
        c = td.correlation_matrix(td.make_bipartite(np.eye(4) / 4, 2, 2)).c
        want = np.zeros((4, 4))
        want[0, 0] = 0.5
        np.testing.assert_allclose(c, want, atol=1e-14)

    def test_bell_diagonal(self):
        c = td.correlation_matrix(td.bell_state()).c
        np.testing.assert_allclose(c, np.diag([0.5, 0.5, -0.5, 0.5]), atol=1e-14)

    def test_product_state_rank_one(self):
        rng = np.random.default_rng(1)
        c = td.correlation_matrix(random_product_state(rng, 2, 3)).c
        assert np.linalg.matrix_rank(c, tol=1e-10) == 1

    def test_norm_is_purity(self):
        rng = np.random.default_rng(2)
        st = random_bipartite(rng, 2, 3)
        cd = td.correlation_matrix(st)
        assert np.sum(cd.c * cd.c) == pytest.approx(td.purity(st.rho), abs=1e-12)


class TestMeasurementMatrix:
    def test_computational_qubit_rows(self):
        a = measurement_matrix(td.computational_basis(2), td.hermitian_operator_basis(2))
        want = np.array([[1, 0, 0, 1], [1, 0, 0, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(a, want, atol=1e-14)

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(3)
        a = measurement_matrix(random_basis(rng, 3), td.hermitian_operator_basis(3))
        np.testing.assert_allclose(a @ a.T, np.eye(3), atol=1e-12)


class TestPurityForms:
    def test_bell_dephased_purity(self):
        m = td.ProductMeasurement(td.computational_basis(2), td.computational_basis(2))
        assert td.dephased_purity(td.bell_state(), m) == pytest.approx(0.5, abs=1e-14)

    def test_objective_matches_dephased_purity(self):
        rng = np.random.default_rng(4)
        st = random_bipartite(rng, 2, 3)
        m = random_product_measurement(rng, 2, 3)
        cd = td.correlation_matrix(st)
        a = measurement_matrix(m.basis_a, td.hermitian_operator_basis(2))
        b = measurement_matrix(m.basis_b, td.hermitian_operator_basis(3))
        assert td.objective27(cd, a, b) == pytest.approx(
            td.dephased_purity(st, m), abs=1e-12
        )

    def test_dephased_purity_matches_distribution(self):
        rng = np.random.default_rng(5)
        st = random_bipartite(rng, 2, 2)
        m = random_product_measurement(rng, 2, 2)
        p = td.diagonal_distribution(st, m)
        assert td.dephased_purity(st, m) == pytest.approx(float(np.sum(p * p)), abs=1e-12)

    def test_hs_distance_values(self):
        st00 = td.tensor(td.DensityMatrix(np.diag([1.0, 0.0])),
                         td.DensityMatrix(np.diag([1.0, 0.0])))
        st01 = td.tensor(td.DensityMatrix(np.diag([1.0, 0.0])),
                         td.DensityMatrix(np.diag([0.0, 1.0])))
        assert td.hs_distance_sq(st00, st00) == pytest.approx(0.0)
        assert td.hs_distance_sq(st00, st01) == pytest.approx(2.0)
        mm = td.make_bipartite(np.eye(4) / 4, 2, 2)
        assert td.hs_distance_sq(td.bell_state(), mm) == pytest.approx(0.75)


class TestClosedForms:
    def test_werner_values(self):
        assert td.werner_geo_closed(2, -1.0) == pytest.approx(0.5)
        assert td.werner_geo_closed(3, 1.0) == pytest.approx(1 / 24)
        for m in (2, 3, 5):
            assert td.werner_geo_closed(m, 1.0 / m) == pytest.approx(0.0, abs=1e-15)

    def test_isotropic_values(self):
        assert td.isotropic_geo_closed(2, 1.0) == pytest.approx(0.5)
        assert td.isotropic_geo_closed(3, 0.0) == pytest.approx(1 / 96)
        assert td.isotropic_geo_closed(3, 1.0) == pytest.approx(2 / 3)
        for m in (2, 3, 5):
            assert td.isotropic_geo_closed(m, 1.0 / m**2) == pytest.approx(0.0, abs=1e-15)


class TestLowerBounds:
    def test_bell_two_sided(self):
        cd = td.correlation_matrix(td.bell_state())
        assert td.lower_bound_two_sided(cd) == pytest.approx(0.5, abs=1e-12)
        assert td.lower_bound_one_sided(cd, "A") == pytest.approx(0.5, abs=1e-12)

    def test_pure_product_zero(self):
        st00 = td.tensor(td.DensityMatrix(np.diag([1.0, 0.0])),
                         td.DensityMatrix(np.diag([1.0, 0.0])))
        cd = td.correlation_matrix(st00)
        assert td.lower_bound_two_sided(cd) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_zero(self):
        cd = td.correlation_matrix(td.make_bipartite(np.eye(4) / 4, 2, 2))
        assert td.lower_bound_two_sided(cd) == pytest.approx(0.0, abs=1e-14)

    def test_rectangular_ordering(self):
        # side-B subtracts more top eigenvalues than side-A when n_A < n_B, so
        # its bound is smaller; the two-sided bound uses min(n_A, n_B) = n_A
        rng = np.random.default_rng(6)
        st = random_bipartite(rng, 2, 3)
        cd = td.correlation_matrix(st)
        assert td.lower_bound_one_sided(cd, "A") >= td.lower_bound_one_sided(cd, "B") - 1e-14
        assert td.lower_bound_two_sided(cd) == pytest.approx(
            td.lower_bound_one_sided(cd, "A"), abs=1e-14
        )


class TestGeoDiscord:
    def test_bell_two_sided(self):
        assert td.geo_discord_two_sided(td.bell_state(), CFG).value == pytest.approx(
            0.5, abs=1e-6
        )

    def test_classical_classical_zero(self):
        rng = np.random.default_rng(7)
        st = random_classical_classical(rng, 2, 2)
        assert td.geo_discord_two_sided(st, CFG).value <= 1e-8

    def test_werner_and_isotropic_spot_values(self):
        got = td.geo_discord_two_sided(td.werner(2, -1.0), CFG).value
        assert got == pytest.approx(0.5, abs=1e-6)
        got = td.geo_discord_two_sided(td.isotropic(3, 1.0), CFG).value
        assert got == pytest.approx(2 / 3, abs=1e-6)

    def test_one_sided_bell(self):
        assert td.geo_discord_one_sided(td.bell_state(), "A", CFG).value == pytest.approx(
            0.5, abs=1e-6
        )

    def test_one_sided_werner_matches_two_sided_form(self):
        # for this family the one-sided and two-sided geometric discords agree
        for x in (-1.0, 0.1, 0.8):
            got = td.geo_discord_one_sided(td.werner(2, x), "A", CFG).value
            assert got == pytest.approx((2 * x - 1) ** 2 / 18, abs=1e-6)

    def test_one_sided_classical_zero(self):
        rng = np.random.default_rng(8)
        from twodiscord.verification import random_density

        blocks = [random_density(rng, 2).entries for _ in range(2)]
        rho = np.zeros((4, 4), dtype=complex)
        for a, p in enumerate((0.35, 0.65)):
            rho[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = p * blocks[a]
        st = td.make_bipartite(rho, 2, 2)
        assert abs(td.geo_discord_one_sided(st, "A", CFG).value) <= 1e-8

    def test_result_brackets(self):
        rng = np.random.default_rng(9)
        st = random_bipartite(rng, 2, 2, rank=3)
        res = td.geo_discord_two_sided(st, CFG)
        assert res.value >= res.lower_bound - 1e-8
        assert res.value <= td.purity(st.rho) + 1e-12


def _one_sided_discord_at(state, basis, side):
    """purity(state) minus its purity after dephasing ``side`` in ``basis``."""
    dephased = td.dephase_one_sided(state, basis, side)
    return td.purity(state.rho) - td.purity(dephased.rho)


# every measured-qubit shape, each drawn at every rank
QUBIT_SIDES = [((2, 2), "A"), ((2, 2), "B"), ((2, 3), "A"), ((2, 4), "A"),
               ((3, 2), "B"), ((4, 2), "B")]


@st.composite
def qubit_side_cases(draw):
    (na, nb), side = draw(st.sampled_from(QUBIT_SIDES))
    rank = draw(st.integers(1, na * nb))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_bipartite(rng, na, nb, rank=rank), side


class TestQubitSideClosedForm:
    """On a measured qubit, geo_discord_one_sided takes the closed form
    tr(G) - G_00 - lambda_max(G[1:, 1:]) (Luo & Fu, PRA 82, 034302 (2010))
    and runs no search."""

    @given(qubit_side_cases())
    @settings(max_examples=40, deadline=None)
    def test_closed_form_meets_the_search(self, case):
        state, side = case
        got = td.geo_discord_one_sided(state, side, CFG).value
        searched = search_bases(state, (side,), CFG, td.purity(state.rho), 0.0).value
        assert got == pytest.approx(searched, abs=1e-10)

    @given(qubit_side_cases())
    @settings(max_examples=40, deadline=None)
    def test_runs_no_search_and_its_basis_attains_the_value(self, case):
        state, side = case

        def no_search(*args, **kwargs):
            raise AssertionError("the qubit-side route ran a search")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "jacobi_search", no_search)
            mp.setattr(optimize, "_start_points", no_search)
            res = td.geo_discord_one_sided(state, side, CFG)
        assert res.value == pytest.approx(
            _one_sided_discord_at(state, res.optimal_measurement, side), abs=1e-12)
        rep = res.optimizer_report
        assert (rep.restarts_run, rep.iterations_total, rep.converged) == (0, 0, True)
        assert rep.best_value == td.purity(state.rho) - res.value
        np.testing.assert_array_equal(rep.best_params[0], res.optimal_measurement.vectors)
        assert res.lower_bound == td.lower_bound_one_sided(td.correlation_matrix(state), side)

    def test_bell(self):
        for side in ("A", "B"):
            res = td.geo_discord_one_sided(td.bell_state(), side, CFG)
            assert res.value == pytest.approx(0.5, abs=1e-15)
            assert res.optimizer_report.restarts_run == 0


class TestQutritSideSearch:
    """On a measured side of dimension 3 or more, geo_discord_one_sided runs
    the one-sided Jacobi search from its warm starts."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dims, side", [((3, 3), "A"), ((3, 3), "B"), ((2, 3), "B")])
    def test_between_the_bound_and_every_warm_start(self, dims, side, seed):
        rng = np.random.default_rng([seed, *dims])
        state = random_bipartite(rng, *dims, rank=int(rng.integers(1, dims[0] * dims[1] + 1)))
        res = td.geo_discord_one_sided(state, side, CFG)
        assert res.optimizer_report.restarts_run == 2 + CFG.restarts
        assert res.value >= td.lower_bound_one_sided(td.correlation_matrix(state), side) - 1e-8
        n = dims[side == "B"]
        eig = np.linalg.eigh(td.partial_trace(state, side).entries)[1]
        for warm in (td.computational_basis(n), td.OrthonormalBasis(eig)):
            assert res.value <= _one_sided_discord_at(state, warm, side) + 1e-12


class TestLargerClosedFormSweeps:
    """The Jacobi sweeps reach the closed forms beyond the acceptance table's m <= 4."""

    POINTS = {"werner": (-1.0, 0.3, 0.9), "isotropic": (0.0, 0.5, 1.0)}

    @pytest.mark.parametrize("m", [5, 6, 8])
    @pytest.mark.parametrize("family", ["werner", "isotropic"])
    def test_matches_closed_form(self, family, m):
        make, closed = getattr(td, family), getattr(td, f"{family}_geo_closed")
        for x in self.POINTS[family]:
            gap = td.geo_discord_two_sided(make(m, x), OptimizerConfig()).value - closed(m, x)
            assert abs(gap) <= TOLERANCES[f"{family}-closed-form"]


class TestTwoQubitGeo:
    def test_zero_tensor(self):
        b = td.TwoQubitBloch(np.array([0.2, 0.0, 0.1]), np.array([0.0, 0.3, 0.0]),
                             np.zeros((3, 3)))
        assert td.two_qubit_geo(b, CFG).value == pytest.approx(0.0, abs=1e-15)

    def test_bell_tensor_case_two(self):
        b = td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        assert td.two_qubit_geo(b, CFG).value == pytest.approx(0.5, abs=1e-12)

    def test_product_tensor(self):
        x = np.array([0.0, 0.0, 0.6])
        y = np.array([0.0, 0.0, 0.8])
        b = td.TwoQubitBloch(x, y, np.outer(x, y))
        assert td.two_qubit_geo(b, CFG).value == pytest.approx(0.0, abs=1e-15)

    def test_matches_generic_optimizer(self):
        rng = np.random.default_rng(10)
        for _ in range(3):
            st = random_zero_marginal_two_qubit(rng)
            closed = td.two_qubit_geo(td.to_bloch(st), CFG).value
            generic = td.geo_discord_two_sided(st, CFG).value
            assert closed == pytest.approx(generic, abs=1e-6)

    @pytest.mark.parametrize("b", [
        td.TwoQubitBloch(np.array([0.2, 0.0, 0.1]), np.array([0.0, 0.3, 0.0]), np.zeros((3, 3))),
        td.TwoQubitBloch(np.array([0.0, 0.0, 0.6]), np.array([0.0, 0.0, 0.8]),
                         np.outer([0.0, 0.0, 0.6], [0.0, 0.0, 0.8])),
        td.to_bloch(random_zero_marginal_two_qubit(np.random.default_rng(10))),
        td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0])),
        td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.zeros((3, 3))),
    ], ids=["zero-tensor", "product", "zero-marginal", "bell", "maximally-mixed"])
    def test_every_state_runs_the_alternation(self, b):
        assert td.two_qubit_geo(b, CFG).optimizer_report.restarts_run > 0

    def test_objective_values(self):
        b = td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        e3 = np.array([0.0, 0.0, 1.0])
        assert td.two_qubit_geo_objective(b, e3, e3) == pytest.approx(1.0)
        with pytest.raises(td.NotUnitVectorError):
            td.two_qubit_geo_objective(b, 0.5 * e3, e3)

    @pytest.mark.parametrize("bad, error", [
        ([1.0, 0.0], td.DimensionMismatchError),
        ([[1.0, 0.0, 0.0]], td.DimensionMismatchError),
        ([np.nan, 0.0, 0.0], td.NotUnitVectorError),
        ([0.0, 0.0, 0.5], td.NotUnitVectorError),
    ], ids=["short", "row-matrix", "nan", "not-unit"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_objective_rejects_bad_vectors_like_bloch_basis(self, bad, error, side):
        # the one unit-3-vector rule: the error bloch_basis raises for the same vector
        b = td.to_bloch(td.bell_state())
        e3 = [0.0, 0.0, 1.0]
        with pytest.raises(error):
            td.bloch_basis(bad)
        with pytest.raises(error):
            td.two_qubit_geo_objective(b, *((bad, e3) if side == "a" else (e3, bad)))
