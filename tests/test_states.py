import numpy as np
import pytest

import twodiscord as td
from twodiscord import (
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    NonUnitTraceError,
    NotPositiveSemidefiniteError,
    NumericalResidueError,
)
from twodiscord.states import (
    FAMILY_DOMAINS,
    PAULI,
    RESIDUE_TOL,
    _real,
    max_entangled_projector,
    swap_operator,
)


def brute_partial_trace(rho, na, nb, keep):
    """Index-loop oracle for the einsum implementation."""
    if keep == "A":
        out = np.zeros((na, na), dtype=complex)
        for i in range(na):
            for j in range(na):
                for b in range(nb):
                    out[i, j] += rho[i * nb + b, j * nb + b]
    else:
        out = np.zeros((nb, nb), dtype=complex)
        for i in range(nb):
            for j in range(nb):
                for a in range(na):
                    out[i, j] += rho[a * nb + i, a * nb + j]
    return out


class TestValidation:
    def test_maximally_mixed_is_valid(self):
        st = td.make_bipartite(np.eye(4) / 4, 2, 2)
        assert st.dim_a == st.dim_b == 2

    def test_bell_projector_is_valid(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        td.make_bipartite(np.outer(v, v), 2, 2)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            td.make_bipartite(np.diag([0.6, 0.6, -0.1, -0.1]), 2, 2)

    def test_non_hermitian_rejected_not_repaired(self):
        m = np.eye(4) / 4
        m[0, 1] = 1e-3
        with pytest.raises(NonHermitianError):
            td.make_bipartite(m, 2, 2)

    def test_wrong_trace_rejected(self):
        with pytest.raises(NonUnitTraceError):
            td.make_bipartite(np.eye(4) / 2, 2, 2)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            td.make_bipartite(np.eye(4) / 4, 2, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(4) / 4
        m[1, 1] = bad
        with pytest.raises(DomainError):
            td.make_bipartite(m, 2, 2)

    def test_non_finite_bloch_rejected(self):
        with pytest.raises(DomainError):
            td.TwoQubitBloch(np.array([np.nan, 0.0, 0.0]), np.zeros(3), np.zeros((3, 3)))


class TestPartialTrace:
    def test_product_state_factors(self):
        a = td.DensityMatrix(np.diag([0.7, 0.3]))
        b = td.DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        st = td.tensor(a, b)
        np.testing.assert_allclose(td.partial_trace(st, "A").entries, a.entries, atol=1e-14)
        np.testing.assert_allclose(td.partial_trace(st, "B").entries, b.entries, atol=1e-14)

    def test_bell_marginal_is_maximally_mixed(self):
        st = td.bell_state()
        np.testing.assert_allclose(
            td.partial_trace(st, "A").entries, np.eye(2) / 2, atol=1e-14
        )

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matches_brute_force(self, dims):
        st = td.random_state(*dims, rank=dims[0] * dims[1], seed=7)
        for keep in "AB":
            np.testing.assert_allclose(
                td.partial_trace(st, keep).entries,
                brute_partial_trace(st.entries, *dims, keep),
                atol=1e-13,
            )

    def test_unknown_side_is_rejected_by_the_side_check(self):
        with pytest.raises(DomainError, match=r"^side must be 'A' or 'B', got 'C'$"):
            td.partial_trace(td.bell_state(), "C")


class TestTensorAndPurity:
    def test_tensor_bookkeeping(self):
        a = td.DensityMatrix(np.diag([1.0, 0.0]))
        b = td.DensityMatrix(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(td.tensor(a, b).entries, np.diag([0, 1, 0, 0]), atol=0)

    def test_tensor_of_mixed(self):
        p = 0.3
        a = td.DensityMatrix(np.diag([p, 1 - p]))
        b = td.DensityMatrix(np.eye(2) / 2)
        np.testing.assert_allclose(
            td.tensor(a, b).entries,
            np.diag([p / 2, p / 2, (1 - p) / 2, (1 - p) / 2]),
            atol=1e-15,
        )

    def test_purity_values(self):
        assert td.purity(td.DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.25)
        assert td.purity(td.bell_state().rho) == pytest.approx(1.0)
        # x=-1, m=2 Werner is the pure singlet
        assert td.purity(td.werner(2, -1.0).rho) == pytest.approx(1.0, abs=1e-12)


class TestWerner:
    def test_swap_expectation_recovers_x(self):
        # the family is parametrized so that tr(rho F) = x
        f = swap_operator(3)
        for x in (-1.0, -0.25, 0.0, 0.8):
            got = np.trace(td.werner(3, x).entries @ f).real
            assert got == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_swap_operator_matches_loop_reference(self, m):
        ref = np.zeros((m * m, m * m), dtype=complex)
        for k in range(m):
            for l in range(m):
                ref[k * m + l, l * m + k] = 1.0
        f = swap_operator(m)
        assert f.dtype == ref.dtype and f.tobytes() == ref.tobytes()

    def test_swap_operator_properties(self):
        f = swap_operator(3)
        np.testing.assert_allclose(f @ f, np.eye(9), atol=0)
        assert np.trace(f).real == pytest.approx(3.0)

    def test_x_half_is_maximally_mixed(self):
        np.testing.assert_allclose(td.werner(2, 0.5).entries, np.eye(4) / 4, atol=1e-15)

    def test_x_minus_one_is_singlet(self):
        singlet = np.zeros(4)
        singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        np.testing.assert_allclose(
            td.werner(2, -1.0).entries, np.outer(singlet, singlet), atol=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            td.werner(2, 1.5)
        with pytest.raises(DomainError):
            td.werner(1, 0.0)


@pytest.mark.parametrize("family, make", [
    ("werner", td.werner), ("isotropic", td.isotropic),
    ("werner", td.werner_geo_closed), ("isotropic", td.isotropic_geo_closed),
])
def test_family_domain_users_share_one_check(family, make):
    lo, hi = FAMILY_DOMAINS[family]
    with pytest.raises(DomainError, match=r"^m must be >= 2$"):
        make(1, lo)
    shown = {"werner": "[-1, 1]", "isotropic": "[0, 1]"}[family]
    for x in (float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))):
        with pytest.raises(DomainError) as err:
            make(2, x)
        assert str(err.value) == f"x must lie in {shown}, got {x}"
    for x in (lo, hi):  # the endpoints belong to the domain
        make(2, x)


class TestIsotropic:
    def test_projector_expectation_recovers_x(self):
        m = max_entangled_projector(3)
        for x in (0.0, 0.3, 1.0):
            got = np.trace(td.isotropic(3, x).entries @ m).real
            assert got == pytest.approx(x, abs=1e-12)

    def test_projector_properties(self):
        m = max_entangled_projector(3)
        np.testing.assert_allclose(m @ m, m, atol=1e-14)
        assert np.trace(m).real == pytest.approx(1.0)

    def test_quarter_is_maximally_mixed(self):
        np.testing.assert_allclose(td.isotropic(2, 0.25).entries, np.eye(4) / 4, atol=1e-15)

    def test_x_one_is_bell(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(td.isotropic(2, 1.0).entries, np.outer(v, v), atol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            td.isotropic(2, -0.1)


class TestBloch:
    def test_identity_round_trip(self):
        b = td.to_bloch(td.make_bipartite(np.eye(4) / 4, 2, 2))
        assert np.allclose(b.x, 0) and np.allclose(b.y, 0) and np.allclose(b.t, 0)

    def test_bell_tensor(self):
        b = td.to_bloch(td.bell_state())
        np.testing.assert_allclose(b.x, 0, atol=1e-14)
        np.testing.assert_allclose(b.y, 0, atol=1e-14)
        np.testing.assert_allclose(b.t, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_from_bloch_reconstructs_bell(self):
        b = td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        np.testing.assert_allclose(
            td.from_bloch(b).entries, td.bell_state().entries, atol=1e-14
        )

    def test_werner_tensor_is_isotropic_in_direction(self):
        # symmetry forces T proportional to the identity
        b = td.to_bloch(td.werner(2, 0.2))
        np.testing.assert_allclose(b.x, 0, atol=1e-14)
        np.testing.assert_allclose(b.t, b.t[0, 0] * np.eye(3), atol=1e-14)

    def test_product_form_reconstructs_tensor_product(self):
        x = np.array([0.0, 0.0, 1.0])
        b = td.TwoQubitBloch(x, x, np.outer(x, x))
        want = td.tensor(td.DensityMatrix(np.diag([1.0, 0.0])),
                         td.DensityMatrix(np.diag([1.0, 0.0])))
        np.testing.assert_allclose(td.from_bloch(b).entries, want.entries, atol=1e-14)

    def test_round_trip_random(self):
        st = td.random_state(2, 2, rank=4, seed=11)
        np.testing.assert_allclose(
            td.from_bloch(td.to_bloch(st)).entries, st.entries, atol=1e-12
        )

    def test_overlong_bloch_vector_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            td.TwoQubitBloch(np.array([1.2, 0, 0]), np.zeros(3), np.zeros((3, 3)))

    def test_pauli_algebra(self):
        for i in range(3):
            np.testing.assert_allclose(PAULI[i] @ PAULI[i], np.eye(2), atol=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_pauli_stack_matches_kron_reference(self, seed):
        st = td.random_state(2, 2, rank=seed % 4 + 1, seed=seed)
        rho, eye = st.entries, np.eye(2)
        x, y, t = np.empty(3), np.empty(3), np.empty((3, 3))
        back = np.eye(4, dtype=complex)
        b = td.to_bloch(st)
        for i in range(3):
            x[i] = np.trace(rho @ np.kron(PAULI[i], eye)).real
            y[i] = np.trace(rho @ np.kron(eye, PAULI[i])).real
            back += b.x[i] * np.kron(PAULI[i], eye) + b.y[i] * np.kron(eye, PAULI[i])
            for j in range(3):
                t[i, j] = np.trace(rho @ np.kron(PAULI[i], PAULI[j])).real
                back += b.t[i, j] * np.kron(PAULI[i], PAULI[j])
        for got, want in ((b.x, x), (b.y, y), (b.t, t), (td.from_bloch(b).entries, back / 4)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


class TestClassicalClassical:
    def test_uniform_is_maximally_mixed(self):
        st = td.classical_classical(
            np.full((2, 2), 0.25), td.computational_basis(2), td.computational_basis(2)
        )
        np.testing.assert_allclose(st.entries, np.eye(4) / 4, atol=1e-15)

    def test_correlated_diagonal(self):
        p = np.array([[0.5, 0.0], [0.0, 0.5]])
        st = td.classical_classical(p, td.computational_basis(2), td.computational_basis(2))
        np.testing.assert_allclose(st.entries, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_fixed_under_own_dephasing(self):
        rng = np.random.default_rng(3)
        from twodiscord.verification import random_basis

        ba, bb = random_basis(rng, 2), random_basis(rng, 3)
        p = rng.dirichlet(np.ones(6)).reshape(2, 3)
        st = td.classical_classical(p, ba, bb)
        deph = td.dephase_two_sided(st, td.ProductMeasurement(ba, bb))
        np.testing.assert_allclose(deph.entries, st.entries, atol=1e-13)


class TestRandomState:
    def test_full_rank_valid(self):
        st = td.random_state(2, 3, rank=6, seed=0)
        assert st.dim_a * st.dim_b == 6

    def test_rank_one_is_pure(self):
        st = td.random_state(2, 2, rank=1, seed=5)
        assert td.purity(st.rho) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = td.random_state(2, 2, rank=3, seed=9)
        b = td.random_state(2, 2, rank=3, seed=9)
        assert np.array_equal(a.entries, b.entries)

    def test_bad_rank(self):
        with pytest.raises(DomainError):
            td.random_state(2, 2, rank=5, seed=0)


def _bloch_table():
    """A 4x4 table [[1, y], [x, T]] of valid two-qubit Bloch data."""
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    c[1:, 0], c[0, 1:], c[1:, 1:] = [0.1, 0.0, 0.2], [0.0, 0.3, 0.0], np.diag([0.5, -0.3, 0.2])
    return c


def _bloch_arrays(x, y, t):
    b = td.TwoQubitBloch(x, y, t)
    return [b.x, b.y, b.t]


# validated type -> (a base array, the arrays a caller cuts from it, the
# arrays of the object built from those)
PRIVATE_COPY_CASES = {
    "DensityMatrix": (lambda: np.stack([np.eye(4, dtype=complex) / 4] * 2),
                      lambda base: [base[0]],
                      lambda rho: [td.make_bipartite(rho, 2, 2).entries]),
    "TwoQubitBloch": (_bloch_table,
                      lambda c: [c[1:, 0], c[0, 1:], c[1:, 1:]],
                      _bloch_arrays),
    "OrthonormalBasis": (lambda: np.stack([np.eye(2, dtype=complex)] * 2),
                         lambda base: [base[0]],
                         lambda u: [td.OrthonormalBasis(u).vectors]),
    "HermitianOperatorBasis": (
        lambda: np.stack([td.hermitian_operator_basis(2).operators] * 2),
        lambda base: [base[0]],
        lambda ops: [td.HermitianOperatorBasis(2, ops).operators]),
}


@pytest.mark.parametrize("name", sorted(PRIVATE_COPY_CASES))
class TestPrivateCopies:
    """A validated object holds private read-only copies of its arrays."""

    def test_callers_arrays_stay_writeable_and_apart(self, name):
        make, cut, build = PRIVATE_COPY_CASES[name]
        inputs = [a.copy() for a in cut(make())]
        held = build(*inputs)
        before = [h.copy() for h in held]
        for a in inputs:
            assert a.flags.writeable
            a[...] = 5
        for h, want in zip(held, before):
            assert not h.flags.writeable
            np.testing.assert_array_equal(h, want)

    def test_editing_the_base_of_a_view_leaves_it_unchanged(self, name):
        make, cut, build = PRIVATE_COPY_CASES[name]
        base = make()
        held = build(*cut(base))
        before = [h.copy() for h in held]
        assert base.flags.writeable
        base[...] = 7
        for h, want in zip(held, before):
            np.testing.assert_array_equal(h, want)


def test_editing_the_table_keeps_the_bloch_vector_valid():
    c = _bloch_table()
    b = td.TwoQubitBloch(c[1:, 0], c[0, 1:], c[1:, 1:])
    c[0, 1] = 5
    np.testing.assert_array_equal(b.y, [0.0, 0.3, 0.0])


class TestImaginaryResidue:
    def test_passes_at_the_tolerance(self):
        z = np.array([1.0 + RESIDUE_TOL * 1j, 2.0 - RESIDUE_TOL * 1j])
        np.testing.assert_array_equal(_real(z, "traces"), [1.0, 2.0])

    def test_raises_above_the_tolerance_naming_the_quantity(self):
        z = np.array([1.0, 2.0 + 1j * np.nextafter(RESIDUE_TOL, 1.0)])
        with pytest.raises(NumericalResidueError,
                           match=r"^Pauli traces have imaginary residue 1\.000e-10$"):
            _real(z, "Pauli traces")
