import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twodiscord as td
from twodiscord.errors import DomainError, NotUnitVectorError
from twodiscord.measurement import bloch_vector_of_basis
from twodiscord.verification import random_basis, random_bipartite, random_product_measurement


def unit_vectors():
    return (
        st.tuples(*(st.floats(-1, 1) for _ in range(3)))
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


class TestBases:
    def test_computational_is_identity(self):
        np.testing.assert_allclose(td.computational_basis(3).vectors, np.eye(3), atol=0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            td.OrthonormalBasis(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_unitary_rejected(self):
        with pytest.raises(DomainError):
            td.OrthonormalBasis(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_bloch_basis_z(self):
        b = td.bloch_basis(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(np.abs(b.vectors), np.eye(2), atol=1e-14)

    def test_bloch_basis_x_projectors(self):
        from twodiscord.states import PAULI

        b = td.bloch_basis(np.array([1.0, 0.0, 0.0]))
        v0 = b.vectors[:, 0]
        np.testing.assert_allclose(
            np.outer(v0, v0.conj()), (np.eye(2) + PAULI[0]) / 2, atol=1e-14
        )

    def test_bloch_basis_eigen_convention(self):
        # first column is the +a eigenvector of a.sigma
        from twodiscord.states import PAULI

        a = np.array([0.3, -0.5, 0.8])
        a = a / np.linalg.norm(a)
        b = td.bloch_basis(a)
        op = sum(a[i] * PAULI[i] for i in range(3))
        np.testing.assert_allclose(op @ b.vectors[:, 0], b.vectors[:, 0], atol=1e-12)

    def test_bloch_basis_requires_unit_vector(self):
        with pytest.raises(NotUnitVectorError):
            td.bloch_basis(np.array([0.0, 0.0, 0.5]))
        with pytest.raises(NotUnitVectorError):
            td.bloch_basis(np.array([np.nan, 0.0, 0.0]))

    @given(unit_vectors())
    @settings(max_examples=25, deadline=None)
    def test_projectors_sum_to_identity(self, a):
        u = td.bloch_basis(a).vectors
        total = sum(np.outer(u[:, k], u[:, k].conj()) for k in range(2))
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    @given(unit_vectors())
    @settings(max_examples=25, deadline=None)
    def test_bloch_vector_round_trip(self, a):
        got = bloch_vector_of_basis(td.bloch_basis(a))
        np.testing.assert_allclose(got, a, atol=1e-10)


class TestDephasing:
    def test_bell_one_sided(self):
        out = td.dephase_one_sided(td.bell_state(), td.computational_basis(2), "A")
        np.testing.assert_allclose(out.entries, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)

    def test_bell_two_sided(self):
        m = td.ProductMeasurement(td.computational_basis(2), td.computational_basis(2))
        out = td.dephase_two_sided(td.bell_state(), m)
        np.testing.assert_allclose(out.entries, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)

    def test_maximally_mixed_fixed(self):
        rng = np.random.default_rng(0)
        st_mm = td.make_bipartite(np.eye(6) / 6, 2, 3)
        m = random_product_measurement(rng, 2, 3)
        np.testing.assert_allclose(td.dephase_two_sided(st_mm, m).entries, np.eye(6) / 6,
                                   atol=1e-13)

    def test_projector_sum_oracle(self):
        """Compare against the literal sum of projected states."""
        rng = np.random.default_rng(1)
        st = random_bipartite(rng, 2, 3)
        m = random_product_measurement(rng, 2, 3)
        want = np.zeros((6, 6), dtype=complex)
        for a in range(2):
            for b in range(3):
                va = m.basis_a.vectors[:, a]
                vb = m.basis_b.vectors[:, b]
                proj = np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
                want += proj @ st.entries @ proj
        np.testing.assert_allclose(td.dephase_two_sided(st, m).entries, want, atol=1e-12)

    def test_far_marginal_preserved(self):
        rng = np.random.default_rng(2)
        st = random_bipartite(rng, 3, 2)
        out = td.dephase_one_sided(st, random_basis(rng, 3), "A")
        np.testing.assert_allclose(
            td.partial_trace(out, "B").entries, td.partial_trace(st, "B").entries,
            atol=1e-13,
        )

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(3)
        st = random_bipartite(rng, 2, 2)
        basis = random_basis(rng, 2)
        once = td.dephase_one_sided(st, basis, "A")
        twice = td.dephase_one_sided(once, basis, "A")
        np.testing.assert_allclose(twice.entries, once.entries, atol=1e-13)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_purity_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        stt = random_bipartite(rng, 2, 2, rank=int(rng.integers(1, 5)))
        m = random_product_measurement(rng, 2, 2)
        assert td.purity(td.dephase_two_sided(stt, m).rho) <= td.purity(stt.rho) + 1e-12


class TestDiagonalDistribution:
    def test_maximally_mixed(self):
        m = td.ProductMeasurement(td.computational_basis(2), td.computational_basis(2))
        p = td.diagonal_distribution(td.make_bipartite(np.eye(4) / 4, 2, 2), m)
        np.testing.assert_allclose(p, np.full((2, 2), 0.25), atol=1e-15)

    def test_bell_computational(self):
        m = td.ProductMeasurement(td.computational_basis(2), td.computational_basis(2))
        p = td.diagonal_distribution(td.bell_state(), m)
        np.testing.assert_allclose(p, [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)

    def test_pure_product_indicator(self):
        st01 = td.tensor(td.DensityMatrix(np.diag([1.0, 0.0])),
                         td.DensityMatrix(np.diag([0.0, 1.0])))
        m = td.ProductMeasurement(td.computational_basis(2), td.computational_basis(2))
        p = td.diagonal_distribution(st01, m)
        np.testing.assert_allclose(p, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)

    def test_normalized_and_matches_elementwise(self):
        rng = np.random.default_rng(4)
        stt = random_bipartite(rng, 2, 3)
        m = random_product_measurement(rng, 2, 3)
        p = td.diagonal_distribution(stt, m)
        assert p.min() >= 0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        w = np.kron(m.basis_a.vectors, m.basis_b.vectors)
        want = np.real(np.einsum("ik,ij,jk->k", w.conj(), stt.entries, w)).reshape(2, 3)
        np.testing.assert_allclose(p, want, atol=1e-13)
