import numpy as np
import pytest

import twodiscord as td
from twodiscord import OptimizerConfig
from twodiscord.entropic import EIG_FLOOR, plogp, shannon_bits
from twodiscord.measurement import haar_unitary
from twodiscord.optimize import projective_grid
from twodiscord.verification import (
    _convexity_rows,
    entropic_oracle_two_qubit,
    random_basis,
    random_bipartite,
    random_classical_classical,
    random_product_measurement,
    random_product_state,
    random_zero_marginal_two_qubit,
)

from exact_reference import shannon_oracle
from grid_reference import sphere_grid
from koashi_winter_reference import koashi_winter_bound

CFG = OptimizerConfig(restarts=16, seed=0)


def test_plogp_is_the_where_form_bit_for_bit():
    # zeros of both signs, entries around and below the floor, and negatives
    tiny = np.random.default_rng(3).uniform(0.0, EIG_FLOOR, 8)
    p = np.concatenate([[0.0, -0.0, 5e-324, np.nextafter(EIG_FLOOR, 0.0), EIG_FLOOR, 0.5, 1.0,
                         -1e-16, -EIG_FLOOR, -0.25], tiny, -tiny])
    want = p * np.log2(np.where(p < EIG_FLOOR, 1.0, p))
    out = np.empty_like(p)
    assert plogp(p).tobytes() == want.tobytes()
    assert plogp(p, out=out) is out and out.tobytes() == want.tobytes()


class TestEntropy:
    def test_maximally_mixed(self):
        assert td.entropy(td.DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_pure(self):
        assert td.entropy(td.bell_state().rho) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value(self):
        got = td.entropy(td.DensityMatrix(np.diag([0.75, 0.25])))
        assert got == pytest.approx(0.8112781244591328, abs=1e-14)

    def test_matches_shannon_oracle_on_random_spectra(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            got = td.entropy(td.DensityMatrix(np.diag(p)))
            assert got == pytest.approx(shannon_oracle(p), abs=1e-12)

    def test_basis_invariant(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(4))
        u = random_basis(rng, 4).vectors
        rotated = td.DensityMatrix((u * p) @ u.conj().T)
        assert td.entropy(rotated) == pytest.approx(shannon_oracle(p), abs=1e-12)


class TestMutualInformation:
    def test_product_state_zero(self):
        rng = np.random.default_rng(2)
        assert td.mutual_information(random_product_state(rng, 2, 3)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_bell_is_two(self):
        assert td.mutual_information(td.bell_state()) == pytest.approx(2.0, abs=1e-12)

    def test_classically_correlated_is_one(self):
        st = td.make_bipartite(np.diag([0.5, 0, 0, 0.5]), 2, 2)
        assert td.mutual_information(st) == pytest.approx(1.0, abs=1e-12)


class TestMeasuredLoss:
    def test_cc_state_in_own_bases(self):
        rng = np.random.default_rng(3)
        ba, bb = random_basis(rng, 2), random_basis(rng, 2)
        p = rng.dirichlet(np.ones(4)).reshape(2, 2)
        st = td.classical_classical(p, ba, bb)
        m = td.ProductMeasurement(ba, bb)
        assert td.measured_loss_two_sided(st, m) == pytest.approx(0.0, abs=1e-12)

    def test_bell_computational(self):
        m = td.ProductMeasurement(td.computational_basis(2), td.computational_basis(2))
        assert td.measured_loss_two_sided(td.bell_state(), m) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_any_bases(self):
        rng = np.random.default_rng(4)
        st = random_product_state(rng, 2, 2)
        m = random_product_measurement(rng, 2, 2)
        assert abs(td.measured_loss_two_sided(st, m)) <= 1e-9

    def test_split_bell(self):
        # the A-side dephasing already classicalizes the Bell state, the
        # B-side step is then free
        m = td.ProductMeasurement(td.computational_basis(2), td.computational_basis(2))
        la, lb = td.loss_split(td.bell_state(), m)
        assert la == pytest.approx(1.0, abs=1e-12)
        assert lb == pytest.approx(0.0, abs=1e-12)

    def test_split_components_nonnegative_and_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            st = random_bipartite(rng, 2, 3, rank=int(rng.integers(1, 7)))
            m = random_product_measurement(rng, 2, 3)
            la, lb = td.loss_split(st, m)
            assert la >= -1e-9 and lb >= -1e-9
            assert la + lb == pytest.approx(td.measured_loss_two_sided(st, m), abs=1e-9)


class TestDiscordOneSided:
    def test_classical_state_side_a(self):
        # sum_a p_a |a><a| x rho_a has zero A-discord
        rng = np.random.default_rng(6)
        from twodiscord.verification import random_density

        blocks = [random_density(rng, 2).entries for _ in range(2)]
        rho = np.zeros((4, 4), dtype=complex)
        p = [0.4, 0.6]
        for a in range(2):
            rho[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = p[a] * blocks[a]
        st = td.make_bipartite(rho, 2, 2)
        assert td.discord_one_sided(st, "A", CFG).value <= 1e-6

    def test_bell(self):
        assert td.discord_one_sided(td.bell_state(), "A", CFG).value == pytest.approx(
            1.0, abs=1e-4
        )

    def test_product(self):
        rng = np.random.default_rng(7)
        st = random_product_state(rng, 2, 2)
        assert abs(td.discord_one_sided(st, "B", CFG).value) <= 1e-6

    def test_bad_side(self):
        with pytest.raises(td.DomainError):
            td.discord_one_sided(td.bell_state(), "C", CFG)


class TestDiscordTwoSided:
    def test_classical_classical(self):
        rng = np.random.default_rng(8)
        st = random_classical_classical(rng, 2, 2)
        assert td.discord_two_sided(st, CFG).value <= 1e-6

    def test_bell(self):
        assert td.discord_two_sided(td.bell_state(), CFG).value == pytest.approx(
            1.0, abs=1e-4
        )

    def test_product(self):
        rng = np.random.default_rng(9)
        st = random_product_state(rng, 2, 2)
        assert abs(td.discord_two_sided(st, CFG).value) <= 1e-6

    def test_never_below_grid_oracle(self):
        # the optimizer searches a superset of the oracle's grid pairs, so its
        # retained mutual information can only be larger
        rng = np.random.default_rng(10)
        for _ in range(3):
            st = random_bipartite(rng, 2, 2, rank=int(rng.integers(1, 5)))
            opt = td.discord_two_sided(st, CFG).value
            oracle = entropic_oracle_two_qubit(st, resolution=48)
            assert opt <= oracle + 1e-9
            assert opt == pytest.approx(oracle, abs=5e-3)

    def test_report_fields(self):
        res = td.discord_two_sided(td.bell_state(), CFG)
        assert isinstance(res.optimal_measurement, td.ProductMeasurement)
        assert res.optimizer_report.restarts_run >= CFG.restarts


def _retained_table(state, rows, cols):
    """Retained information of the measured table for each pair of an A
    direction in ``rows`` and a B direction in ``cols``, each table whole."""
    b = td.to_bloch(state)
    ax = (rows @ b.x)[:, None]
    by = cols @ b.y
    m = rows @ b.t @ cols.T
    p = 0.25 * np.stack([1 + ax + by + m, 1 + ax - by - m, 1 - ax + by - m, 1 - ax - by + m])
    np.clip(p, 0.0, None, out=p)
    ha = shannon_bits(np.stack([p[0] + p[1], p[2] + p[3]]), axis=0)
    hb = shannon_bits(np.stack([p[0] + p[2], p[1] + p[3]]), axis=0)
    return ha + hb - shannon_bits(p, axis=0)


def _entropic_oracle_reference(state, pts):
    """The oracle over every pair of the directions ``pts``, no row skipped."""
    best = max(_retained_table(state, pts[lo:lo + 128], pts).max()
               for lo in range(0, len(pts), 128))
    return td.mutual_information(state) - float(best)


def _pure_in_local_frames(theta, seed):
    """cos theta |00> + sin theta |11> in seeded Haar-random local frames."""
    rng = np.random.default_rng([17, seed])
    psi = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) @ [np.cos(theta), 0, 0, np.sin(theta)]
    return td.make_bipartite(np.outer(psi, psi.conj()), 2, 2)


def _oracle_states():
    rng = np.random.default_rng(20)
    plus = td.DensityMatrix(np.full((2, 2), 0.5))
    zero = td.DensityMatrix(np.diag([1.0, 0.0]))
    states = [td.random_state(2, 2, rank=rank, seed=seed)
              for rank in (1, 2, 3, 4) for seed in (0, 1)]
    # zero-marginal, classical-classical, product, and a pure marginal: the A
    # pole leaves outcome - with probability 0
    states += [td.bell_state(), random_zero_marginal_two_qubit(rng),
               random_classical_classical(rng, 2, 2), random_product_state(rng, 2, 2),
               td.tensor(zero, plus)]
    return states


class TestEntropicOracle:
    @pytest.mark.parametrize("resolution", [8, 16, 32, 48])
    def test_matches_full_grid_reference(self, resolution):
        # the whole sphere grid, and at R = 48 every pair of the projective
        # grid, which the pruned scan must reach unchanged. At R = 32 also
        # pure states, where a Holevo row bound would be S(rho_B) on every
        # row and prune nothing; near maximal entanglement the rows
        # are nearly flat and the best one lies hundreds of rows deep in the
        # bound's order, so a bound too low by 1e-4 loses it
        pts = sphere_grid(resolution) if resolution <= 32 else projective_grid(resolution)
        states = _oracle_states()
        if resolution == 32:
            states += [_pure_in_local_frames(theta, k)
                       for k, theta in enumerate(np.linspace(0.25, 0.7, 10))]
            states += [_pure_in_local_frames(0.785, k) for k in range(10, 16)]
        for st in states:
            assert entropic_oracle_two_qubit(st, resolution) == pytest.approx(
                _entropic_oracle_reference(st, pts), abs=1e-12
            )

    def test_convexity_rows_bound_every_row(self):
        # the pruning is exact because no grid value in row a exceeds U(a)
        pts, cols = projective_grid(16), sphere_grid(16)
        pure = [td.random_state(2, 2, rank=1, seed=100 + k) for k in range(20)]
        for st in _oracle_states() + pure:
            u = _convexity_rows(td.to_bloch(st), pts)
            rows = _retained_table(st, pts, cols).max(axis=1)
            assert np.all(u >= rows - 1e-12)

    def test_convexity_rows_prune_pure_states(self):
        # U(a) falls below S(rho_B) on most rows of a pure state neither
        # close to a product nor maximally entangled
        pts = projective_grid(16)
        for k, theta in enumerate(np.linspace(0.25, 0.7, 10)):
            st = _pure_in_local_frames(theta, k)
            s_b = td.entropy(td.partial_trace(st, "B"))
            u = _convexity_rows(td.to_bloch(st), pts)
            assert np.mean(u < s_b - 1e-3) > 0.9

    def test_bell_and_product_values(self):
        assert entropic_oracle_two_qubit(td.bell_state(), 16) == pytest.approx(1.0, abs=1e-12)
        zero = td.DensityMatrix(np.diag([1.0, 0.0]))
        assert entropic_oracle_two_qubit(td.tensor(zero, zero), 16) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("resolution", [0, -3, 4])
    def test_rejects_small_resolution(self, resolution):
        with pytest.raises(td.DomainError):
            entropic_oracle_two_qubit(td.bell_state(), resolution)


# the Bloch correlation vectors of the four Bell states
_BELL_VERTICES = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])


def _bell_diagonal(weights):
    """The mixture of the four Bell states with ``weights``: x = y = 0 and T = diag(c)."""
    c = np.asarray(weights) @ _BELL_VERTICES
    return td.from_bloch(td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.diag(c))), c


class TestBellDiagonal:
    """The exact entropic discords of Bell-diagonal states (Luo, PRA 77, 042303 (2008)):
    D_A = D_B = D_AB = I - [1 - h((1 + c) / 2)], c = max |c_i|."""

    @staticmethod
    def _closed(state, c):
        p = 0.5 * (1.0 + np.max(np.abs(c)))
        return td.mutual_information(state) - (1.0 - shannon_oracle([p, 1.0 - p]))

    def test_searches_meet_the_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            state, c = _bell_diagonal(rng.dirichlet(np.ones(4)))
            want = self._closed(state, c)
            for got in (td.discord_one_sided(state, "A", CFG), td.discord_one_sided(state, "B", CFG),
                        td.discord_two_sided(state, CFG)):
                assert got.value == pytest.approx(want, abs=1e-10)
            assert entropic_oracle_two_qubit(state) >= want - 1e-12

    def test_vertices_and_center(self):
        # a Bell state has D = 1; the maximally mixed center has D = 0
        for k in range(4):
            state, c = _bell_diagonal(np.eye(4)[k])
            assert self._closed(state, c) == pytest.approx(1.0, abs=1e-12)
            assert td.discord_two_sided(state, CFG).value == pytest.approx(1.0, abs=1e-10)
        state, c = _bell_diagonal(np.full(4, 0.25))
        assert td.discord_two_sided(state, CFG).value == pytest.approx(0.0, abs=1e-10)


class TestKoashiWinter:
    """On two-qubit states of rank <= 2 the one-sided entropic discord lies
    just above the POVM value S(side) - S(AB) + E_f of the Koashi-Winter
    relation (``koashi_winter_reference``); the projective optimum may
    exceed it only by the small POVM advantage."""

    @pytest.mark.parametrize("rank", [1, 2])
    def test_one_sided_meets_the_bound(self, rank):
        for seed in range(15):
            state = td.random_state(2, 2, rank, 100 * rank + seed)
            for side in ("A", "B"):
                gap = td.discord_one_sided(state, side, CFG).value - koashi_winter_bound(state, side)
                assert -1e-12 <= gap <= 1e-6, (seed, side, gap)

    def test_pure_state_bound_is_the_marginal_entropy(self):
        state = td.random_state(2, 2, 1, 5)
        for side in ("A", "B"):
            want = td.entropy(td.partial_trace(state, side))
            assert koashi_winter_bound(state, side) == pytest.approx(want, abs=1e-12)
