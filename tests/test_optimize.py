import itertools
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import twodiscord as td
from twodiscord import OptimizerConfig
from twodiscord import optimize
from twodiscord import entropic
from twodiscord.entropic import RETAINED_INFORMATION, shannon_bits
from twodiscord.measurement import _basis_unchecked, haar_unitary
from twodiscord.optimize import (
    _alternating_detail,
    _cell_bound,
    _dephased,
    _grid_cells,
    _jacobi_step,
    _measured_first,
    _plane_data,
    _purity_plane,
    _reduced_bloch,
    _reduced_bloch_derivatives,
    _rotations,
    _round_robin,
    _row_bounds,
    _start_points,
    jacobi_search,
    projective_grid,
    rotated_states,
    warm_start_bases,
)
from twodiscord.verification import random_basis, random_bipartite

from compass_reference import (
    TablePolls,
    _compass_information,
    _givens_planes,
    _givens_poll,
    _one_sided_information,
    _plane_rows,
    _side_blocks,
    compass_search,
    maximize_over_bases,
)
from grid_reference import sphere_grid


class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert (cfg.restarts, cfg.seed) == (64, 0)

    @pytest.mark.parametrize("kwargs", [dict(restarts=0), dict(seed=-1),
                                        dict(restarts=2.5), dict(restarts=True),
                                        dict(restarts="4"), dict(seed=0.5),
                                        dict(seed=float("nan")), dict(seed=False)])
    def test_validation(self, kwargs):
        with pytest.raises(td.DomainError):
            OptimizerConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = OptimizerConfig(restarts=np.int64(3), seed=np.uint8(5))
        res = jacobi_search(td.werner(2, 0.3).reshaped(), ("A", "B"), cfg)
        assert res.restarts_run == 3


class TestMaximizeOverBases:
    def test_constant_objective(self):
        res = maximize_over_bases(
            lambda ua, ub: np.full(ua.shape[0], 3.25), (2, 3),
            OptimizerConfig(restarts=4, seed=0),
        )
        assert res.best_value == 3.25
        assert res.converged

    def test_reaches_target_basis(self):
        # sum_o |<v_o|u_o>|^2 is n exactly when each u_o is v_o up to a phase
        target = haar_unitary(np.random.default_rng(9), 3)

        def batch(u):
            return np.sum(np.abs(np.einsum("ao,nao->no", target.conj(), u)) ** 2, axis=1)

        res = maximize_over_bases(batch, (3,), OptimizerConfig(restarts=8, seed=0))
        assert res.best_value == pytest.approx(3.0, abs=1e-10)
        (u,) = res.best_params
        np.testing.assert_allclose(np.abs(target.conj().T @ u), np.eye(3), atol=1e-5)


class TestLockstep:
    def test_both_engines_stop_at_the_iteration_cap(self, monkeypatch):
        # every start of the Jacobi searches and of the compass reference,
        # which shares their lockstep loop, runs to the cap, so each reports
        # cap x starts iterations and a winner that did not converge; the
        # entropic Jacobi searches count sweeps against the same cap
        monkeypatch.setattr(optimize, "_MAX_ITERATIONS", 2)
        r = random_bipartite(np.random.default_rng([7, 3, 3]), 3, 3).reshaped()
        cfg = OptimizerConfig(restarts=8, seed=1)
        for res in (jacobi_search(r, ("A", "B"), cfg),
                    compass_search(TablePolls(r, optimize._retained_purities), (3, 3), cfg),
                    *(jacobi_search(r, sides, cfg, objective=RETAINED_INFORMATION)
                      for sides in (("A", "B"), ("A",), ("B",)))):
            assert (res.iterations_total, res.restarts_run, res.converged) == (16, 8, False)

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1)])
    def test_one_dimensional_measured_side_rejected(self, dims):
        r = np.zeros(dims * 2, dtype=complex)
        with pytest.raises(td.DomainError):
            jacobi_search(r, ("A", "B"), OptimizerConfig(restarts=2))
        with pytest.raises(td.DomainError):
            jacobi_search(r, ("AB"[dims.index(1)],), OptimizerConfig(restarts=2))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_warm_starts_follow_one_rule_in_every_dimension(self, dims):
        state = random_bipartite(np.random.default_rng([13, *dims]), *dims)
        basis = td.OrthonormalBasis(haar_unitary(np.random.default_rng(2), dims[0]))
        starts = warm_start_bases(state, ("A",), [basis])
        assert len(starts) == 3 and len(warm_start_bases(state, ("A", "B"))) == 2
        np.testing.assert_array_equal(starts[0][0], np.eye(dims[0]))
        eig = np.linalg.eigh(td.partial_trace(state, "A").entries)[1]
        np.testing.assert_array_equal(starts[1][0], eig)
        np.testing.assert_array_equal(starts[2][0], basis.vectors)

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("discord", [td.geo_discord_one_sided, td.discord_one_sided])
    def test_extra_warm_start_of_wrong_dimension_rejected(self, discord, side):
        state = td.random_state(2, 3, 6, 0)
        with pytest.raises(td.DimensionMismatchError, match=f"side {side} has"):
            discord(state, side, OptimizerConfig(restarts=2),
                    extra_warm_starts=[td.computational_basis(4)])


class TestPatternSearch:
    def test_deterministic_given_seed(self):
        # the compass search over unitaries is a pure function of its seed:
        # same value and same bases, bit for bit
        def batch(ua, ub):
            return (np.sin(ua.real).sum(axis=(1, 2)) + np.cos(ub.imag).sum(axis=(1, 2)))

        cfg = OptimizerConfig(restarts=6, seed=3)
        r1 = maximize_over_bases(batch, (2, 3), cfg)
        r2 = maximize_over_bases(batch, (2, 3), cfg)
        assert r1.best_value == r2.best_value
        for u1, u2 in zip(r1.best_params, r2.best_params, strict=True):
            assert np.array_equal(u1, u2)


class TestHaarUnitary:
    def test_unitary_and_reproducible(self):
        for n in (2, 3, 4):
            u = haar_unitary(np.random.default_rng([7, 3]), n)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)
            assert np.array_equal(u, haar_unitary(np.random.default_rng([7, 3]), n))

    @pytest.mark.parametrize("dims", [(2, 2), (2,), (3, 3), (4, 4)])
    def test_batched_starts_match_per_restart_draws(self, dims):
        cfg = OptimizerConfig(restarts=64, seed=11)
        points = _start_points(dims, cfg, [])
        for r in range(cfg.restarts):
            rng = np.random.default_rng([cfg.seed, r])
            for q, n in enumerate(dims):
                assert np.array_equal(points[q][r], haar_unitary(rng, n))


class TestGivensPolls:
    DIMS = (3, 2)

    def _poll(self, step):
        rng = np.random.default_rng(5)
        bases = [haar_unitary(rng, n)[None] for n in self.DIMS]
        planes = _givens_planes(self.DIMS)
        return bases, planes, _givens_poll(bases, np.array([step]), planes)

    def test_direction_count(self):
        _, planes, cand = self._poll(0.3)
        ndir = sum(2 * n * (n - 1) for n in self.DIMS)
        assert all(len(a) == ndir for a in planes)
        assert [c.shape for c in cand] == [(ndir, n, n) for n in self.DIMS]

    def test_candidates_unitary_and_move_two_columns(self):
        bases, (side, j, k, *_), cand = self._poll(0.3)
        for d in range(len(side)):
            for q, n in enumerate(self.DIMS):
                u = cand[q][d]
                np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)
                moved = np.nonzero(np.any(u != bases[q][0], axis=0))[0]
                assert moved.tolist() == ([j[d], k[d]] if side[d] == q else [])

    def test_candidate_is_base_times_generator_exponential(self):
        step = 0.7
        bases, (side, j, k, mult_j, _, sign), cand = self._poll(step)
        for d in range(len(side)):
            q, n = side[d], self.DIMS[side[d]]
            gen = np.zeros((n, n), dtype=complex)
            if mult_j[d] == -1:
                gen[j[d], k[d]], gen[k[d], j[d]] = 1.0, -1.0
            else:
                gen[j[d], k[d]] = gen[k[d], j[d]] = 1j
            want = bases[q][0] @ scipy.linalg.expm(sign[d] * step * gen)
            np.testing.assert_allclose(cand[q][d], want, atol=1e-14)


def _full_contraction_tables(r, ua, ub):
    """p[n, alpha, beta] for each candidate pair, contracted from scratch."""
    p = np.einsum("nap,nbq,abcd,ncp,ndq->npq", ua.conj(), ub.conj(), r, ua, ub,
                  optimize=True).real
    return np.where(p < 0, 0.0, p)


class TestTablePolls:
    """Two-row table updates agree with contracting every candidate in full."""

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("step", [0.25, 1e-3])
    def test_tables_match_candidate_distributions(self, dims, step):
        rng = np.random.default_rng([17, *dims])
        state = random_bipartite(rng, *dims)
        restarts = 3
        points = [np.array([haar_unitary(rng, n) for _ in range(restarts)]) for n in dims]
        planes = _givens_planes(dims)
        steps = np.full(restarts, step)
        tables = TablePolls(state.reshaped(), None).tables(points, steps, planes)
        ua, ub = _givens_poll(points, steps, planes)
        assert tables.shape == (restarts, len(planes[0]), *dims)
        for got, a, b in zip(tables.reshape(-1, *dims), ua, ub, strict=True):
            m = td.ProductMeasurement(_basis_unchecked(a), _basis_unchecked(b))
            np.testing.assert_allclose(got, td.diagonal_distribution(state, m), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_sided_searches_match_candidate_route(self, seed):
        state = td.random_state(2, 3, rank=int(seed + 2), seed=seed)
        r = state.reshaped()
        cfg = OptimizerConfig(restarts=8, seed=seed)
        warm = warm_start_bases(state, ("A", "B"))

        def purity_batch(ua, ub):
            p = _full_contraction_tables(r, ua, ub)
            return np.sum(p * p, axis=(1, 2))

        def information_batch(ua, ub):
            p = _full_contraction_tables(r, ua, ub)
            return (shannon_bits(p.sum(axis=2), axis=-1) + shannon_bits(p.sum(axis=1), axis=-1)
                    - shannon_bits(p.reshape(len(p), -1), axis=-1))

        geo = maximize_over_bases(purity_batch, (2, 3), cfg, warm)
        want = td.purity(state.rho) - geo.best_value
        assert td.geo_discord_two_sided(state, cfg).value == pytest.approx(want, abs=1e-10)
        ent = maximize_over_bases(information_batch, (2, 3), cfg, warm)
        want = td.mutual_information(state) - ent.best_value
        assert td.discord_two_sided(state, cfg).value == pytest.approx(want, abs=1e-10)


def _one_sided_purity(r, u, side):
    """Sum of squared moduli of the measured side's blocks for each basis in u."""
    return np.sum(np.abs(_side_blocks(r, u, side)) ** 2, axis=(1, 2, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_round_robin_covers_each_plane_once_in_disjoint_rounds(n):
    rounds = _round_robin(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    planes = [(int(a), int(b)) for j, k in rounds for a, b in zip(j, k, strict=True)]
    assert sorted(planes) == list(itertools.combinations(range(n), 2))
    for j, k in rounds:
        assert len(j) == n // 2 and len(set(j) | set(k)) == 2 * len(j)


def _gram(view, j, k, two_sided):
    """The (R, 3, 3) Gram Re sum g g^H of one plane's data, for each restart."""
    g = _plane_data(view, j, k, two_sided)[1]
    g = g.reshape(len(g), 3, -1)
    return np.einsum("nak,nbk->nab", g, g.conj()).real


class TestJacobiStep:
    """A Jacobi step takes the best rotation of its plane, in closed form: the
    purity after it is the base value plus 2 (lambda_max(G) - G_00), and no
    compass poll in the same plane scores higher."""

    RESTARTS = 3

    def _setup(self, dims):
        rng = np.random.default_rng([29, *dims])
        state = random_bipartite(rng, *dims)
        points = [np.array([haar_unitary(rng, n) for _ in range(self.RESTARTS)]) for n in dims]
        return state.reshaped(), points

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    def test_two_sided_step_is_exact_and_beats_polls(self, dims):
        r, points = self._setup(dims)
        scorer = TablePolls(r, optimize._retained_purities)
        base = scorer.values(points)
        rt = rotated_states(r, *points)
        p = np.einsum("rabab->rab", rt).real
        planes = _givens_planes(dims)
        polls = {step: scorer.poll(points, np.full(self.RESTARTS, step), planes)
                 for step in (0.25, 1e-3)}
        for q, side in enumerate("AB"):
            # the table and blocks with the measured side first, as TablePolls.tables takes them
            pq, g = ((p, np.einsum("rabcb->racb", rt)) if side == "A"
                     else (p.transpose(0, 2, 1), np.einsum("rabad->rbda", rt)))
            for j, k in itertools.combinations(range(dims[q]), 2):
                jj, kk = np.array([j]), np.array([k])
                gram = _gram(_measured_first(rt, side), jj, kk, True)
                want = base + 2.0 * (np.linalg.eigvalsh(gram)[:, -1] - gram[:, 0, 0])
                c, s, ph = _rotations(np.linalg.eigh(gram)[1][:, :, -1])
                for i in range(self.RESTARTS):
                    rows = _plane_rows(pq[i:i + 1], g[i:i + 1], c[i:i + 1, None],
                                       s[i:i + 1, None], jj, kk, ph[i:i + 1], -ph[i:i + 1].conj())
                    assert np.sum(rows ** 2) == pytest.approx(want[i], abs=1e-13)
                moved = [u.copy() for u in points]
                _jacobi_step(moved[q], _measured_first(rt, side), jj, kk, True, _purity_plane)
                np.testing.assert_allclose(scorer.values(moved), want, rtol=0, atol=1e-13)
                in_plane = (planes[0] == q) & (planes[1] == j) & (planes[2] == k)
                assert in_plane.sum() == 4
                for vals in polls.values():
                    assert np.all(vals[:, in_plane].max(axis=1) <= want + 1e-13)

    @pytest.mark.parametrize("dims,side", [((2, 3), "A"), ((2, 3), "B"), ((3, 2), "A"),
                                           ((3, 3), "A"), ((3, 3), "B")])
    def test_one_sided_step_is_exact_and_beats_polls(self, dims, side):
        r, points = self._setup(dims)
        q = "AB".index(side)
        u, n, m = points[q], dims[q], dims[1 - q]
        eye = np.broadcast_to(np.eye(m, dtype=complex), (self.RESTARTS, m, m))
        rt = rotated_states(r, *((u, eye) if side == "A" else (eye, u)))
        base = _one_sided_purity(r, u, side)
        planes = _givens_planes((n,))
        cands = {step: _givens_poll([u], np.full(self.RESTARTS, step), planes)[0]
                 for step in (0.25, 1e-3)}
        for j, k in itertools.combinations(range(n), 2):
            jj, kk = np.array([j]), np.array([k])
            gram = _gram(_measured_first(rt, side), jj, kk, False)
            want = base + 2.0 * (np.linalg.eigvalsh(gram)[:, -1] - gram[:, 0, 0])
            moved = u.copy()
            _jacobi_step(moved, _measured_first(rt, side), jj, kk, False, _purity_plane)
            np.testing.assert_allclose(_one_sided_purity(r, moved, side), want, rtol=0, atol=1e-13)
            in_plane = (planes[1] == j) & (planes[2] == k)
            for cand in cands.values():
                vals = _one_sided_purity(r, cand, side).reshape(self.RESTARTS, -1)
                assert np.all(vals[:, in_plane].max(axis=1) <= want + 1e-13)


class TestJacobiSearch:
    def test_warm_start_wins_tie_break(self):
        # a classical-classical state in computational bases keeps its whole
        # purity at the identity warm start, which every other start can only
        # tie; the winner is the warm start, bit for bit
        p = np.array([[0.4, 0.1, 0.05], [0.2, 0.15, 0.1]])
        r = td.classical_classical(p, td.computational_basis(2),
                                   td.computational_basis(3)).reshaped()
        identity = (np.eye(2, dtype=complex), np.eye(3, dtype=complex))
        res = jacobi_search(r, ("A", "B"), OptimizerConfig(restarts=4, seed=0), [identity])
        assert res.best_value == pytest.approx(np.sum(p * p), abs=1e-15)
        assert res.converged
        for u, want in zip(res.best_params, identity, strict=True):
            np.testing.assert_array_equal(u, want)

    def test_two_sided_search_deterministic_given_seed(self):
        # the two-sided and both one-sided geometric searches repeat bit for bit
        st = td.random_state(3, 3, rank=9, seed=12)
        cfg = OptimizerConfig(restarts=8, seed=5)
        r1 = td.geo_discord_two_sided(st, cfg)
        r2 = td.geo_discord_two_sided(st, cfg)
        assert r1.value == r2.value
        for side in ("basis_a", "basis_b"):
            assert np.array_equal(getattr(r1.optimal_measurement, side).vectors,
                                  getattr(r2.optimal_measurement, side).vectors)
        pairs = [(r1, r2)]
        for side in ("A", "B"):
            o1 = td.geo_discord_one_sided(st, side, cfg)
            o2 = td.geo_discord_one_sided(st, side, cfg)
            assert o1.value == o2.value
            assert np.array_equal(o1.optimal_measurement.vectors, o2.optimal_measurement.vectors)
            pairs.append((o1, o2))
        for a, b in pairs:
            rep1, rep2 = a.optimizer_report, b.optimizer_report
            assert (rep1.restarts_run, rep1.iterations_total) == (rep2.restarts_run,
                                                                  rep2.iterations_total)


    @pytest.mark.parametrize("objective", [optimize.RETAINED_PURITY, RETAINED_INFORMATION])
    @pytest.mark.parametrize("sides", [("A", "B"), ("A",), ("B",)])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_search_bases_is_jacobi_search(self, dims, sides, objective):
        # the one call of every basis-search discord runs jacobi_search from
        # warm_start_bases, bit for bit, wraps the winning unitaries, and
        # reports the total minus the best value over the caller's bound
        rng = np.random.default_rng([37, *dims, len(sides)])
        state = random_bipartite(rng, *dims)
        extra = [random_basis(rng, dims["AB".index(sides[0])])] if len(sides) == 1 else []
        cfg = OptimizerConfig(restarts=4, seed=3)
        total, bound = 1.0 + rng.random(), rng.random()
        got = optimize.search_bases(state, sides, cfg, total, bound, objective, extra)
        want = jacobi_search(state.reshaped(), sides, cfg,
                             warm_start_bases(state, sides, extra), objective)
        res = got.optimizer_report
        assert ((res.best_value, res.restarts_run, res.iterations_total, res.converged)
                == (want.best_value, want.restarts_run, want.iterations_total, want.converged))
        assert got.value == float(total - want.best_value) and got.lower_bound == bound
        m = got.optimal_measurement
        bases = [m.basis_a, m.basis_b] if len(sides) == 2 else [m]
        for basis, u, v in zip(bases, res.best_params, want.best_params, strict=True):
            assert np.array_equal(u, v)
            assert np.array_equal(basis.vectors, u)


class TestJacobiAgainstCompass:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_never_above_compass_reference(self, dims):
        # the Jacobi discord never exceeds the compass search's from the same
        # starts; the compass scores the same purity through TablePolls
        for seed in range({(2, 2): 16, (2, 3): 14, (3, 3): 10}[dims]):
            state = random_bipartite(np.random.default_rng([31, seed, *dims]), *dims)
            r = state.reshaped()
            cfg = OptimizerConfig(restarts=16, seed=seed)
            warm = warm_start_bases(state, ("A", "B"))
            jac = jacobi_search(r, ("A", "B"), cfg, warm)
            ref = compass_search(TablePolls(r, optimize._retained_purities), dims, cfg, warm)
            assert jac.best_value >= ref.best_value - 1e-10


class TestEntropicPlaneSolve:
    """The entropic plane objectives: closed-form derivatives against central
    differences, and plane solves that never lower the objective."""

    RESTARTS = 3

    def _planes(self, dims, side, rank=None):
        """The states in random bases and the planes (j, k) of ``side``."""
        rng = np.random.default_rng([37, *dims, "AB".index(side)])
        state = random_bipartite(rng, *dims, rank=rank)
        points = [np.array([haar_unitary(rng, n) for _ in range(self.RESTARTS)]) for n in dims]
        n = dims["AB".index(side)]
        return rotated_states(state.reshaped(), *points), [
            (np.array([j]), np.array([k])) for j, k in itertools.combinations(range(n), 2)]

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("two_sided", [True, False])
    def test_derivatives_match_central_differences(self, dims, side, two_sided):
        rt, planes = self._planes(dims, side)
        rng = np.random.default_rng([41, *dims])
        h = 1e-5
        for jj, kk in planes:
            a, g = _plane_data(_measured_first(rt, side), jj, kk, two_sided)
            v = rng.standard_normal((len(a), 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            grad, hess = entropic._plane_derivatives(a, g, v)
            eye = h * np.eye(3)
            fd_grad = np.stack([(entropic._plane_value(a, g, (v + e)[:, None])
                                 - entropic._plane_value(a, g, (v - e)[:, None]))[:, 0] / (2 * h)
                                for e in eye], axis=1)
            fd_hess = np.stack([(entropic._plane_derivatives(a, g, v + e)[0]
                                 - entropic._plane_derivatives(a, g, v - e)[0]) / (2 * h)
                                for e in eye], axis=2)
            np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-7)
            np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=1e-6)
            np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("two_sided", [True, False])
    @pytest.mark.parametrize("rank", [1, 2, None])
    def test_plane_solve_never_lowers_the_objective(self, dims, side, two_sided, rank):
        # on every plane: the solve's own value, and the whole objective after
        # the rotation, which rises by exactly the plane's gain; on states of
        # rank 1 and 2 an unchecked Newton step would lower some planes
        rt, planes = self._planes(dims, side, rank)
        sides = ("A", "B") if two_sided else (side,)
        q = "AB".index(side)
        for jj, kk in planes:
            view = _measured_first(rt, side)
            a, g = _plane_data(view, jj, kk, two_sided)
            v = entropic._information_plane(a, g)
            gain = (entropic._plane_value(a, g, v[:, None])[:, 0]
                    - entropic._plane_value(a, g, np.eye(3)[:1])[:, 0])
            assert np.all(gain >= 0.0)
            moved = [np.tile(np.eye(n, dtype=complex), (self.RESTARTS, 1, 1)) for n in dims]
            _jacobi_step(moved[q], view, jj, kk, two_sided, entropic._information_plane)
            after = np.concatenate([rotated_states(x, *(u[i:i + 1] for u in moved))
                                    for i, x in enumerate(rt)])
            np.testing.assert_allclose(entropic._retained_informations(_dephased(after, sides))
                                       - entropic._retained_informations(_dephased(rt, sides)),
                                       gain, rtol=0, atol=1e-12)


class TestEntropicAgainstCompass:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_never_above_compass_reference(self, dims):
        # from the same starts, the entropic Jacobi searches (two-sided, and
        # one-sided on alternating sides) retain at least the compass
        # search's information; 40 states over the four shapes
        for seed in range(10):
            rng = np.random.default_rng([43, seed, *dims])
            state = random_bipartite(rng, *dims, rank=int(rng.integers(1, dims[0] * dims[1] + 1)))
            r = state.reshaped()
            cfg = OptimizerConfig(restarts=4, seed=seed)
            for sides in (("A", "B"), ("AB"[seed % 2],)):
                warm = warm_start_bases(state, sides)
                jac = jacobi_search(r, sides, cfg, warm, RETAINED_INFORMATION)
                ref = _compass_information(state, sides, cfg, warm)
                assert jac.best_value >= ref.best_value - 1e-10


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
def test_one_sided_entropic_search_certified_by_sphere_grid(dims):
    # a measured qubit's bases are the Bloch sphere, one projective measurement
    # per antipodal pair, so the objective's maximum over a projective grid of
    # Bloch bases bounds the search's value from below
    bases = np.array([td.bloch_basis(a).vectors for a in projective_grid(64)])
    for seed in range(4):
        state = td.random_state(*dims, rank=seed % (dims[0] * dims[1]) + 1, seed=seed)
        r = state.reshaped()
        oracle = _one_sided_information(r, bases, "A").max()
        res = jacobi_search(r, ("A",), OptimizerConfig(restarts=8, seed=seed),
                            warm_start_bases(state, ("A",)), RETAINED_INFORMATION)
        assert res.best_value >= oracle - 1e-12


class TestLocalUnitaryInvariance:
    """Every optimized discord is a function of the state's local-unitary orbit."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3)]))
    @settings(max_examples=12, deadline=None)
    def test_values_invariant(self, seed, dims):
        rng = np.random.default_rng(seed)
        na, nb = dims
        state = random_bipartite(rng, na, nb, rank=int(rng.integers(1, na * nb + 1)))
        w = np.kron(haar_unitary(rng, na), haar_unitary(rng, nb))
        moved = td.make_bipartite(w @ state.entries @ w.conj().T, na, nb)
        cfg = OptimizerConfig(restarts=16, seed=0)
        searches = [
            td.geo_discord_two_sided,
            lambda s, c: td.geo_discord_one_sided(s, "A", c),
            lambda s, c: td.geo_discord_one_sided(s, "B", c),
            td.discord_two_sided,
        ]
        for search in searches:
            assert search(moved, cfg).value == pytest.approx(search(state, cfg).value, abs=1e-6)


class TestSphereRoutines:
    def test_grid_shape_and_norms(self):
        pts = sphere_grid(8)
        assert pts.shape == (9 * 16, 3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert any(np.allclose(p, [0, 0, 1]) for p in pts)

    def test_alternating_decoupled_maxima(self):
        b = td.TwoQubitBloch(np.array([0.0, 0.0, 0.9]), np.array([0.9, 0.0, 0.0]),
                             np.zeros((3, 3)))
        a, bv, value = td.alternating_sphere_max(b, OptimizerConfig(restarts=4, seed=0))
        assert value == pytest.approx(0.81 + 0.81, abs=1e-10)

    def test_alternating_bell_tensor(self):
        b = td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        _, _, value = td.alternating_sphere_max(b, OptimizerConfig(restarts=4, seed=0))
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_oracle_trivial_zero(self):
        b = td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert td.sphere_grid_oracle(b, 16) == pytest.approx(0.0, abs=1e-15)

    def test_oracle_resolution_monotone_toward_one(self):
        b = td.TwoQubitBloch(np.zeros(3), np.zeros(3), 0.99 * np.diag([1.0, -1.0, 1.0]))
        vals = [td.sphere_grid_oracle(b, r) for r in (50, 100, 200)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
        assert vals[2] <= 0.99**2 + 1e-12

    def test_oracle_certifies_alternating(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            st = td.random_state(2, 2, rank=4, seed=seed)
            b = td.to_bloch(st)
            _, _, alt = td.alternating_sphere_max(b, OptimizerConfig(restarts=8, seed=0))
            grid = td.sphere_grid_oracle(b, 200)
            assert alt == pytest.approx(grid, abs=1e-4)

    def test_oracle_rejects_tiny_resolution(self):
        b = td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(td.DomainError):
            td.sphere_grid_oracle(b, 4)


def _alternating_reference(b, cfg):
    """The alternation run one start at a time; (value, restarts, iterations)."""
    x, y, t = b.x, b.y, b.t

    def top(m):
        vec = np.linalg.eigh(m)[1][:, -1]
        piv = int(np.argmax(np.abs(vec)))
        return -vec if vec[piv] < 0 else vec

    starts = [np.eye(3)[i] for i in range(3)] + [np.linalg.svd(t)[2][0]]
    if np.linalg.norm(y) > 0:
        starts.append(y / np.linalg.norm(y))
    for r in range(cfg.restarts):
        v = np.random.default_rng([cfg.seed, r]).standard_normal(3)
        starts.append(v / np.linalg.norm(v))
    best, total_iters = -np.inf, 0
    for bv in starts:
        val = -np.inf
        for _ in range(optimize._MAX_ITERATIONS):
            total_iters += 1
            w = t @ bv
            a = top(np.outer(x, x) + np.outer(w, w))
            w2 = t.T @ a
            bv = top(np.outer(y, y) + np.outer(w2, w2))
            new = td.two_qubit_geo_objective(b, a, bv)
            if new - val < optimize._VALUE_TOLERANCE:
                val = max(val, new)
                break
            val = new
        if val > best + optimize._VALUE_TOLERANCE:
            best = val
    return best, len(starts), total_iters


class TestReducedBloch:
    def _cases(self):
        rng = np.random.default_rng(12)
        for seed in range(8):
            b = td.to_bloch(td.random_state(2, 2, rank=seed % 4 + 1, seed=seed))
            a = rng.standard_normal((5, 3))
            yield b, a / np.linalg.norm(a, axis=1, keepdims=True)

    def test_is_the_maximum_over_b(self):
        for b, a in self._cases():
            f, _, bv = _reduced_bloch(b, a)
            w = a @ b.t
            top = np.linalg.eigvalsh(np.outer(b.y, b.y) + w[:, :, None] * w[:, None, :])[:, -1]
            np.testing.assert_allclose(f, (a @ b.x) ** 2 + top, rtol=0, atol=1e-13)
            attained = (a @ b.x) ** 2 + (bv @ b.y) ** 2 + np.sum(w * bv, axis=1) ** 2
            np.testing.assert_allclose(attained, f, rtol=0, atol=1e-14)

    def test_derivatives_match_central_differences(self):
        eps = 1e-5
        for b, a in self._cases():
            derivatives = _reduced_bloch_derivatives(b)
            grad, hess = derivatives(a)
            for i in range(3):
                e = eps * np.eye(3)[i]
                fd = (_reduced_bloch(b, a + e)[0] - _reduced_bloch(b, a - e)[0]) / (2 * eps)
                np.testing.assert_allclose(grad[:, i], fd, rtol=0, atol=1e-8)
                g_p, _ = derivatives(a + e)
                g_m, _ = derivatives(a - e)
                np.testing.assert_allclose(hess[:, :, i], (g_p - g_m) / (2 * eps),
                                           rtol=0, atol=1e-6)


def _signed_top(m):
    """The top eigenvector of a symmetric 3x3 matrix from eigh, its first
    component of largest magnitude made positive."""
    vec = np.linalg.eigh(m)[1][:, -1]
    return -vec if vec[int(np.argmax(np.abs(vec)))] < 0 else vec


def _span_case(y, w, x=np.zeros(3)):
    """Bloch data whose row a = e_1 has T^t a = w, and that row."""
    return td.TwoQubitBloch(x, y, np.vstack([w, np.zeros((2, 3))])), np.eye(3)[:1]


class TestGramHalfStep:
    # the b of _reduced_bloch is the top eigenvector of y y^t + w w^t,
    # w = T^t a, taken from the 2x2 Gram of y and w instead of eigh
    def test_matches_eigh_on_random_rows(self):
        rng = np.random.default_rng(23)
        for seed in range(8):
            b = td.to_bloch(td.random_state(2, 2, rank=seed % 4 + 1, seed=seed))
            a = rng.standard_normal((6, 3))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            bv = _reduced_bloch(b, a)[2]
            for row, w in zip(bv, a @ b.t):
                want = _signed_top(np.outer(b.y, b.y) + np.outer(w, w))
                np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("wide", [True, False])
    def test_no_cancellation_at_a_tiny_gram_offdiagonal(self, wide):
        # y and w almost orthogonal, |y| > |w| or |y| < |w|: the other
        # formula for the Gram's eigenvector cancels to rounding noise
        u, v = np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0])
        y, w = (0.8 * u, 0.3 * v + 1e-9 * u) if wide else (0.3 * u, 0.8 * v + 1e-9 * u)
        bv = _reduced_bloch(*_span_case(y, w))[2][0]
        want = _signed_top(np.outer(y, y) + np.outer(w, w))
        np.testing.assert_allclose(bv, want, rtol=0, atol=1e-13)
        assert abs(np.linalg.norm(bv) - 1.0) < 1e-15

    @pytest.mark.parametrize("case", ["y = 0", "w = 0", "both zero", "parallel"])
    def test_degenerate_spans(self, case):
        # the sign rule makes the component of largest magnitude, 0.64, positive
        u = np.array([-0.48, 0.6, 0.64])
        y, w, want = {
            "y = 0": (np.zeros(3), -0.7 * u, u),
            "w = 0": (-0.7 * u, np.zeros(3), u),
            "both zero": (np.zeros(3), np.zeros(3), np.array([0.0, 0.0, 1.0])),
            "parallel": (-0.5 * u, 0.3 * u, u),
        }[case]
        x = np.array([0.1, 0.2, 0.3])
        f, r, bv = _reduced_bloch(*_span_case(y, w, x))
        np.testing.assert_allclose(bv[0], want, rtol=0, atol=1e-15)
        assert f[0] == pytest.approx(0.01 + y @ y + w @ w, abs=1e-15)
        assert r[0] == pytest.approx(y @ y + w @ w, abs=1e-15)

    @pytest.mark.parametrize("frame", ["axes", "rotated"])
    def test_double_eigenvalue_attains_the_top(self, frame):
        # y and w orthogonal with equal norms: every unit vector of their span
        # is a top eigenvector, so only the value it attains is fixed; along
        # the axes the Gram is exactly 0.25 I and b falls back on y / |y|
        q = np.eye(3) if frame == "axes" else np.linalg.qr(
            np.random.default_rng(3).standard_normal((3, 3)))[0]
        y, w = 0.5 * q[:, 0], 0.5 * q[:, 1]
        b, a = _span_case(y, w)
        f, r, bv = _reduced_bloch(b, a)
        assert r[0] <= 1e-16
        assert np.linalg.norm(bv[0]) == pytest.approx(1.0, abs=1e-15)
        assert abs(bv[0] @ np.cross(y, w)) <= 1e-15
        assert (bv[0] @ y) ** 2 + (bv[0] @ w) ** 2 == pytest.approx(0.25, abs=1e-15)
        assert f[0] == pytest.approx(0.25, abs=1e-15)
        if frame == "axes":
            assert np.array_equal(bv[0], [1.0, 0.0, 0.0])


class TestRandomDirections:
    def test_read_only_and_built_once(self):
        starts = optimize._random_directions(0, 64)
        assert optimize._random_directions(0, 64) is starts
        assert starts.shape == (64, 3)
        with pytest.raises(ValueError):
            starts[0, 0] = 1.0

    def test_each_row_is_its_seeded_draw(self):
        starts = optimize._random_directions(5, 16)
        for r, row in enumerate(starts):
            v = np.random.default_rng([5, r]).standard_normal(3)
            assert np.array_equal(row, v / np.linalg.norm(v))

    def test_fewer_restarts_are_a_prefix(self):
        assert np.array_equal(optimize._random_directions(0, 16),
                              optimize._random_directions(0, 64)[:16])

    def test_no_restarts(self):
        assert optimize._random_directions(0, 0).shape == (0, 3)


class TestAlternatingLockstep:
    @pytest.mark.parametrize("restarts", [4, 8, 64])
    def test_matches_per_start_reference(self, restarts):
        # from the same starts, never below the half-step reference's winner:
        # the Newton steps only add ascent, and the reference stops its
        # crawls early; never more iterations, and fewer in all
        cfg = OptimizerConfig(restarts=restarts, seed=0)
        saved = 0
        for seed in range(20):
            b = td.to_bloch(td.random_state(2, 2, rank=seed % 4 + 1, seed=seed))
            report = _alternating_detail(b, cfg)
            a, bv = report.best_params
            want, runs, iters = _alternating_reference(b, cfg)
            assert report.best_value >= want - 1e-13
            assert report.restarts_run == runs
            assert report.iterations_total <= iters
            saved += iters - report.iterations_total
            assert td.two_qubit_geo_objective(b, a, bv) == pytest.approx(
                report.best_value, abs=1e-14)
        assert saved > 0

    def test_converged_is_the_winners_flag(self, monkeypatch):
        # at a cap of 3 iterations the winner stops at the cap while a start
        # that caught up with it retires earlier
        b = td.to_bloch(td.random_state(2, 2, rank=4, seed=1))
        cfg = OptimizerConfig(restarts=8)
        converged = _alternating_detail(b, cfg).converged
        monkeypatch.setattr(optimize, "_MAX_ITERATIONS", 3)
        report = _alternating_detail(b, cfg)
        assert report.iterations_total < 3 * report.restarts_run
        assert not report.converged
        assert converged

    @pytest.mark.parametrize("seed", range(3))
    def test_no_crawl_near_maximal_entanglement(self, seed):
        # cos t |00> + sin t |11>, t = pi/4 - 0.02, in seeded local frames: the
        # half-steps alone zigzag along a near-flat ridge until every start
        # reaches the iteration cap; the maximum is 1 + 2 cos(2t)^2
        theta = np.pi / 4 - 0.02
        rng = np.random.default_rng([17, seed])
        psi = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) @ [np.cos(theta), 0, 0,
                                                                      np.sin(theta)]
        b = td.to_bloch(td.make_bipartite(np.outer(psi, psi.conj()), 2, 2))
        report = _alternating_detail(b, OptimizerConfig(restarts=64))
        assert report.iterations_total <= 1000
        assert report.best_value == pytest.approx(1.0 + 2.0 * np.cos(2 * theta) ** 2, abs=1e-12)

    def test_sphere_max_is_a_view_of_the_result(self):
        for seed in range(4):
            b = td.to_bloch(td.random_state(2, 2, rank=seed + 1, seed=seed))
            cfg = OptimizerConfig(restarts=8, seed=seed)
            report = _alternating_detail(b, cfg)
            a, bv, value = td.alternating_sphere_max(b, cfg)
            assert np.array_equal(a, report.best_params[0])
            assert np.array_equal(bv, report.best_params[1])
            assert value == report.best_value


class TestProjectiveGrid:
    @pytest.mark.parametrize("resolution", [8, 9, 16, 33])
    def test_count(self, resolution):
        assert projective_grid(resolution).shape == (resolution**2 - resolution + 1, 3)

    @pytest.mark.parametrize("resolution", [9, 16, 32])
    def test_covers_sphere_grid_once_per_antipodal_pair(self, resolution):
        full, half = sphere_grid(resolution), projective_grid(resolution)
        dist = np.minimum(
            np.linalg.norm(full[:, None] - half[None], axis=2),
            np.linalg.norm(full[:, None] + half[None], axis=2),
        )
        assert dist.min(axis=1).max() <= 1e-15
        same = np.minimum(
            np.linalg.norm(half[:, None] - half[None], axis=2),
            np.linalg.norm(half[:, None] + half[None], axis=2),
        )
        np.fill_diagonal(same, np.inf)
        assert same.min() > 1e-6

    @pytest.mark.parametrize("resolution", [8, 9, 16, 33, 400])
    def test_equals_selected_sphere_grid_rows(self, resolution):
        # pole, the latitudes 0 < 2i < R, and for even R half the equator
        r = resolution
        lat = np.arange(1, (r + 1) // 2)
        idx = [np.zeros(1, dtype=int), (lat[:, None] * 2 * r + np.arange(2 * r)).ravel()]
        if r % 2 == 0:
            idx.append(r * r + np.arange(r))
        assert np.array_equal(projective_grid(r), sphere_grid(r)[np.concatenate(idx)])

    @pytest.mark.parametrize("resolution", [0, -3, 4, 7])
    def test_rejects_small_resolution(self, resolution):
        with pytest.raises(td.DomainError):
            projective_grid(resolution)

    def test_built_once_and_read_only(self):
        pts = projective_grid(16)
        assert projective_grid(16) is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0

    @pytest.mark.parametrize("resolution", [8, 9, 16, 21, 33, 42, 65])
    def test_grid_oracle_matches_full_grid(self, resolution):
        # brute force over every pair of grid points
        pts = sphere_grid(resolution) if resolution <= 33 else projective_grid(resolution)
        for b in _grid_oracle_states():
            assert td.sphere_grid_oracle(b, resolution) == pytest.approx(
                _brute_grid_max(b, pts), abs=1e-12)

    @pytest.mark.parametrize("resolution", [21, 42])
    def test_grid_oracle_matches_brute_force_with_partial_last_cells(self, resolution):
        # R = 21: 10 open bands of 42 longitudes; R = 42: 20 open bands of 84
        # longitudes and a half equator of 42; no count is a multiple of the
        # cell height or width
        open_bands = (resolution + 1) // 2 - 1
        assert open_bands % optimize._CELL_BANDS
        assert (2 * resolution) % optimize._CELL_LONGITUDES
        assert resolution % 2 or resolution % optimize._CELL_LONGITUDES
        pts = projective_grid(resolution)
        for seed in range(4):
            b = td.to_bloch(td.random_state(2, 2, rank=seed + 1, seed=seed))
            assert td.sphere_grid_oracle(b, resolution) == pytest.approx(
                _brute_grid_max(b, pts), abs=1e-15)

    def test_grid_oracle_cells_match_whole_grid_scan(self):
        # at R = 400 the cell search agrees with a scan of every row whose
        # bound can beat the incumbent (the product state would crawl there)
        pts = projective_grid(400)
        for b in _grid_oracle_states():
            if np.any(b.x) or np.any(b.t):
                assert td.sphere_grid_oracle(b, 400) == pytest.approx(
                    _scanned_grid_max(b, pts), abs=1e-15)

    @pytest.mark.parametrize("where", ["pole", "equator", "last band"])
    def test_grid_oracle_scans_each_row_once(self, where, monkeypatch):
        # the optimum's row a has value below its bound F(a), since T^t a
        # is no grid direction, and every other row's bound lies below that
        # value; the cell search scans a once, perhaps twice after seeding
        # from it, never once per cell that holds it. Each scanned row bounds
        # its B cells once; two more calls bound the cells of (b.y)^2 and
        # the A cells.
        pts = projective_grid(400)
        a = {"pole": pts[0], "equator": pts[-1], "last band": pts[-401]}[where]
        b = td.TwoQubitBloch(0.6 * a, np.zeros(3), np.outer(a, [0.3, 0.2, 0.1]))
        calls = []
        cell_bound = optimize._cell_bound
        monkeypatch.setattr(optimize, "_cell_bound",
                            lambda cells, *v: calls.append(1) or cell_bound(cells, *v))
        value = td.sphere_grid_oracle(b, 400)
        assert value == pytest.approx(0.36 + np.max((pts @ [0.3, 0.2, 0.1]) ** 2), abs=1e-15)
        assert value < 0.36 + 0.14 - 1e-9
        assert 1 <= len(calls) - 2 <= 2

    @pytest.mark.parametrize("resolution", [200, 400])
    def test_grid_oracle_prunes_flat_unattained_row_bounds(self, resolution):
        # I/2 (x) rho_B: x = 0 and T = 0, so every row bound F = |y|^2 lies
        # above the grid maximum of (b.y)^2, which is also every row's value
        b = _half_identity_product()
        np.testing.assert_allclose(b.y, [0.42, 0.26, 0.24], atol=1e-15)
        start = time.perf_counter()
        value = td.sphere_grid_oracle(b, resolution)
        assert time.perf_counter() - start < 0.5
        assert value == pytest.approx(np.max((projective_grid(resolution) @ b.y) ** 2),
                                      abs=1e-15)

    def test_grid_oracle_memory_stays_small_on_flat_objectives(self):
        # Werner 2x2 is flat, so every cell survives; the cells are scored a
        # block at a time, never built whole (the grid alone is 3.8 MB)
        b = td.to_bloch(td.werner(2, 0.9))
        td.sphere_grid_oracle(b, 400)  # builds the grid and its cells
        tracemalloc.start()
        try:
            td.sphere_grid_oracle(b, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_grid_oracle_repeats(self):
        b = td.to_bloch(td.random_state(2, 2, rank=3, seed=7))
        assert td.sphere_grid_oracle(b, 400) == td.sphere_grid_oracle(b, 400)


def _half_identity_product():
    """I/2 (x) rho_B: x = 0, T = 0 and y = (0.42, 0.26, 0.24)."""
    rho_b = np.array([[0.62, 0.21 - 0.13j], [0.21 + 0.13j, 0.38]])
    return td.to_bloch(td.make_bipartite(np.kron(np.eye(2) / 2, rho_b), 2, 2))


def _grid_oracle_states():
    """Random states of rank 1-4, zero-marginal states, Werner 2x2, a
    near-Bell tensor, the product ``_half_identity_product``, the zero state
    and a rotationally symmetric state."""
    states = [td.to_bloch(td.random_state(2, 2, rank=r, seed=r)) for r in (1, 2, 3, 4)]
    states += [td.TwoQubitBloch(np.zeros(3), np.zeros(3), s.t) for s in states[:2]]
    return states + [
        td.to_bloch(td.werner(2, 0.3)),
        td.TwoQubitBloch(np.zeros(3), np.zeros(3), 0.99 * np.diag([1.0, -1.0, 1.0])),
        _half_identity_product(),
        td.TwoQubitBloch(np.zeros(3), np.zeros(3), np.zeros((3, 3))),
        td.TwoQubitBloch(np.array([0, 0, 0.1]), np.array([0, 0, 0.1]), np.diag([0.3, 0.3, 0.2])),
    ]


def _brute_grid_max(b, pts):
    """The objective's maximum over every pair of rows of pts, in blocks."""
    return max(
        np.max(((pts[lo:lo + 512] @ b.x) ** 2)[:, None] + ((pts @ b.y) ** 2)[None]
               + (pts[lo:lo + 512] @ b.t @ pts.T) ** 2)
        for lo in range(0, len(pts), 512)
    )


def _scanned_grid_max(b, pts):
    """The objective's maximum over every pair of rows of pts, scanning the
    rows in decreasing bound F(a) until no bound can beat the incumbent."""
    by2 = (pts @ b.y) ** 2
    ub = _reduced_bloch(b, pts)[0]
    best = -np.inf
    for i in np.argsort(-ub, kind="stable"):
        if ub[i] <= best:
            break
        best = max(best, float(pts[i] @ b.x) ** 2 + np.max(by2 + (pts @ (pts[i] @ b.t)) ** 2))
    return best


class TestGridCells:
    @pytest.mark.parametrize("resolution", [8, 9, 16, 21, 33, 42, 65, 400])
    def test_cells_partition_the_grid(self, resolution):
        # the cells' directions are the grid's rows, bit for bit, each once
        cells = _grid_cells(resolution)
        u = cells.directions(np.arange(len(cells.band)))
        pts = projective_grid(resolution)
        assert u.shape == pts.shape
        assert np.array_equal(u[np.lexsort(u.T)], pts[np.lexsort(pts.T)])

    @pytest.mark.parametrize("resolution", [16, 65, 400])
    def test_directions_of_many_cells(self, resolution):
        cells = _grid_cells(resolution)
        rng = np.random.default_rng(resolution)
        for k in (0, 1, 2, len(cells.band) // 2, len(cells.band)):
            ids = np.sort(rng.choice(len(cells.band), size=k, replace=False))
            want = [cells.directions([c]) for c in ids]
            assert np.array_equal(cells.directions(ids), np.concatenate([np.empty((0, 3)), *want]))

    def test_cell_count(self):
        # 25 groups of 8 of the 199 open bands, 50 runs of their 800
        # longitudes, 25 runs of the half equator, and the pole
        assert len(_grid_cells(400).band) == 25 * 50 + 25 + 1

    def test_grid_oracle_never_builds_the_grid(self, monkeypatch):
        # from cold caches the R = 400 oracle builds its cells and their
        # angle tables only; the grid alone is 3.8 MB
        def no_grid(resolution):
            raise AssertionError("projective_grid was called")

        b = td.to_bloch(td.random_state(2, 2, rank=3, seed=7))
        want = td.sphere_grid_oracle(b, 400)
        _grid_cells.cache_clear()
        monkeypatch.setattr(optimize, "projective_grid", no_grid)
        tracemalloc.start()
        try:
            value = td.sphere_grid_oracle(b, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == want
        assert peak < 2_000_000

    @pytest.mark.parametrize("resolution", [0, -3, 4, 7])
    def test_rejects_small_resolution(self, resolution):
        b = td.to_bloch(td.random_state(2, 2, rank=2, seed=1))
        with pytest.raises(td.DomainError):
            _grid_cells(resolution)
        with pytest.raises(td.DomainError):
            td.sphere_grid_oracle(b, resolution)

    def test_built_once_small_and_read_only(self):
        cells = _grid_cells(400)
        assert _grid_cells(400) is cells
        assert sum(a.nbytes for a in cells) < 200_000
        with pytest.raises(ValueError):
            cells.corners[0, 0] = 0.0

    @pytest.mark.parametrize("resolution", [9, 16, 65, 400])
    def test_corner_bounds_hold_on_every_member(self, resolution):
        # F, the Gy bound and q_a are convex and smallest at 0, so no member
        # of a cell exceeds the largest value at the cell's corners; the
        # smaller of F's and the Gy bound's corner bounds bounds their minimum
        rng = np.random.default_rng(resolution)
        cells, pts = _grid_cells(resolution), projective_grid(resolution)
        ids = rng.choice(len(cells.band), size=min(40, len(cells.band)), replace=False)
        for seed in range(6):
            b = td.to_bloch(td.random_state(2, 2, rank=seed % 4 + 1, seed=seed))
            gy = float(np.max((pts @ b.y) ** 2))
            f_cell, g_cell = (_cell_bound(cells, v) for v in _row_bounds(b, cells.corners, gy))
            row_cell = _cell_bound(cells, *_row_bounds(b, cells.corners, gy))
            a = rng.standard_normal(3)
            w = (a / np.linalg.norm(a)) @ b.t
            q_cell = _cell_bound(cells, (cells.corners @ b.y) ** 2 + (cells.corners @ w) ** 2)
            for c in ids:
                m = cells.directions([c])
                f, g = _row_bounds(b, m, gy)
                assert f.max() <= f_cell[c] + 1e-12
                assert g.max() <= g_cell[c] + 1e-12
                assert np.minimum(f, g).max() <= row_cell[c] + 1e-12
                assert ((m @ b.y) ** 2 + (m @ w) ** 2).max() <= q_cell[c] + 1e-12

    def test_smallest_corner_bound_holds_where_the_row_bounds_cross(self):
        # Bloch data with small T, where F and the Gy bound cross inside
        # some cells: their pointwise minimum is not convex there, and its
        # own corner values fall below it at some members
        cells, pts = _grid_cells(65), projective_grid(65)
        members = [cells.directions([c]) for c in range(len(cells.band))]
        rng = np.random.default_rng(1)
        for _ in range(25):
            y = rng.standard_normal(3)
            y *= rng.uniform(0.05, 1.0) / np.linalg.norm(y)
            x = rng.standard_normal(3)
            x *= rng.uniform(0.0, 1.0) * rng.integers(0, 2) / np.linalg.norm(x)
            gy = float(np.max((pts @ y) ** 2))
            t = rng.standard_normal((3, 3))
            t *= 10 ** rng.uniform(-2.0, 0.3) / np.linalg.norm(t, 2)
            b = td.TwoQubitBloch(x, y, t)
            bound = _cell_bound(cells, *_row_bounds(b, cells.corners, gy))
            for c, m in enumerate(members):
                assert np.minimum(*_row_bounds(b, m, gy)).max() <= bound[c] + 1e-12

    def test_corner_bounds_hold_on_tight_equator_cells(self):
        # along the equator a cell's end members lie exactly its angular
        # radius from its centre; with x along the equator there, (a.x)^2 at
        # those members nearly meets the corner bound
        cells = _grid_cells(400)
        equator = np.flatnonzero(cells.band == 200)
        assert len(equator) == 25
        for c in equator:
            m = cells.directions([c])
            centre = cells.corners.reshape(4, -1, 3)[:, c].mean(axis=0)
            x = 0.9 * np.cross([0.0, 0.0, 1.0], centre / np.linalg.norm(centre))
            b = td.TwoQubitBloch(x, np.zeros(3), np.zeros((3, 3)))
            f = _row_bounds(b, m, 0.0)[0]
            bound = _cell_bound(cells, _row_bounds(b, cells.corners, 0.0)[0])[c]
            assert 0.99 * bound < f.max() <= bound
