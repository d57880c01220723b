import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twodiscord as td
from twodiscord import OptimizerConfig
from twodiscord import optimize
from twodiscord import cli
from twodiscord import entropic
from twodiscord.entropic import RETAINED_INFORMATION, entropy_of_spectra, shannon_bits
from twodiscord.measurement import haar_unitary
from twodiscord.optimize import (
    RETAINED_PURITY,
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
    _retained_purities,
    _rotations,
    _round_robin,
    _row_bounds,
    _start_points,
    jacobi_search,
    projective_grid,
    rotated_states,
    warm_start_bases,
)
from twodiscord.states import FAMILY_DOMAINS
from twodiscord.verification import CLOSED_FORMS, random_basis, random_bipartite, random_density

from exact_reference import (
    classical_quantum,
    classical_quantum_geometric_discord,
    family_entropic_discord,
    in_random_frames,
    pure_entropic_discord,
    pure_geometric_discord,
    pure_state,
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


class TestLockstep:
    def test_jacobi_searches_stop_at_the_iteration_cap(self, monkeypatch):
        # every start of the geometric and entropic Jacobi searches, two- and
        # one-sided, runs to the cap, so each reports cap x starts sweeps and
        # a winner that did not converge
        monkeypatch.setattr(optimize, "_MAX_ITERATIONS", 2)
        r = random_bipartite(np.random.default_rng([7, 3, 3]), 3, 3).reshaped()
        cfg = OptimizerConfig(restarts=8, seed=1)
        for objective in (RETAINED_PURITY, RETAINED_INFORMATION):
            for sides in (("A", "B"), ("A",), ("B",)):
                res = jacobi_search(r, sides, cfg, objective=objective)
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


def _side_blocks(r, u, side):
    """Blocks <o|rho|o> on the measured side for each basis in an (N, n, n) stack.

    Side A gives (N, na, nb, nb) blocks, side B gives (N, nb, na, na).
    """
    n, d = u.shape[0], u.shape[1]
    rows = np.einsum("nao,nco->noac", u.conj(), u).reshape(n * d, d * d)
    rm = r.transpose(0, 2, 1, 3) if side == "A" else r.transpose(1, 3, 0, 2)
    m = rm.shape[2]
    return (rows @ rm.reshape(d * d, m * m)).reshape(n, d, m, m)


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


def _two_sided_purity(r, points):
    """The retained purity of r in each pair of bases of (N, na, na) and (N, nb, nb) stacks."""
    return _retained_purities(_dephased(rotated_states(r, *points), ("A", "B")))


def _measured_in(r, u, side):
    """r in each basis of an (N, n, n) stack on the measured ``side``, the
    other side in its computational basis (``rotated_states``)."""
    m = r.shape[1] if side == "A" else r.shape[0]
    eye = np.broadcast_to(np.eye(m, dtype=complex), (len(u), m, m))
    return rotated_states(r, *((u, eye) if side == "A" else (eye, u)))


def _in_plane(u, j, k, v):
    """Each basis of an (R, n, n) stack with vectors j and k rotated by the
    rotation of each unit 3-vector in the (V, 3) stack v (``_rotations``):
    an (R * V, n, n) stack, restart-major."""
    c, s, ph = (x[:, None] for x in _rotations(v))
    out = np.repeat(u[:, None], len(v), axis=1)
    uj, uk = u[:, None, :, j], u[:, None, :, k]
    out[..., j] = c * uj + ph * s * uk
    out[..., k] = -ph.conj() * s * uj + c * uk
    return out.reshape(-1, *u.shape[1:])


class TestJacobiStep:
    """A Jacobi step takes the best rotation of its plane, in closed form: the
    purity after it is the base value plus 2 (lambda_max(G) - G_00), and no
    rotation of the plane, sampled densely, scores higher."""

    RESTARTS = 3
    # 400 directions v, each the rotation of one plane that _rotations realizes
    SAMPLES = np.random.default_rng(53).standard_normal((400, 3))
    SAMPLES /= np.linalg.norm(SAMPLES, axis=1, keepdims=True)

    def _setup(self, dims):
        rng = np.random.default_rng([29, *dims])
        state = random_bipartite(rng, *dims)
        points = [np.array([haar_unitary(rng, n) for _ in range(self.RESTARTS)]) for n in dims]
        return state.reshaped(), points

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    def test_two_sided_step_is_exact_and_best_in_its_plane(self, dims):
        r, points = self._setup(dims)
        base = _two_sided_purity(r, points)
        rt = rotated_states(r, *points)
        for q, side in enumerate("AB"):
            for j, k in itertools.combinations(range(dims[q]), 2):
                jj, kk = np.array([j]), np.array([k])
                gram = _gram(_measured_first(rt, side), jj, kk, True)
                want = base + 2.0 * (np.linalg.eigvalsh(gram)[:, -1] - gram[:, 0, 0])
                moved = [u.copy() for u in points]
                _jacobi_step(moved[q], _measured_first(rt, side), jj, kk, True, _purity_plane)
                np.testing.assert_allclose(_two_sided_purity(r, moved), want, rtol=0, atol=1e-13)
                dense = [np.repeat(u, len(self.SAMPLES), axis=0) for u in points]
                dense[q] = _in_plane(points[q], j, k, self.SAMPLES)
                vals = _two_sided_purity(r, dense).reshape(self.RESTARTS, -1)
                assert np.all(vals.max(axis=1) <= want + 1e-13)

    @pytest.mark.parametrize("dims,side", [((2, 3), "A"), ((2, 3), "B"), ((3, 2), "A"),
                                           ((3, 3), "A"), ((3, 3), "B")])
    def test_one_sided_step_is_exact_and_best_in_its_plane(self, dims, side):
        r, points = self._setup(dims)
        q = "AB".index(side)
        u = points[q]
        rt = _measured_in(r, u, side)
        base = _one_sided_purity(r, u, side)
        for j, k in itertools.combinations(range(dims[q]), 2):
            jj, kk = np.array([j]), np.array([k])
            gram = _gram(_measured_first(rt, side), jj, kk, False)
            want = base + 2.0 * (np.linalg.eigvalsh(gram)[:, -1] - gram[:, 0, 0])
            moved = u.copy()
            _jacobi_step(moved, _measured_first(rt, side), jj, kk, False, _purity_plane)
            np.testing.assert_allclose(_one_sided_purity(r, moved, side), want, rtol=0, atol=1e-13)
            dense = _measured_in(r, _in_plane(u, j, k, self.SAMPLES), side)
            vals = _retained_purities(_dephased(dense, (side,)))
            assert np.all(vals.reshape(self.RESTARTS, -1).max(axis=1) <= want + 1e-13)


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

    @pytest.mark.parametrize("sides", [("A", "B"), ("A",), ("B",)])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_constant_objective_converges_every_start(self, dims, sides):
        # every basis retains purity 1/d of the maximally mixed state, so
        # every start stops converged after its first sweep
        d = dims[0] * dims[1]
        r = td.make_bipartite(np.eye(d) / d, *dims).reshaped()
        res = jacobi_search(r, sides, OptimizerConfig(restarts=4, seed=0))
        assert res.best_value == pytest.approx(1.0 / d, abs=1e-15)
        assert res.converged
        assert res.iterations_total == res.restarts_run == 4

    @pytest.mark.parametrize("sides", [("A", "B"), ("A",), ("B",)])
    def test_reaches_a_classical_classical_optimum(self, sides):
        # a classical-classical state in Haar bases keeps its whole purity
        # sum p^2 only in its own bases, up to phases and a permutation; with
        # no warm start the random starts must find them
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(6)).reshape(2, 3)
        bases = {"A": random_basis(rng, 2), "B": random_basis(rng, 3)}
        r = td.classical_classical(p, bases["A"], bases["B"]).reshaped()
        res = jacobi_search(r, sides, OptimizerConfig(restarts=8, seed=0))
        assert res.best_value == pytest.approx(np.sum(p * p), abs=1e-10)
        for side, u in zip(sides, res.best_params, strict=True):
            overlap = np.abs(bases[side].vectors.conj().T @ u)
            perm = np.round(overlap)
            np.testing.assert_array_equal(perm.sum(axis=0), 1.0)
            np.testing.assert_array_equal(perm.sum(axis=1), 1.0)
            np.testing.assert_allclose(overlap, perm, rtol=0, atol=1e-5)

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


class TestTwoQubitSearch:
    def test_meets_the_bloch_route(self):
        # on 2x2 the Jacobi search and the alternation of two_qubit_geo, an
        # independent route through the Bloch form, reach the same value
        for seed in range(16):
            rng = np.random.default_rng([31, seed, 2, 2])
            state = random_bipartite(rng, 2, 2, rank=seed % 4 + 1)
            cfg = OptimizerConfig(restarts=16, seed=seed)
            want = td.two_qubit_geo(td.to_bloch(state), cfg).value
            assert td.geo_discord_two_sided(state, cfg).value == pytest.approx(want, abs=1e-10)


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


# ---------------------------------------------------------------------------
# exact references (exact_reference): every search, in seeded and drawn local frames

REFERENCE_CFG = OptimizerConfig(restarts=16, seed=0)
FAMILIES = [(family, m) for family in ("werner", "isotropic") for m in range(2, 7)]
PURE_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 4)]
CQ_SHAPES = [(n, m, quantum) for n, m in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
             for quantum in "AB"]


def _entropic_searches(state, cfg):
    return (td.discord_two_sided(state, cfg), td.discord_one_sided(state, "A", cfg),
            td.discord_one_sided(state, "B", cfg))


def _geometric_searches(state, cfg):
    return (td.geo_discord_two_sided(state, cfg), td.geo_discord_one_sided(state, "A", cfg),
            td.geo_discord_one_sided(state, "B", cfg))


class TestFamilyReferences:
    """Werner and isotropic states: all three entropic searches meet
    log2 m + H(c) - S(rho), and the two-sided geometric search meets the
    family's closed form. In local frames no warm start is optimal."""

    @staticmethod
    def _check(family, m, x, rng):
        make, geo_closed = CLOSED_FORMS[family]
        state = in_random_frames(make(m, x), rng)
        want = family_entropic_discord(family, m, x)
        for got in _entropic_searches(state, REFERENCE_CFG):
            assert got.value == pytest.approx(want, abs=1e-10)
        got = td.geo_discord_two_sided(state, REFERENCE_CFG)
        assert got.value == pytest.approx(geo_closed(m, x), abs=1e-10)

    @pytest.mark.parametrize("family,m", FAMILIES)
    def test_searches_meet_the_closed_forms(self, family, m):
        rng = np.random.default_rng([47, m, family == "werner"])
        for x in rng.uniform(*FAMILY_DOMAINS[family], 3):
            self._check(family, m, x, rng)

    @given(st.sampled_from(FAMILIES), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_drawn_states_meet_the_closed_forms(self, family_m, t, seed):
        family, m = family_m
        lo, hi = FAMILY_DOMAINS[family]
        self._check(family, m, lo + t * (hi - lo), np.random.default_rng(seed))


class TestPureStateReferences:
    """Pure states: every entropic search meets S(rho_A) and every geometric
    search 1 - sum lambda^2, lambda the Schmidt coefficients. The marginals'
    eigenbases are the Schmidt bases, so a warm start is optimal unless
    lambda has ties. Random starts crawl for hundreds of sweeps here, hence
    only two."""

    CFG = OptimizerConfig(restarts=2, seed=0)
    REFERENCES = {"entropic": (_entropic_searches, pure_entropic_discord),
                  "geometric": (_geometric_searches, pure_geometric_discord)}

    def _check(self, dims, schmidt, rng, kinds=("entropic", "geometric")):
        state = pure_state(schmidt, haar_unitary(rng, dims[0]), haar_unitary(rng, dims[1]))
        for kind in kinds:
            searches, reference = self.REFERENCES[kind]
            for got in searches(state, self.CFG):
                assert got.value == pytest.approx(reference(schmidt), abs=1e-10)

    @pytest.mark.parametrize("dims", PURE_DIMS)
    def test_searches_meet_the_closed_forms(self, dims):
        rng = np.random.default_rng([59, *dims])
        self._check(dims, rng.dirichlet(np.ones(min(dims))), rng)

    @given(st.sampled_from(PURE_DIMS[:5]), st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_drawn_states_meet_the_closed_forms(self, dims, seed):
        rng = np.random.default_rng(seed)
        self._check(dims, rng.dirichlet(np.ones(min(dims))), rng)

    @given(st.sampled_from(PURE_DIMS), st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_tied_coefficients_meet_the_geometric_closed_form(self, dims, weights, seed):
        # small integer weights draw ties, whose marginal eigenbases are
        # arbitrary within the tied block, and zeros
        w = np.array(weights[:min(dims)], dtype=float)
        w[0] += w.sum() == 0
        self._check(dims, w / w.sum(), np.random.default_rng(seed), ("geometric",))

    @pytest.mark.xfail(strict=True, reason="the two-sided entropic search stalls short of "
                                           "the optimum on tied Schmidt coefficients")
    def test_tied_coefficients_meet_the_entropic_closed_form(self):
        # (0, 1/2, 1/2) at 3x3: the winner stops converged 2.9e-5 bits above
        # S(rho_A) = 1, at 2 restarts as at 64
        self._check((3, 3), np.array([0.0, 0.5, 0.5]), np.random.default_rng(1), ("entropic",))


class TestClassicalQuantumReferences:
    """sum_i p_i |a_i><a_i| x rho_i: both one-sided discords of the
    classical side are 0, and with a qubit quantum side the two-sided
    geometric search and the qubit side's one-sided discord meet
    (tr M - lambda_max(M))/2. Uniform p leaves the classical marginal
    maximally mixed, so its eigenbasis warm start is arbitrary."""

    @staticmethod
    def _check(n, m, quantum, rng, p):
        states = np.array([random_density(rng, m).entries for _ in range(n)])
        state = in_random_frames(classical_quantum(p, haar_unitary(rng, n), states, quantum), rng)
        classical = "AB"["AB".index(quantum) - 1]
        for got in (td.discord_one_sided(state, classical, REFERENCE_CFG),
                    td.geo_discord_one_sided(state, classical, REFERENCE_CFG)):
            assert got.value == pytest.approx(0.0, abs=1e-10)
        if m == 2:
            want = classical_quantum_geometric_discord(p, states)
            for got in (td.geo_discord_two_sided(state, REFERENCE_CFG),
                        td.geo_discord_one_sided(state, quantum, REFERENCE_CFG)):
                assert got.value == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("n,m,quantum", CQ_SHAPES)
    def test_searches_meet_the_closed_forms(self, n, m, quantum):
        rng = np.random.default_rng([61, n, m, quantum == "A"])
        for p in (np.full(n, 1.0 / n), rng.dirichlet(np.ones(n))):
            self._check(n, m, quantum, rng, p)

    @given(st.sampled_from(CQ_SHAPES), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_drawn_states_meet_the_closed_forms(self, shape, uniform, seed):
        n = shape[0]
        rng = np.random.default_rng(seed)
        self._check(*shape, rng, np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n)))


def _one_sided_information(r, u, side):
    """H(p) - sum_o S(<o|rho|o>) for each basis in an (N, n, n) stack, p_o the
    blocks' traces: the one-sided entropic objective, from the blocks alone."""
    blocks = _side_blocks(r, u, side)
    nn, n, k = blocks.shape[:3]
    s_joint = entropy_of_spectra(np.linalg.eigvalsh(blocks).reshape(nn, n * k))
    p_marg = np.einsum("nokk->no", blocks).real
    return shannon_bits(np.where(p_marg < 0, 0.0, p_marg), axis=-1) - s_joint


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
        moved = in_random_frames(state, rng)
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


class TestHaarStarts:
    def test_each_key_is_built_once(self, monkeypatch):
        built, haar_from_ginibre = [], optimize._haar_from_ginibre

        def counting(g):
            built.append(g.shape)
            return haar_from_ginibre(g)

        monkeypatch.setattr(optimize, "_haar_from_ginibre", counting)
        optimize._haar_starts.cache_clear()
        cfg = OptimizerConfig(restarts=16, seed=5)
        first = _start_points((2, 3), cfg, [])
        stacks = optimize._haar_starts((2, 3), 16, 5)
        second = _start_points((2, 3), cfg, [])
        assert optimize._haar_starts((2, 3), 16, 5) is stacks
        assert built == [(16, 2, 2), (16, 3, 3)]
        for p, q, s in zip(first, second, stacks):
            assert p is not q and np.array_equal(p, q) and np.array_equal(p, s)

    def test_read_only(self):
        for stack in optimize._haar_starts((3, 2), 4, 0):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0

    def test_fewer_restarts_are_a_prefix(self):
        for short, full in zip(optimize._haar_starts((2, 3), 16, 0),
                               optimize._haar_starts((2, 3), 64, 0)):
            assert np.array_equal(short, full[:16])

    def test_side_order_is_part_of_the_key(self):
        optimize._haar_starts.cache_clear()
        ab = optimize._haar_starts((2, 3), 8, 1)
        ba = optimize._haar_starts((3, 2), 8, 1)
        assert optimize._haar_starts.cache_info().currsize == 2
        assert [s.shape for s in ab] == [(8, 2, 2), (8, 3, 3)]
        assert [s.shape for s in ba] == [(8, 3, 3), (8, 2, 2)]
        assert not np.array_equal(ab[1], ba[0]) and not np.array_equal(ab[0], ba[1])

    def test_numpy_integers_draw_the_same_stacks(self):
        optimize._haar_starts.cache_clear()
        cfg = OptimizerConfig(restarts=np.int64(8), seed=np.int32(3))
        numpy_keyed = [s.copy() for s in _start_points((2, 3), cfg, [])]
        optimize._haar_starts.cache_clear()
        python_keyed = _start_points((2, 3), OptimizerConfig(restarts=8, seed=3), [])
        for a, b in zip(numpy_keyed, python_keyed):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_searches_leave_the_cached_stacks_unchanged(self, dims):
        cfg = OptimizerConfig(restarts=8, seed=2)
        state = random_bipartite(np.random.default_rng([17, *dims]), *dims)
        r = state.reshaped()
        jacobi_search(r, ("A", "B"), cfg, warm_start_bases(state, ("A", "B")))
        jacobi_search(r, ("A",), cfg, warm_start_bases(state, ("A",)),
                      objective=RETAINED_INFORMATION)
        cached = (optimize._haar_starts(dims, 8, 2), optimize._haar_starts(dims[:1], 8, 2))
        optimize._haar_starts.cache_clear()
        fresh = (optimize._haar_starts(dims, 8, 2), optimize._haar_starts(dims[:1], 8, 2))
        for old, new in zip(cached, fresh):
            for a, b in zip(old, new):
                assert a is not b and np.array_equal(a, b)

    def test_cold_and_warm_caches_give_the_same_reports(self):
        cfg = OptimizerConfig(restarts=16, seed=4)
        states = [td.random_state(2, 3, 6, 1), td.random_state(3, 3, 9, 1)]

        def reports():
            return [cli.build_report(s, cfg, with_entropic=True) for s in states]

        optimize._haar_starts.cache_clear()
        cold = reports()
        warm = reports()
        other = td.random_state(3, 2, 6, 2)
        td.geo_discord_two_sided(other, OptimizerConfig(restarts=4, seed=9))
        td.discord_one_sided(other, "B", OptimizerConfig(restarts=16, seed=5))
        td.geo_discord_one_sided(states[1], "B", OptimizerConfig(restarts=8, seed=4))
        assert cold == warm == reports()


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
