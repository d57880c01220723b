"""Self-checks: closed-form sweeps, worked examples, and invariant audits.

Every check returns a CheckResult so the same code backs the ``verify``
command and the acceptance test suite. Randomized checks are deterministic
given their seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._contract import EIG_FLOOR, shannon_bits
from .errors import DomainError
from .entropic import (
    discord_two_sided,
    loss_split,
    measured_loss_two_sided,
    mutual_information,
)
from .geometric import (
    correlation_matrix,
    dephased_purity,
    geo_discord_one_sided,
    geo_discord_two_sided,
    hermitian_operator_basis,
    hs_distance_sq,
    isotropic_geo_closed,
    measurement_matrix,
    objective27,
    two_qubit_geo,
    werner_geo_closed,
)
from .measurement import (
    OrthonormalBasis,
    ProductMeasurement,
    dephase_one_sided,
    diagonal_distribution,
    haar_unitary,
)
from .optimize import (
    OptimizerConfig,
    alternating_sphere_max,
    maximize_over_bases,
    projective_grid,
    sphere_grid_oracle,
)
from .states import (
    BipartiteState,
    DensityMatrix,
    _ginibre,
    bell_state,
    classical_classical,
    isotropic,
    make_bipartite,
    partial_trace,
    purity,
    tensor,
    to_bloch,
    werner,
)


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict; ``elapsed`` is wall time, ``cpu`` process CPU time.

    Budgets are judged on wall time. CPU time well below it points at load
    from other processes rather than at a slower program.
    """

    name: str
    passed: bool
    detail: str
    elapsed: float
    cpu: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.detail} [{self.elapsed:.1f}s wall, {self.cpu:.1f}s cpu]"


def _clock() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _since(t0: tuple[float, float]) -> tuple[float, float]:
    """Wall and process CPU seconds since ``_clock()`` returned ``t0``."""
    return time.perf_counter() - t0[0], time.process_time() - t0[1]


# ---------------------------------------------------------------------------
# random object factories (all take an explicit Generator)

def random_density(rng, d: int, rank=None) -> DensityMatrix:
    return DensityMatrix(_ginibre(rng, d, rank or d))


def random_bipartite(rng, na: int, nb: int, rank=None) -> BipartiteState:
    return make_bipartite(_ginibre(rng, na * nb, rank or na * nb), na, nb)


def random_basis(rng, n: int) -> OrthonormalBasis:
    return OrthonormalBasis(haar_unitary(rng, n))


def random_product_measurement(rng, na: int, nb: int) -> ProductMeasurement:
    return ProductMeasurement(random_basis(rng, na), random_basis(rng, nb))


def random_classical_classical(rng, na: int, nb: int) -> BipartiteState:
    p = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
    return classical_classical(p, random_basis(rng, na), random_basis(rng, nb))


def random_product_state(rng, na: int, nb: int) -> BipartiteState:
    return tensor(random_density(rng, na), random_density(rng, nb))


def random_zero_marginal_two_qubit(rng) -> BipartiteState:
    """Mix a random state with its spin-flip to cancel both local vectors."""
    rho = _ginibre(rng, 4, 4)
    yy = np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
    )
    flipped = yy @ rho.conj() @ yy
    return make_bipartite(0.5 * (rho + flipped), 2, 2)


# ---------------------------------------------------------------------------
# independent oracles

def entropic_oracle_two_qubit(state: BipartiteState, resolution: int = 32) -> float:
    """Grid lower bound on the retained mutual information, hence an upper
    bound on the two-sided entropic discord of a two-qubit state.

    For measurement directions (a, b) the diagonal table is
    p(s, t) = (1 + s a.x + t b.y + s t a.T.b) / 4 with s, t = +-1, so the
    whole grid evaluates without touching density matrices. Flipping a or b
    only permutes the table, so both range over ``projective_grid``. The
    marginal entropies depend on one direction each and are computed once
    per direction; the joint entropy is accumulated chunk by chunk in
    preallocated buffers.
    """
    pts = projective_grid(resolution)
    b = to_bloch(state)
    n = len(pts)
    signs = np.array([1.0, -1.0])
    # 0.25 (1 + s a.x) and 0.25 t b.y: p(s, t) = qa[s] + qb[t] + s t m / 4, exactly
    qa = 0.25 * (1.0 + np.multiply.outer(signs, pts @ b.x))
    qb = 0.25 * np.multiply.outer(signs, pts @ b.y)
    marginals = np.clip(2.0 * qa, 0.0, None), np.clip(0.5 + 2.0 * qb, 0.0, None)
    h_a, h_b = (shannon_bits(q, axis=0) for q in marginals)
    t_rows = b.t @ pts.T
    chunk = 32
    m, p, term, retained = (np.empty((chunk, n)) for _ in range(4))
    small = np.empty((chunk, n), dtype=bool)
    best = -np.inf
    for lo in range(0, n, chunk):
        rows = slice(lo, lo + chunk)
        c = min(chunk, n - lo)
        mc, pc, tc, rc, sc = m[:c], p[:c], term[:c], retained[:c], small[:c]
        np.matmul(pts[rows], t_rows, out=mc)
        mc *= 0.25
        # retained information H(A) + H(B) - H(A, B), with H(A, B) subtracted
        # term by term as + p log p (0 where p < EIG_FLOOR, as in shannon_bits)
        np.add(h_a[rows, None], h_b, out=rc)
        for i in range(2):
            for j in range(2):
                np.add(qa[i, rows, None], qb[j], out=pc)
                (np.add if i == j else np.subtract)(pc, mc, out=pc)
                np.maximum(pc, 0.0, out=pc)
                np.less(pc, EIG_FLOOR, out=sc)
                np.maximum(pc, sc, out=tc)  # p, or 1 where p < EIG_FLOOR
                np.log2(tc, out=tc)
                tc *= pc
                rc += tc
        best = max(best, float(rc.max()))
    return mutual_information(state) - best


def geo_two_sided_via_correlation(state: BipartiteState, cfg: OptimizerConfig) -> float:
    """Two-sided geometric discord through the real correlation-matrix form.

    Independent route: expands the state and the candidate projectors in
    Hermitian operator bases and maximizes the quadratic form directly.
    """
    na, nb = state.dim_a, state.dim_b
    cd = correlation_matrix(state)
    xa = np.stack([op for op in hermitian_operator_basis(na).operators])
    xb = np.stack([op for op in hermitian_operator_basis(nb).operators])
    c = cd.c

    def batch(ua, ub):
        a = np.einsum("nao,iac,nco->noi", ua.conj(), xa, ua).real
        b = np.einsum("nbo,jbd,ndo->noj", ub.conj(), xb, ub).real
        g = np.einsum("noi,ij,npj->nop", a, c, b)
        return np.sum(g * g, axis=(1, 2))

    identity = (np.eye(na, dtype=complex), np.eye(nb, dtype=complex))
    res = maximize_over_bases(batch, (na, nb), cfg, warm_starts=[identity])
    return float(np.sum(c * c) - res.best_value)


# ---------------------------------------------------------------------------
# the nine acceptance checks

def check_werner_sweep(cfg: OptimizerConfig, ms=(2, 3, 4), points=21,
                       tol=1e-6, budget=60.0) -> CheckResult:
    t0 = _clock()
    worst = 0.0
    for m in ms:
        for x in np.linspace(-1.0, 1.0, points):
            res = geo_discord_two_sided(werner(m, float(x)), cfg)
            worst = max(worst, abs(res.value - werner_geo_closed(m, float(x))))
    dt, cpu = _since(t0)
    ok = worst <= tol and dt <= budget
    return CheckResult(
        "werner-closed-form", ok,
        f"max|gap|={worst:.2e} (tol {tol:g}), {dt:.1f}s of {budget:g}s budget, m={list(ms)}",
        dt, cpu,
    )


def check_isotropic_sweep(cfg: OptimizerConfig, ms=(2, 3, 4), points=21,
                          tol=1e-6, budget=60.0) -> CheckResult:
    t0 = _clock()
    worst = 0.0
    for m in ms:
        for x in np.linspace(0.0, 1.0, points):
            res = geo_discord_two_sided(isotropic(m, float(x)), cfg)
            worst = max(worst, abs(res.value - isotropic_geo_closed(m, float(x))))
    zero_at = max(abs(isotropic_geo_closed(m, 1.0 / m**2)) for m in ms)
    dt, cpu = _since(t0)
    ok = worst <= tol and zero_at <= 1e-10 and dt <= budget
    return CheckResult(
        "isotropic-closed-form", ok,
        f"max|gap|={worst:.2e} (tol {tol:g}), closed form at x=1/m^2: {zero_at:.1e} "
        f"(tol 1e-10), {dt:.1f}s of {budget:g}s budget",
        dt, cpu,
    )


def check_bell_routes(cfg: OptimizerConfig, tol=1e-6, entropic_tol=1e-4) -> CheckResult:
    t0 = _clock()
    bell = bell_state()
    small = OptimizerConfig(restarts=min(cfg.restarts, 16), seed=cfg.seed)
    routes = {
        "dephased-purity": geo_discord_two_sided(bell, small).value,
        "correlation-form": geo_two_sided_via_correlation(bell, small),
        "bloch-alternating": two_qubit_geo(to_bloch(bell), small).value,
    }
    b = to_bloch(bell)
    tt = b.t @ b.t.T
    routes["zero-marginal-formula"] = 0.25 * (np.trace(tt) - np.linalg.eigvalsh(tt)[-1])
    geo_gap = max(abs(v - 0.5) for v in routes.values())
    ent = discord_two_sided(bell, small).value
    oracle = entropic_oracle_two_qubit(bell, resolution=32)
    ent_gap = max(abs(ent - 1.0), abs(ent - oracle))
    dt, cpu = _since(t0)
    ok = geo_gap <= tol and ent_gap <= entropic_tol
    return CheckResult(
        "bell-state-routes", ok,
        f"geo max|route-0.5|={geo_gap:.2e} (tol {tol:g}); entropic={ent:.6f}, "
        f"oracle={oracle:.6f}, max dev {ent_gap:.2e} (tol {entropic_tol:g})",
        dt, cpu,
    )


def check_bloch_special_cases(cfg: OptimizerConfig, n=20, seed=0,
                              zero_tol=1e-10, match_tol=1e-6) -> CheckResult:
    t0 = _clock()
    rng = np.random.default_rng([seed, 41])
    from .states import TwoQubitBloch

    worst_zero_t = worst_product = worst_match = 0.0
    for _ in range(n):
        x = rng.uniform(-0.4, 0.4, 3)
        y = rng.uniform(-0.4, 0.4, 3)
        b = TwoQubitBloch(x, y, np.zeros((3, 3)))
        worst_zero_t = max(worst_zero_t, abs(two_qubit_geo(b, cfg).value))
    for _ in range(n):
        st = random_product_state(rng, 2, 2)
        worst_product = max(worst_product, abs(two_qubit_geo(to_bloch(st), cfg).value))
    small = OptimizerConfig(restarts=min(cfg.restarts, 16), seed=cfg.seed)
    for _ in range(n):
        st = random_zero_marginal_two_qubit(rng)
        closed = two_qubit_geo(to_bloch(st), small).value
        generic = geo_discord_two_sided(st, small).value
        worst_match = max(worst_match, abs(closed - generic))
    dt, cpu = _since(t0)
    ok = worst_zero_t <= zero_tol and worst_product <= zero_tol and worst_match <= match_tol
    return CheckResult(
        "two-qubit-special-cases", ok,
        f"T=0: {worst_zero_t:.1e}, product: {worst_product:.1e} (tol {zero_tol:g}); "
        f"zero-marginal closed vs generic: {worst_match:.2e} (tol {match_tol:g})",
        dt, cpu,
    )


def check_loss_properties(n22=500, n23=200, seed=0, tol=1e-9) -> CheckResult:
    t0 = _clock()
    rng = np.random.default_rng([seed, 42])
    worst_loss = worst_comp = np.inf
    worst_sum = 0.0
    for dims, count in (((2, 2), n22), ((2, 3), n23)):
        for _ in range(count):
            st = random_bipartite(rng, *dims, rank=int(rng.integers(1, dims[0] * dims[1] + 1)))
            m = random_product_measurement(rng, *dims)
            loss = measured_loss_two_sided(st, m)
            la, lb = loss_split(st, m)
            worst_loss = min(worst_loss, loss)
            worst_comp = min(worst_comp, la, lb)
            worst_sum = max(worst_sum, abs(la + lb - loss))
    dt, cpu = _since(t0)
    ok = worst_loss >= -tol and worst_comp >= -tol and worst_sum <= tol
    return CheckResult(
        "loss-nonnegativity-split", ok,
        f"min loss={worst_loss:.2e}, min component={worst_comp:.2e} (>= -{tol:g}), "
        f"max |split sum - loss|={worst_sum:.2e} (tol {tol:g}), {n22}+{n23} states",
        dt, cpu,
    )


def check_zero_sets(cfg: OptimizerConfig, n=50, seed=0,
                    geo_tol=1e-8, ent_tol=1e-6) -> CheckResult:
    t0 = _clock()
    rng = np.random.default_rng([seed, 43])
    small = OptimizerConfig(restarts=min(cfg.restarts, 16), seed=cfg.seed)
    worst_cc_geo = worst_cc_ent = worst_pr_geo = worst_pr_ent = 0.0
    for _ in range(n):
        st = random_classical_classical(rng, 2, 2)
        worst_cc_geo = max(worst_cc_geo, geo_discord_two_sided(st, small).value)
        worst_cc_ent = max(worst_cc_ent, discord_two_sided(st, small).value)
    for _ in range(n):
        st = random_product_state(rng, 2, 2)
        worst_pr_geo = max(worst_pr_geo, geo_discord_two_sided(st, small).value)
        worst_pr_ent = max(worst_pr_ent, discord_two_sided(st, small).value)
    dt, cpu = _since(t0)
    ok = (worst_cc_geo <= geo_tol and worst_cc_ent <= ent_tol
          and worst_pr_geo <= ent_tol and worst_pr_ent <= ent_tol)
    return CheckResult(
        "zero-sets", ok,
        f"classical-classical: geo {worst_cc_geo:.1e} (tol {geo_tol:g}), "
        f"entropic {worst_cc_ent:.1e} (tol {ent_tol:g}); "
        f"product: geo {worst_pr_geo:.1e}, entropic {worst_pr_ent:.1e} (tol {ent_tol:g})",
        dt, cpu,
    )


def check_bounds_hierarchy(cfg: OptimizerConfig, n=200, seed=0,
                           lb_tol=1e-8, chain_tol=1e-6) -> CheckResult:
    t0 = _clock()
    rng = np.random.default_rng([seed, 44])
    small = OptimizerConfig(restarts=min(cfg.restarts, 16), seed=cfg.seed)
    viol = 0
    worst_lb = worst_chain = worst_side = np.inf
    for _ in range(n):
        st = random_bipartite(rng, 2, 2, rank=int(rng.integers(1, 5)))
        ab = geo_discord_two_sided(st, small)
        da = geo_discord_one_sided(st, "A", small,
                                   extra_warm_starts=[ab.optimal_measurement.basis_a])
        db = geo_discord_one_sided(st, "B", small,
                                   extra_warm_starts=[ab.optimal_measurement.basis_b])
        worst_lb = min(worst_lb, ab.value - ab.lower_bound)
        worst_chain = min(worst_chain, ab.value - max(da.value, db.value))
        worst_side = min(worst_side, da.value - da.lower_bound, db.value - db.lower_bound)
        if (ab.value < ab.lower_bound - lb_tol
                or ab.value < max(da.value, db.value) - chain_tol
                or da.value < da.lower_bound - lb_tol
                or db.value < db.lower_bound - lb_tol):
            viol += 1
    dt, cpu = _since(t0)
    return CheckResult(
        "bounds-hierarchy", viol == 0,
        f"{viol} violations on {n} states; min margins: two-sided bound {worst_lb:.2e} "
        f"(>= -{lb_tol:g}), vs one-sided {worst_chain:.2e} (>= -{chain_tol:g}), "
        f"one-sided bounds {worst_side:.2e} (>= -{lb_tol:g})",
        dt, cpu,
    )


def check_identities(n=500, n_completion=200, seed=0, tol=1e-12) -> CheckResult:
    t0 = _clock()
    rng = np.random.default_rng([seed, 45])
    worst_obj = worst_pur = worst_comp = 0.0
    for k in range(n):
        na, nb = (2, 2) if k % 2 == 0 else (2, 3)
        st = random_bipartite(rng, na, nb)
        cd = correlation_matrix(st)
        m = random_product_measurement(rng, na, nb)
        a = measurement_matrix(m.basis_a, hermitian_operator_basis(na))
        b = measurement_matrix(m.basis_b, hermitian_operator_basis(nb))
        worst_obj = max(worst_obj, abs(objective27(cd, a, b) - dephased_purity(st, m)))
        worst_pur = max(worst_pur, abs(np.sum(cd.c * cd.c) - purity(st.rho)))
    for k in range(n_completion):
        na, nb = (2, 2) if k % 2 == 0 else (2, 3)
        st = random_bipartite(rng, na, nb)
        m = random_product_measurement(rng, na, nb)
        p = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
        chi = classical_classical(p, m.basis_a, m.basis_b)
        d = diagonal_distribution(st, m)
        lhs = hs_distance_sq(st, chi)
        rhs = purity(st.rho) - np.sum(d * d) + np.sum((p - d) ** 2)
        worst_comp = max(worst_comp, abs(lhs - rhs))
    dt, cpu = _since(t0)
    ok = worst_obj <= tol and worst_pur <= tol and worst_comp <= tol
    return CheckResult(
        "correlation-identities", ok,
        f"|objective - dephased purity|={worst_obj:.1e}, |tr(CC^t) - purity|={worst_pur:.1e}, "
        f"|completion identity|={worst_comp:.1e} (tol {tol:g})",
        dt, cpu,
    )


def check_oracle_certification(cfg: OptimizerConfig, n=50, resolution=400,
                               seed=0, tol=2e-4) -> CheckResult:
    t0 = _clock()
    rng = np.random.default_rng([seed, 46])
    small = OptimizerConfig(restarts=min(cfg.restarts, 16), seed=cfg.seed)
    worst = 0.0
    for _ in range(n):
        b = to_bloch(random_bipartite(rng, 2, 2))
        _, _, alt = alternating_sphere_max(b, small)
        grid = sphere_grid_oracle(b, resolution)
        worst = max(worst, abs(alt - grid))
    dt, cpu = _since(t0)
    return CheckResult(
        "oracle-certification", worst <= tol,
        f"max|alternating - grid(res {resolution})|={worst:.2e} (tol {tol:g}), {n} states",
        dt, cpu,
    )


def run_verify(quick=False, seed=0, restarts=64) -> list[CheckResult]:
    """The full worked-example and property table; quick mode trims the m=4
    sweeps and sample counts to stay interactive."""
    cfg = OptimizerConfig(restarts=restarts, seed=seed)
    ms = (2, 3) if quick else (2, 3, 4)
    points = 11 if quick else 21
    results = [
        check_werner_sweep(cfg, ms=ms, points=points),
        check_isotropic_sweep(cfg, ms=ms, points=points),
        check_bell_routes(cfg),
        check_bloch_special_cases(cfg, n=5 if quick else 20, seed=seed),
        check_loss_properties(n22=100 if quick else 500, n23=40 if quick else 200, seed=seed),
        check_zero_sets(cfg, n=10 if quick else 50, seed=seed),
        check_bounds_hierarchy(cfg, n=25 if quick else 200, seed=seed),
        check_identities(n=100 if quick else 500, n_completion=40 if quick else 200, seed=seed),
        check_oracle_certification(cfg, n=8 if quick else 50,
                                   resolution=100 if quick else 400, seed=seed),
    ]
    return results


# ---------------------------------------------------------------------------
# randomized invariant audit

@dataclass
class AuditReport:
    n_states: int
    dims: tuple
    seed: int
    checks: int = 0
    violations: list = field(default_factory=list)
    worst_margins: dict = field(default_factory=dict)

    def record(self, name: str, margin: float, tol: float, state_index: int):
        self.checks += 1
        prev = self.worst_margins.get(name)
        if prev is None or margin < prev:
            self.worst_margins[name] = margin
        if margin < -tol:
            self.violations.append(f"state {state_index}: {name} margin {margin:.3e}")


def audit_states(n_states: int, seed: int, dims=(2, 2),
                 cfg: OptimizerConfig = None) -> AuditReport:
    """Sample random states and exercise every cheap invariant plus the
    geometric bound hierarchy; returns counts and worst margins.

    The local-unitary invariance row compares the two-sided geometric value
    of each state with that of (U_A x U_B) rho (U_A x U_B)^dag. The local
    unitaries come from their own stream, ``default_rng([seed, 48, k])`` for
    state k, so the sampled states and measurements do not depend on it.
    """
    na, nb = dims
    if na * nb > 9:
        raise DomainError("audit dims are capped at 9-dimensional joint spaces")
    rng = np.random.default_rng([seed, 47])
    cfg = cfg or OptimizerConfig(restarts=16, seed=seed)
    rep = AuditReport(n_states=n_states, dims=tuple(dims), seed=seed)
    for k in range(n_states):
        st = random_bipartite(rng, na, nb, rank=int(rng.integers(1, na * nb + 1)))
        m = random_product_measurement(rng, na, nb)

        loss = measured_loss_two_sided(st, m)
        la, lb = loss_split(st, m)
        rep.record("loss-nonnegative", loss, 1e-9, k)
        rep.record("loss-components-nonnegative", min(la, lb), 1e-9, k)
        rep.record("loss-split-sums", -abs(la + lb - loss), 1e-9, k)

        mid = dephase_one_sided(st, m.basis_a, "A")
        rep.record(
            "dephasing-preserves-far-marginal",
            -float(np.abs(partial_trace(mid, "B").entries
                          - partial_trace(st, "B").entries).max()),
            1e-12, k,
        )
        twice = dephase_one_sided(mid, m.basis_a, "A")
        rep.record(
            "dephasing-idempotent",
            -float(np.abs(twice.entries - mid.entries).max()), 1e-12, k,
        )
        rep.record("dephasing-purity-nonincreasing",
                   purity(st.rho) - dephased_purity(st, m), 1e-12, k)

        cd = correlation_matrix(st)
        a = measurement_matrix(m.basis_a, hermitian_operator_basis(na))
        b = measurement_matrix(m.basis_b, hermitian_operator_basis(nb))
        rep.record("objective-matches-dephased-purity",
                   -abs(objective27(cd, a, b) - dephased_purity(st, m)), 1e-12, k)
        rep.record("correlation-norm-is-purity",
                   -abs(float(np.sum(cd.c * cd.c)) - purity(st.rho)), 1e-12, k)

        p = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
        chi = classical_classical(p, m.basis_a, m.basis_b)
        d = diagonal_distribution(st, m)
        rep.record(
            "quadratic-completion",
            -abs(hs_distance_sq(st, chi)
                 - (purity(st.rho) - float(np.sum(d * d)) + float(np.sum((p - d) ** 2)))),
            1e-12, k,
        )

        ab = geo_discord_two_sided(st, cfg)
        da = geo_discord_one_sided(st, "A", cfg,
                                   extra_warm_starts=[ab.optimal_measurement.basis_a])
        db = geo_discord_one_sided(st, "B", cfg,
                                   extra_warm_starts=[ab.optimal_measurement.basis_b])
        rep.record("two-sided-above-lower-bound", ab.value - ab.lower_bound, 1e-8, k)
        rep.record("two-sided-above-one-sided",
                   ab.value - max(da.value, db.value), 1e-6, k)
        rep.record("one-sided-above-lower-bounds",
                   min(da.value - da.lower_bound, db.value - db.lower_bound), 1e-8, k)

        lu = np.random.default_rng([seed, 48, k])
        w = np.kron(haar_unitary(lu, na), haar_unitary(lu, nb))
        moved = make_bipartite(w @ st.entries @ w.conj().T, na, nb)
        rep.record("local-unitary-invariance",
                   -abs(ab.value - geo_discord_two_sided(moved, cfg).value), 1e-6, k)
    return rep
