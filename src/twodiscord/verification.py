"""Self-checks: closed-form sweeps, worked examples, and invariant audits.

Every check returns a CheckResult so the same code backs the ``verify``
command and the acceptance test suite. Randomized checks are deterministic
given their seed.

Each invariant is judged as a named margin, positive when it holds with
room to spare, and a margin below minus its entry in ``TOLERANCES`` is a
violation. The checks, ``audit_states`` and the ``compute`` report's
``flagged`` all judge through that one table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .entropic import (
    discord_two_sided,
    loss_split,
    measured_loss_two_sided,
    mutual_information,
    plogp,
    shannon_bits,
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
    _bloch_gram,
    alternating_sphere_max,
    projective_grid,
    search_bases,
    sphere_grid_oracle,
)
from .states import (
    FAMILY_DOMAINS,
    BipartiteState,
    DensityMatrix,
    TwoQubitBloch,
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

# line counts of the convexity row bound, coarse to fine: the first bounds
# every row, the others re-bound the rows that still reach the incumbent. Each
# is even, so that the polygon keeps |zeta_s| <= |w_s| (see ``_convexity_rows``)
_ROW_BOUND_LINES = (8, 32, 128)
# the finer bounds are computed this many rows at a time
_ROW_BLOCK = 64


def _convexity_rows(b: TwoQubitBloch, pts: np.ndarray, lines: int) -> np.ndarray:
    """An upper bound U(a) on every grid value of the retained information
    in the row of each A direction a in ``pts``, from a polygon of ``lines``
    tangent lines.

    In row a, outcome s = +-1 of A has probability p_s = (1 + s a.x) / 2,
    and measuring B along b gives the table p(s, t) = (p_s + t zeta_s) / 2,
    with zeta_s = b.w_s and w_s = (y + s T^t a) / 2. For fixed p_s the
    retained information H(A) + H(B) - H(A, B) is convex in the channel
    (Cover & Thomas, Thm 2.7.4), hence in zeta = (zeta_+, zeta_-). As b
    ranges over the unit sphere, zeta stays in the ellipse with support
    function h(d) = sqrt(d^t G d), G the Gram matrix of w_+ and w_-. The
    tangent lines d_k . zeta = h(d_k), d_k at the angles k pi / K with
    K = ``lines``, bound a polygon around the ellipse, and a convex
    function peaks at a vertex: U(a) is the largest vertex value. K must be
    even, so +-e_1 and +-e_2 are among the d_k and every vertex keeps
    |zeta_s| <= |w_s| <= p_s, a valid table. Antipodal vertices only
    relabel t, so the K vertices of consecutive lines k, k + 1 (k < K)
    suffice. Vertex values follow the grid's floor rules: entries clipped
    at 0, and p log p by ``plogp``. A finer polygon gives a lower bound:
    on nearly-product pure states the 8-line bound keeps most rows within
    reach of the grid's best, and the 128-line bound only a few.
    """
    k = lines
    ang = np.arange(k + 1) * (np.pi / k)
    c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
    ax, _, yy, tta2, aty = _bloch_gram(b, pts)
    # 4 h(d)^2 = (c + s)^2 |y|^2 + 2 (c^2 - s^2) a.Ty + (c - s)^2 |T^t a|^2 at d = (c, s)
    h = np.sqrt(np.maximum((c + s) ** 2 * yy + 2.0 * (c * c - s * s) * aty
                           + (c - s) ** 2 * tta2, 0.0))  # 2 h(d_k), (K + 1, n)
    # zeta / 2 at the vertex of lines k and k + 1, by Cramer's rule (determinant sin(pi / K))
    det = 4.0 * np.sin(np.pi / k)
    z_p = (s[1:] * h[:-1] - s[:-1] * h[1:]) / det
    z_m = (c[:-1] * h[1:] - c[1:] * h[:-1]) / det
    qa = 0.25 * (1.0 + ax), 0.25 * (1.0 - ax)  # p_s / 2
    h_a = shannon_bits(np.clip(2.0 * np.stack(qa), 0.0, None), axis=0)
    # H(A) + H(B) - H(A, B), with p(s, t) = p_s / 2 + t zeta_s / 2 and
    # P(t) = 1 / 2 + t (zeta_+ + zeta_-) / 2
    zb = z_p + z_m
    retained = plogp(np.maximum(0.5 - zb, 0.0)) + plogp(np.maximum(zb + 0.5, 0.0))
    np.negative(retained, out=retained)
    for q_s, z_s in zip(qa, (z_p, z_m)):
        retained += plogp(np.maximum(q_s + z_s, 0.0))
        retained += plogp(np.maximum(q_s - z_s, 0.0))
    return h_a + retained.max(axis=0)


def entropic_oracle_two_qubit(state: BipartiteState, resolution: int = 32) -> float:
    """Grid lower bound on the retained mutual information, hence an upper
    bound on the two-sided entropic discord of a two-qubit state.

    For measurement directions (a, b) the diagonal table is
    p(s, t) = (1 + s a.x + t b.y + s t a.T.b) / 4 with s, t = +-1, so the
    whole grid evaluates without touching density matrices. Flipping a or b
    only permutes the table, so both range over ``projective_grid``. The
    marginal entropies depend on one direction each and are computed once
    per direction; the joint entropy is accumulated in preallocated buffers
    for 4 rows (A directions) or 32 rows at a time.

    The maximum is exact branch-and-bound: no grid value in row a exceeds
    the convexity bound U(a) of ``_convexity_rows``, and a row is scored
    only while its bound plus 1e-9 reaches the best value. The 8-line
    bound of every row orders them; the 4 best-bounded rows, then the
    next 32, set the incumbent. While more than 32 rows still reach it,
    those survivors are re-bounded by the next polygon of
    ``_ROW_BOUND_LINES`` (32 lines, then 128), ``_ROW_BLOCK`` rows at a
    time so the vertex tables stay small, re-ordered by the finer bound,
    and their 4 best rows scored before the rest are pruned. Refining stops
    once a level fails to halve the survivors, as where the row maxima
    are flat (the Bell state, Werner and isotropic states), so no row is
    bounded more than twice there. The rest are scored 32 at a time in
    decreasing bound until a chunk's first bound falls short. The 1e-14
    floors move a grid value or a bound by less than 3e-12, so that slack
    keeps every row that could hold the maximum. A row's rounding depends
    on the chunk it is scored in, so the order of the rows can move the
    result in its last bits.
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

    def score(rows):
        # the largest retained information H(A) + H(B) - H(A, B) in rows,
        # with H(A, B) subtracted term by term as + p log p (``plogp``)
        c = len(rows)
        mc, pc, tc, rc = m[:c], p[:c], term[:c], retained[:c]
        np.matmul(pts[rows], t_rows, out=mc)
        mc *= 0.25
        np.add(h_a[rows, None], h_b, out=rc)
        for i in range(2):
            for j in range(2):
                np.add(qa[i, rows, None], qb[j], out=pc)
                (np.add if i == j else np.subtract)(pc, mc, out=pc)
                rc += plogp(np.maximum(pc, 0.0, out=pc), out=tc)
        return float(rc.max())

    def reach(rows, u, best):
        # rows whose bound can still reach the incumbent: a prefix, as u decreases
        c = int(np.count_nonzero(u + 1e-9 >= best))
        return rows[:c], u[:c]

    def ordered(rows, u):
        o = np.argsort(-u, kind="stable")
        return rows[o], u[o]

    rows, u = ordered(np.arange(n), _convexity_rows(b, pts, _ROW_BOUND_LINES[0]))
    best = score(rows[:4])
    rows, u = reach(rows[4:], u[4:], best)
    if len(rows):
        best = max(best, score(rows[:chunk]))
    rows, u = reach(rows[chunk:], u[chunk:], best)
    for lines in _ROW_BOUND_LINES[1:]:
        if len(rows) <= chunk:
            break
        live = len(rows)
        rows, u = ordered(rows, np.concatenate([
            _convexity_rows(b, pts[rows[lo:lo + _ROW_BLOCK]], lines)
            for lo in range(0, live, _ROW_BLOCK)]))
        best = max(best, score(rows[:4]))
        rows, u = reach(rows[4:], u[4:], best)
        if 2 * len(rows) > live:
            break
    for lo in range(0, len(rows), chunk):
        todo, _ = reach(rows[lo:lo + chunk], u[lo:lo + chunk], best)
        if not len(todo):
            break
        best = max(best, score(todo))
    return mutual_information(state) - best


def geo_two_sided_via_correlation(state: BipartiteState, cfg: OptimizerConfig) -> float:
    """Two-sided geometric discord through the real correlation-matrix form
    tr(C C^t) - max tr(A C B^t B C^t A^t) (objective (27)).

    Independent route: it reads the state only through ``correlation_matrix``.
    ``search_bases`` runs on the state that C expands to,
    sum_ij C_ij X_i (x) Y_j, from the standard ``warm_start_bases`` of that
    state; its dephased table in bases (U_A, U_B) is A C B^t, so the sweeps
    maximize objective (27) itself. Only the winning bases are used: they
    are scored by ``measurement_matrix`` and ``objective27``.
    """
    cd = correlation_matrix(state)
    r_c = np.einsum("ij,iac,jbd->abcd", cd.c, cd.basis_a.operators, cd.basis_b.operators)
    expanded = make_bipartite(r_c.reshape(state.dim, -1), state.dim_a, state.dim_b)
    m = search_bases(expanded, ("A", "B"), cfg, 0.0, 0.0).optimal_measurement
    a_mat = measurement_matrix(m.basis_a, cd.basis_a)
    b_mat = measurement_matrix(m.basis_b, cd.basis_b)
    return float(np.sum(cd.c * cd.c) - objective27(cd, a_mat, b_mat))


def zero_marginal_geo_closed(b: TwoQubitBloch) -> float:
    """(||T||^2 - sigma_max(T)^2) / 4: the two-qubit geometric discord when x = y = 0
    (Dakic, Vedral & Brukner, PRL 105, 190502 (2010); Luo & Fu, PRA 82, 034302
    (2010)). A reference for the searched routes; it reads only T."""
    tt = b.t @ b.t.T
    return float(0.25 * (np.trace(tt) - np.linalg.eigvalsh(tt)[-1]))


# ---------------------------------------------------------------------------
# the tolerance table and the margins it judges

SWEEP_BUDGET_S = 60.0

# name -> tolerance: a margin below minus its tolerance is a violation
TOLERANCES = {
    "loss-nonnegative": 1e-9,
    "loss-components-nonnegative": 1e-9,
    "loss-split-sums": 1e-9,
    "dephasing-preserves-far-marginal": 1e-12,
    "dephasing-idempotent": 1e-12,
    "dephasing-purity-nonincreasing": 1e-12,
    "objective-matches-dephased-purity": 1e-12,
    "correlation-norm-is-purity": 1e-12,
    "quadratic-completion": 1e-12,
    "two-sided-above-lower-bound": 1e-8,
    "one-sided-above-lower-bounds": 1e-8,
    "two-sided-above-one-sided": 1e-6,
    "entropic-nonnegative": 1e-6,
    "entropic-below-mutual-information": 1e-6,
    "entropic-two-sided-above-one-sided": 1e-6,
    "local-unitary-invariance": 1e-6,
    "werner-closed-form": 1e-6,
    "werner-budget": 0.0,
    "isotropic-closed-form": 1e-6,
    "isotropic-zero": 1e-10,
    "isotropic-budget": 0.0,
    "bell-geometric": 1e-6,
    "bell-entropic": 1e-4,
    "special-zero-correlation": 1e-10,
    "special-product": 1e-10,
    "special-zero-marginal": 1e-6,
    "zero-classical-geometric": 1e-8,
    "zero-classical-entropic": 1e-6,
    "zero-product-geometric": 1e-6,
    "zero-product-entropic": 1e-6,
    "oracle": 2e-4,
}


def violated(margins: dict) -> list:
    """The names in ``margins`` whose margin is below minus its tolerance."""
    return [name for name, margin in margins.items() if margin < -TOLERANCES[name]]


def loss_margins(state: BipartiteState, m: ProductMeasurement) -> dict:
    """The mutual information lost under the two-sided dephasing by ``m`` and
    both components of its split are nonnegative; the components sum to it."""
    loss = measured_loss_two_sided(state, m)
    la, lb = loss_split(state, m)
    return {
        "loss-nonnegative": loss,
        "loss-components-nonnegative": min(la, lb),
        "loss-split-sums": -abs(la + lb - loss),
    }


def identity_margins(state: BipartiteState, m: ProductMeasurement) -> dict:
    """The correlation-matrix objective equals the dephased purity and
    tr(CC^t) equals the purity."""
    cd = correlation_matrix(state)
    a = measurement_matrix(m.basis_a, hermitian_operator_basis(state.dim_a))
    b = measurement_matrix(m.basis_b, hermitian_operator_basis(state.dim_b))
    return {
        "objective-matches-dephased-purity":
            -abs(objective27(cd, a, b) - dephased_purity(state, m)),
        "correlation-norm-is-purity": -abs(float(np.sum(cd.c * cd.c)) - purity(state.rho)),
    }


def completion_margins(state: BipartiteState, m: ProductMeasurement, p) -> dict:
    """tr[(rho - chi)^2] = purity - sum d^2 + sum (p - d)^2, where chi is the
    classical-classical state with table ``p`` in the bases of ``m`` and d is
    the table of rho dephased by ``m``."""
    chi = classical_classical(p, m.basis_a, m.basis_b)
    d = diagonal_distribution(state, m)
    rhs = purity(state.rho) - float(np.sum(d * d)) + float(np.sum((p - d) ** 2))
    return {"quadratic-completion": -abs(hs_distance_sq(state, chi) - rhs)}


def geometric_margins(ab, da, db) -> dict:
    """Each geometric value above its spectral lower bound, and the two-sided
    value ``ab`` above both one-sided values ``da`` and ``db``."""
    return {
        "two-sided-above-lower-bound": ab.value - ab.lower_bound,
        "two-sided-above-one-sided": ab.value - max(da.value, db.value),
        "one-sided-above-lower-bounds":
            min(da.value - da.lower_bound, db.value - db.lower_bound),
    }


def entropic_margins(mi: float, eab, ea, eb) -> dict:
    """Each entropic value inside [0, mutual information ``mi``], and the
    two-sided value ``eab`` above both one-sided values ``ea`` and ``eb``."""
    values = (ea.value, eb.value, eab.value)
    return {
        "entropic-nonnegative": min(values),
        "entropic-below-mutual-information": mi - max(values),
        "entropic-two-sided-above-one-sided": eab.value - max(ea.value, eb.value),
    }


def hierarchy(state: BipartiteState, cfg: OptimizerConfig, two_sided, one_sided):
    """``two_sided(state, cfg)``, then ``one_sided`` on sides A and B.

    Each one-sided search is warm-started from the two-sided optimum's basis
    on its side, so an unlucky restart draw cannot break two-sided >=
    one-sided. The warm start only matters on a side of dimension 3 or more:
    on a measured qubit the geometric one-sided discord is exact and takes
    no start. Returns the three results, two-sided first.
    """
    ab = two_sided(state, cfg)
    m = ab.optimal_measurement
    da = one_sided(state, "A", cfg, extra_warm_starts=[m.basis_a])
    db = one_sided(state, "B", cfg, extra_warm_starts=[m.basis_b])
    return ab, da, db


@dataclass
class AuditReport:
    """Counts, violations and worst margins of the margins recorded so far;
    ``started`` is the ``_clock()`` reading when the report was made."""

    n_states: int = 0
    dims: tuple = ()
    seed: int = 0
    checks: int = 0
    violations: list = field(default_factory=list)
    worst_margins: dict = field(default_factory=dict)
    started: tuple = field(default_factory=_clock)

    def record(self, margins: dict, k: int):
        """Judge the margins of sample ``k`` by ``TOLERANCES``."""
        self.checks += len(margins)
        for name, margin in margins.items():
            self.worst_margins[name] = min(margin, self.worst_margins.get(name, np.inf))
        self.violations += [f"state {k}: {name} margin {margins[name]:.3e}"
                            for name in violated(margins)]

    def check(self, name: str) -> CheckResult:
        """The verdict on what was recorded since the report was made."""
        dt, cpu = _since(self.started)
        worst = ", ".join(f"{n} {v:.2e} (tol {TOLERANCES[n]:g})"
                          for n, v in self.worst_margins.items())
        return CheckResult(
            name, not self.violations,
            f"{len(self.violations)} violations in {self.checks} checks; worst margins: {worst}",
            dt, cpu,
        )


def _small(cfg: OptimizerConfig) -> OptimizerConfig:
    return OptimizerConfig(restarts=min(cfg.restarts, 16), seed=cfg.seed)


# ---------------------------------------------------------------------------
# the nine acceptance checks

# family -> (state(m, x), closed-form two-sided geometric discord(m, x)); the
# x domain of each family is ``FAMILY_DOMAINS``
CLOSED_FORMS = {
    "werner": (werner, werner_geo_closed),
    "isotropic": (isotropic, isotropic_geo_closed),
}


def closed_form_points(family: str, m: int, xs, cfg: OptimizerConfig):
    """Yield (x, closed form, two-sided geometric ``DiscordValue``) for each
    x in ``xs``: the one loop behind the closed-form checks and ``sweep``."""
    make, closed = CLOSED_FORMS[family]
    for x in xs:
        x = float(x)
        yield x, closed(m, x), geo_discord_two_sided(make(m, x), cfg)


def _closed_form_sweep(family: str, cfg: OptimizerConfig, ms, points) -> CheckResult:
    rep = AuditReport()
    xs = np.linspace(*FAMILY_DOMAINS[family], points)
    sweep = (point for m in ms for point in closed_form_points(family, m, xs, cfg))
    for k, (_, want, res) in enumerate(sweep):
        rep.record({f"{family}-closed-form": -abs(res.value - want)}, k)
    if family == "isotropic":
        for m in ms:
            rep.record({"isotropic-zero": -abs(isotropic_geo_closed(m, 1.0 / m**2))}, m)
    rep.record({f"{family}-budget": SWEEP_BUDGET_S - _since(rep.started)[0]}, len(ms) * points)
    return rep.check(f"{family}-closed-form")


def check_werner_sweep(cfg: OptimizerConfig, ms=(2, 3, 4), points=21) -> CheckResult:
    return _closed_form_sweep("werner", cfg, ms, points)


def check_isotropic_sweep(cfg: OptimizerConfig, ms=(2, 3, 4), points=21) -> CheckResult:
    """Also checks that the closed form vanishes at x = 1/m^2."""
    return _closed_form_sweep("isotropic", cfg, ms, points)


def check_bell_routes(cfg: OptimizerConfig) -> CheckResult:
    rep = AuditReport()
    bell = bell_state()
    small = _small(cfg)
    b = to_bloch(bell)
    routes = (
        geo_discord_two_sided(bell, small).value,  # dephased purity
        geo_two_sided_via_correlation(bell, small),
        two_qubit_geo(b, small).value,  # Bloch alternation
        zero_marginal_geo_closed(b),
    )
    for k, value in enumerate(routes):
        rep.record({"bell-geometric": -abs(value - 0.5)}, k)
    ent = discord_two_sided(bell, small).value
    oracle = entropic_oracle_two_qubit(bell, resolution=32)
    rep.record({"bell-entropic": -max(abs(ent - 1.0), abs(ent - oracle))}, 0)
    return rep.check("bell-state-routes")


def check_bloch_special_cases(cfg: OptimizerConfig, n=20, seed=0) -> CheckResult:
    rng = np.random.default_rng([seed, 41])
    rep = AuditReport()
    for k in range(n):
        x = rng.uniform(-0.4, 0.4, 3)
        y = rng.uniform(-0.4, 0.4, 3)
        value = two_qubit_geo(TwoQubitBloch(x, y, np.zeros((3, 3))), cfg).value
        rep.record({"special-zero-correlation": -abs(value)}, k)
    for k in range(n):
        st = random_product_state(rng, 2, 2)
        rep.record({"special-product": -abs(two_qubit_geo(to_bloch(st), cfg).value)}, k)
    small = _small(cfg)
    for k in range(n):
        st = random_zero_marginal_two_qubit(rng)
        b = to_bloch(st)
        closed = zero_marginal_geo_closed(b)
        gap = max(abs(closed - two_qubit_geo(b, small).value),
                  abs(closed - geo_discord_two_sided(st, small).value))
        rep.record({"special-zero-marginal": -gap}, k)
    return rep.check("two-qubit-special-cases")


def check_loss_properties(n22=500, n23=200, seed=0) -> CheckResult:
    rng = np.random.default_rng([seed, 42])
    rep = AuditReport()
    for k, (na, nb) in enumerate([(2, 2)] * n22 + [(2, 3)] * n23):
        st = random_bipartite(rng, na, nb, rank=int(rng.integers(1, na * nb + 1)))
        rep.record(loss_margins(st, random_product_measurement(rng, na, nb)), k)
    return rep.check("loss-nonnegativity-split")


def check_zero_sets(cfg: OptimizerConfig, n=50, seed=0) -> CheckResult:
    rng = np.random.default_rng([seed, 43])
    small = _small(cfg)
    rep = AuditReport()
    for kind, draw in (("classical", random_classical_classical),
                       ("product", random_product_state)):
        for k in range(n):
            st = draw(rng, 2, 2)
            rep.record({f"zero-{kind}-geometric": -geo_discord_two_sided(st, small).value,
                        f"zero-{kind}-entropic": -discord_two_sided(st, small).value}, k)
    return rep.check("zero-sets")


def check_bounds_hierarchy(cfg: OptimizerConfig, n=200, seed=0) -> CheckResult:
    rng = np.random.default_rng([seed, 44])
    small = _small(cfg)
    rep = AuditReport()
    for k in range(n):
        st = random_bipartite(rng, 2, 2, rank=int(rng.integers(1, 5)))
        results = hierarchy(st, small, geo_discord_two_sided, geo_discord_one_sided)
        rep.record(geometric_margins(*results), k)
    return rep.check("bounds-hierarchy")


def check_identities(n=500, n_completion=200, seed=0) -> CheckResult:
    rng = np.random.default_rng([seed, 45])
    rep = AuditReport()
    for k in range(n):
        na, nb = (2, 2) if k % 2 == 0 else (2, 3)
        st = random_bipartite(rng, na, nb)
        rep.record(identity_margins(st, random_product_measurement(rng, na, nb)), k)
    for k in range(n_completion):
        na, nb = (2, 2) if k % 2 == 0 else (2, 3)
        st = random_bipartite(rng, na, nb)
        m = random_product_measurement(rng, na, nb)
        p = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
        rep.record(completion_margins(st, m, p), k)
    return rep.check("correlation-identities")


def check_oracle_certification(cfg: OptimizerConfig, n=50, resolution=400,
                               seed=0) -> CheckResult:
    rng = np.random.default_rng([seed, 46])
    small = _small(cfg)
    rep = AuditReport()
    for k in range(n):
        b = to_bloch(random_bipartite(rng, 2, 2))
        _, _, alt = alternating_sphere_max(b, small)
        rep.record({"oracle": -abs(alt - sphere_grid_oracle(b, resolution))}, k)
    return rep.check("oracle-certification")


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

def audit_states(n_states: int, seed: int, cfg: OptimizerConfig, dims=(2, 2)) -> AuditReport:
    """Sample random states and exercise every cheap invariant plus the
    geometric bound hierarchy; returns counts and worst margins.

    The local-unitary invariance row compares the two-sided geometric value
    of each state with that of (U_A x U_B) rho (U_A x U_B)^dag. The local
    unitaries come from their own stream, ``default_rng([seed, 48, k])`` for
    state k, so the sampled states and measurements do not depend on it.
    """
    na, nb = dims
    if min(na, nb) < 2:
        raise DomainError(f"audit dims must be >= 2 on each side, got {na}x{nb}")
    if n_states < 0:
        raise DomainError(f"the number of states must be >= 0, got {n_states}")
    if na * nb > 16:
        raise DomainError("audit dims are capped at 16-dimensional joint spaces (4x4, 2x8)")
    rng = np.random.default_rng([seed, 47])
    rep = AuditReport(n_states=n_states, dims=tuple(dims), seed=seed)
    for k in range(n_states):
        st = random_bipartite(rng, na, nb, rank=int(rng.integers(1, na * nb + 1)))
        m = random_product_measurement(rng, na, nb)
        rep.record(loss_margins(st, m), k)

        mid = dephase_one_sided(st, m.basis_a, "A")
        twice = dephase_one_sided(mid, m.basis_a, "A")
        far = partial_trace(mid, "B").entries - partial_trace(st, "B").entries
        rep.record({
            "dephasing-preserves-far-marginal": -float(np.abs(far).max()),
            "dephasing-idempotent": -float(np.abs(twice.entries - mid.entries).max()),
            "dephasing-purity-nonincreasing": purity(st.rho) - dephased_purity(st, m),
        }, k)
        rep.record(identity_margins(st, m), k)
        p = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
        rep.record(completion_margins(st, m, p), k)

        ab, da, db = hierarchy(st, cfg, geo_discord_two_sided, geo_discord_one_sided)
        rep.record(geometric_margins(ab, da, db), k)

        lu = np.random.default_rng([seed, 48, k])
        w = np.kron(haar_unitary(lu, na), haar_unitary(lu, nb))
        moved = make_bipartite(w @ st.entries @ w.conj().T, na, nb)
        lu_gap = abs(ab.value - geo_discord_two_sided(moved, cfg).value)
        rep.record({"local-unitary-invariance": -lu_gap}, k)
    return rep
