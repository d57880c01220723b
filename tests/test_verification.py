"""The tolerance table: every named margin is wired into the checks that judge it."""

import dataclasses

import numpy as np
import pytest

import twodiscord as td
from twodiscord import OptimizerConfig, geometric
from twodiscord import verification as V

CFG = OptimizerConfig(restarts=4, seed=0)

# each acceptance check on a small sample, with the margin names it records
CHECKS = {
    "werner": (lambda: V.check_werner_sweep(CFG, ms=(2,), points=2),
               ["werner-closed-form", "werner-budget"]),
    "isotropic": (lambda: V.check_isotropic_sweep(CFG, ms=(2,), points=2),
                  ["isotropic-closed-form", "isotropic-zero", "isotropic-budget"]),
    "bell": (lambda: V.check_bell_routes(CFG), ["bell-geometric", "bell-entropic"]),
    "special": (lambda: V.check_bloch_special_cases(CFG, n=1),
                ["special-zero-correlation", "special-product", "special-zero-marginal"]),
    "loss": (lambda: V.check_loss_properties(n22=1, n23=1),
             ["loss-nonnegative", "loss-components-nonnegative", "loss-split-sums"]),
    "zero": (lambda: V.check_zero_sets(CFG, n=1),
             ["zero-classical-geometric", "zero-classical-entropic",
              "zero-product-geometric", "zero-product-entropic"]),
    "bounds": (lambda: V.check_bounds_hierarchy(CFG, n=1),
               ["two-sided-above-lower-bound", "two-sided-above-one-sided",
                "one-sided-above-lower-bounds"]),
    "identities": (lambda: V.check_identities(n=1, n_completion=1),
                   ["objective-matches-dephased-purity", "correlation-norm-is-purity",
                    "quadratic-completion"]),
    "oracle": (lambda: V.check_oracle_certification(CFG, n=1, resolution=200), ["oracle"]),
}

AUDIT_NAMES = [
    "loss-nonnegative", "loss-components-nonnegative", "loss-split-sums",
    "dephasing-preserves-far-marginal", "dephasing-idempotent",
    "dephasing-purity-nonincreasing", "objective-matches-dephased-purity",
    "correlation-norm-is-purity", "quadratic-completion", "two-sided-above-lower-bound",
    "two-sided-above-one-sided", "one-sided-above-lower-bounds", "local-unitary-invariance",
]

# judged only by the compute report's flag (tests/test_cli.py)
ENTROPIC_NAMES = [
    "entropic-nonnegative", "entropic-below-mutual-information",
    "entropic-two-sided-above-one-sided",
]


def test_every_tolerance_is_judged_somewhere():
    named = {n for _, names in CHECKS.values() for n in names}
    assert named | set(AUDIT_NAMES) | set(ENTROPIC_NAMES) == set(V.TOLERANCES)


def test_two_qubit_checks_judge_the_alternation(monkeypatch):
    # both checks compare two_qubit_geo with the paper's closed forms, so an
    # alternation that misses its maximum by 0.01 must fail them
    alternate = geometric._alternating_detail

    def off(b, cfg):
        report = alternate(b, cfg)
        return dataclasses.replace(report, best_value=report.best_value + 0.01)

    monkeypatch.setattr(geometric, "_alternating_detail", off)
    assert not V.check_bloch_special_cases(CFG, n=5).passed
    assert not V.check_bell_routes(CFG).passed


def test_correlation_route_matches_bloch_alternation_on_two_qubits():
    # generic states, whose optimal bases are not the computational ones, so
    # the route matches only when its sweeps search
    cfg = OptimizerConfig(restarts=8, seed=0)
    for seed in range(20):
        st = td.random_state(2, 2, rank=seed % 4 + 1, seed=seed)
        want = geometric.two_qubit_geo(td.to_bloch(st), cfg).value
        assert V.geo_two_sided_via_correlation(st, cfg) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
def test_correlation_route_matches_dephased_purity_route(dims):
    cfg = OptimizerConfig(restarts=8, seed=0)
    for seed in range(8):
        st = td.random_state(*dims, rank=seed % (dims[0] * dims[1]) + 1, seed=seed)
        want = geometric.geo_discord_two_sided(st, cfg).value
        assert V.geo_two_sided_via_correlation(st, cfg) == pytest.approx(want, abs=1e-10)


def test_bell_routes_judge_the_correlation_route(monkeypatch):
    # an objective (27) off by 0.01 moves the correlation route's Bell value
    # by 0.01, which check_bell_routes must catch
    objective = V.objective27
    monkeypatch.setattr(V, "objective27", lambda cd, a, b: objective(cd, a, b) + 0.01)
    assert not V.check_bell_routes(CFG).passed


@pytest.mark.parametrize("key", CHECKS)
def test_small_check_passes(key):
    run, names = CHECKS[key]
    res = run()
    assert res.passed, res.line()
    for name in names:
        assert f"{name} " in res.detail


@pytest.mark.parametrize(
    "key,name", [(key, name) for key, (_, names) in CHECKS.items() for name in names]
)
def test_each_margin_name_can_fail_its_check(monkeypatch, key, name):
    monkeypatch.setitem(V.TOLERANCES, name, -np.inf)
    res = CHECKS[key][0]()
    assert not res.passed, res.line()


@pytest.mark.parametrize("name", AUDIT_NAMES)
def test_each_audit_name_can_raise_a_violation(monkeypatch, name):
    monkeypatch.setitem(V.TOLERANCES, name, -np.inf)
    rep = V.audit_states(1, seed=0, cfg=CFG)
    assert rep.violations == [f"state 0: {name} margin {rep.worst_margins[name]:.3e}"]


def test_violation_is_strictly_below_minus_tolerance():
    tol = V.TOLERANCES["two-sided-above-lower-bound"]
    assert V.violated({"two-sided-above-lower-bound": -tol}) == []
    assert V.violated({"two-sided-above-lower-bound": -2 * tol}) == ["two-sided-above-lower-bound"]
    assert V.violated({"werner-budget": 0.0}) == []
    assert V.violated({"werner-budget": -1e-3}) == ["werner-budget"]


def test_audit_record_keeps_worst_margin_and_counts():
    rep = V.AuditReport()
    rep.record({"oracle": -1e-5, "loss-nonnegative": 0.3}, 0)
    rep.record({"oracle": -3e-4}, 1)
    rep.record({"oracle": -2e-5}, 2)
    assert rep.checks == 4
    assert rep.worst_margins == {"oracle": -3e-4, "loss-nonnegative": 0.3}
    assert rep.violations == ["state 1: oracle margin -3.000e-04"]
