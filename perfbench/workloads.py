"""The benchmark workloads: inputs from a seed, one request, its checks.

Each workload is closed loop with one client: the worker sends the next
request only when the previous one has returned. A workload's requests form
an endless stream fixed by the seed: anchors that every run holds, then
whole units of a fixed mix, repeated. A timed run takes requests from the
stream until ``--seconds`` have passed; a traced run takes a fixed number,
sized from ``--seconds`` by the nominal per-request costs below (measured at
the commit that introduced the benchmark on a 2-core x86 box), so its counts
repeat exactly. The seed decides the states, never the mix.

Every request is checked; a failed check or an exception is a failed request.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

import twodiscord as td
from twodiscord import cli, verification

# bracket tolerances named by the acceptance table and the CLI
CLOSED_FORM_TOL = 1e-6
BOUND_TOL = 1e-8
CHAIN_TOL = 1e-6
ENTROPIC_LOW = -1e-9
ENTROPIC_HIGH_CLI = 1e-6
ENTROPIC_HIGH_ORACLE = 1e-9
ORACLE_TOL = 2e-4

# seed-independent input for the untimed warm-up request
WARMUP_SEED = 20110117


def ginibre(rng, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def nominal_count(wl, seconds: float, traced: bool) -> int:
    """Requests a run of ``seconds`` holds at the nominal costs; half the units when traced."""
    units = max(1, round((seconds - wl.ANCHOR_S) / wl.UNIT_S))
    if traced:
        units = math.ceil(units / 2)
    return len(wl.ANCHORS) + len(wl.UNIT) * units


def _mix(anchors, unit):
    return itertools.chain(anchors, itertools.cycle(unit))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def compute_cli(path, out, *options):
    """``twodiscord compute --entropic`` on one state file, in process; the exit code."""
    return cli.main(["compute", path, "--entropic", "--format", "json", "--out", out, *options])


def read_report(code, out_path):
    """The JSON report a ``compute`` request wrote, or an error when it wrote none."""
    if code != 0:
        return None, f"exit code {code}"
    with open(out_path) as fh:
        rep = json.load(fh)
    os.remove(out_path)
    return rep, None


def report_brackets(rep):
    """The first bracket a ``compute --entropic`` report breaks, or None.

    Covers what the report's own ``flagged`` misses: all three lower bounds,
    both two-sided >= one-sided chains and 0 <= entropic <= mutual information.
    """
    for value, bound in (("geo_one_sided_a", "lower_bound_a"),
                         ("geo_one_sided_b", "lower_bound_b"),
                         ("geo_two_sided", "lower_bound_two_sided")):
        if rep[value] < rep[bound] - BOUND_TOL:
            return f"{value} below {bound}"
    if rep["geo_two_sided"] < max(rep["geo_one_sided_a"], rep["geo_one_sided_b"]) - CHAIN_TOL:
        return "geo two-sided below a one-sided value"
    ent_one = max(rep["entropic_one_sided_a"], rep["entropic_one_sided_b"])
    if rep["entropic_two_sided"] < ent_one - CHAIN_TOL:
        return "entropic two-sided below a one-sided value"
    mi = rep["mutual_information"]
    for key in ("entropic_one_sided_a", "entropic_one_sided_b", "entropic_two_sided"):
        if not ENTROPIC_LOW <= rep[key] <= mi + ENTROPIC_HIGH_CLI:
            return f"{key} outside [0, mutual information]"
    return None


class GeoSweep:
    """Werner and isotropic states, checked against the closed forms.

    Acceptance criteria 1 and 2: m = 3 and m = 4 run ``geo_discord_two_sided``
    with the published ``OptimizerConfig()``, long lockstep compass searches
    on joint spaces of dimension 9 and 16. m = 2 goes through the user's
    default command, ``twodiscord compute --entropic`` (64 restarts), which
    adds the one-sided searches, the entropic searches and their spectra,
    the JSON reader and the report; the 3x3 and 4x4 entropic searches would
    take tens of seconds each, so only m = 2 takes that path.

    Costs are smooth in x, so the seeded offsets barely move a run's total.
    The exception is a narrow dip next to the maximally mixed state
    (x = 1/m for Werner, 1/m^2 for isotropic), where the search stops at
    once: an m = 4 request there costs 0.1 s instead of 5-7 s and, as one
    of only two such requests in a run, moved throughput by about a tenth
    between seeds. The m = 4 anchors are therefore drawn from the half of
    the domain away from that point.
    """

    name = "geo-sweep"
    ANCHORS = [("werner", 4), ("isotropic", 4)]
    # m = 2 is the majority so the median falls well inside one class, and
    # the tail (about the 11th slowest) well inside the m = 3 class
    UNIT = [("werner", 3), ("isotropic", 3)] * 2 + [("werner", 2), ("isotropic", 2)] * 5
    ANCHOR_S, UNIT_S = 12.0, 11.0
    DOMAIN = {"werner": (-1.0, 1.0), "isotropic": (0.0, 1.0)}
    ANCHOR_DOMAIN = {"werner": (-1.0, -0.5), "isotropic": (0.5, 1.0)}

    def stream(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        offsets = {kind: rng.uniform() for kind in sorted(set(self.ANCHORS + self.UNIT))}
        drawn = dict.fromkeys(offsets, 0)
        # the k-th request of each (family, m) class sits at the k-th point of a
        # golden-ratio sequence with a seeded offset, so any prefix of the
        # stream covers each class's domain evenly
        for fam, m in _mix(self.ANCHORS, self.UNIT):
            k = drawn[(fam, m)]
            drawn[(fam, m)] += 1
            domain = self.ANCHOR_DOMAIN if (fam, m) in self.ANCHORS else self.DOMAIN
            lo, hi = domain[fam]
            yield (fam, m, float(lo + (hi - lo) * ((offsets[(fam, m)] + k * GOLDEN) % 1.0)))

    def warmup(self):
        return ("werner", 2, 0.3)

    def prepare(self, req, workdir, i):
        fam, m, x = req
        if m != 2:
            return (fam, m, x, None, None)
        path = os.path.join(workdir, f"state-{i}.json")
        td.save_state(path, getattr(td, fam)(m, x))
        return (fam, m, x, path, os.path.join(workdir, "report.json"))

    def label(self, req) -> str:
        return f"{req[0]}-m{req[1]}"

    def execute(self, req):
        fam, m, x, path, out = req
        if path is not None:
            return compute_cli(path, out)
        return td.geo_discord_two_sided(getattr(td, fam)(m, x), td.OptimizerConfig())

    def check(self, req, res):
        fam, m, x, path, out_path = req
        if path is not None:
            rep, err = read_report(res, out_path)
            if err:
                return False, None, err
            value, bound = rep["geo_two_sided"], rep["lower_bound_two_sided"]
            out = [rep[k] for k in sorted(rep)]
            err = report_brackets(rep)
            if err:
                return False, out, err
        else:
            value, bound = res.value, res.lower_bound
            out = [value, bound]
        closed = getattr(td, f"{fam}_geo_closed")(m, x)
        if abs(value - closed) > CLOSED_FORM_TOL:
            return False, out, f"|value - closed form| = {abs(value - closed):.3e}"
        if value < bound - BOUND_TOL:
            return False, out, "value below its lower bound"
        return True, out, None


class ComputeEntropic:
    """``twodiscord compute --entropic`` on random state files, in process.

    The user's single-state path on generic states: many short one- and
    two-sided searches, batched spectra, the JSON reader and the report.
    Mostly 2x2, one 2x3 state in every run. No 3x3: one takes about 10 s.

    For runs by hand; not among BENCHMARK.json's workloads. What a random
    2x2 request costs depends on where the seeded restarts land relative to
    that state's landscape (coefficient of variation about 0.36, as large
    within one local-unitary orbit as across states), so the median of the
    30-40 requests a one-minute run holds moves by about a tenth between
    seeds on top of the host's own spread. ``geo-sweep`` carries the same
    code path on states whose cost is smooth in the seeded parameter.
    """

    name = "compute-entropic"
    ANCHORS = [(2, 3)]
    UNIT = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4)]
    ANCHOR_S, UNIT_S = 4.5, 5.4
    RESTARTS = "16"

    def stream(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        anchors = [(na, nb, int(rng.integers(1, na * nb + 1))) for na, nb in self.ANCHORS]
        for na, nb, r in _mix(anchors, self.UNIT):
            yield (na, nb, r, ginibre(rng, na * nb, r))

    def warmup(self):
        return (2, 2, 4, td.werner(2, 0.3).entries)

    def prepare(self, req, workdir, i):
        na, nb, rank, rho = req
        path = os.path.join(workdir, f"state-{i}.json")
        td.save_state(path, td.make_bipartite(rho, na, nb))
        return (f"{na}x{nb}-r{rank}", path, os.path.join(workdir, "report.json"))

    def label(self, req) -> str:
        return req[0].split("-")[0]

    def execute(self, req):
        _, path, out = req
        return compute_cli(path, out, "--restarts", self.RESTARTS)

    def check(self, req, code):
        rep, err = read_report(code, req[2])
        if err:
            return False, None, err
        out = [rep[k] for k in sorted(rep)]
        err = report_brackets(rep)
        return err is None, out, err


class BlochCertify:
    """The two-qubit Bloch route certified by the grid oracles.

    Runs no compass search and builds no unitary: the bypass workload, where
    a search-engine change should move nothing. Also the only workload that
    loads the sphere routines and the grid oracles (criterion 9).
    """

    name = "bloch-certify"
    ANCHORS = []
    UNIT = [1, 2, 3, 4]
    ANCHOR_S, UNIT_S = 0.0, 2.65

    def stream(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        for r in _mix(self.ANCHORS, self.UNIT):
            yield (r, ginibre(rng, 4, r))

    def warmup(self):
        return (4, ginibre(np.random.default_rng(WARMUP_SEED), 4, 4))

    def prepare(self, req, workdir, i):
        return req

    def label(self, req) -> str:
        return f"rank{req[0]}"

    def execute(self, req):
        state = td.make_bipartite(req[1], 2, 2)
        b = td.to_bloch(state)
        geo = td.two_qubit_geo(b, td.OptimizerConfig())
        _, _, alt = td.alternating_sphere_max(b, td.OptimizerConfig(restarts=16))
        grid = td.sphere_grid_oracle(b, 400)
        oracle = verification.entropic_oracle_two_qubit(state, 32)
        return state, geo, alt, grid, oracle

    def check(self, req, res):
        state, geo, alt, grid, oracle = res
        out = [geo.value, geo.lower_bound, alt, grid, oracle]
        if abs(alt - grid) > ORACLE_TOL:
            return False, out, f"|alternating - grid| = {abs(alt - grid):.3e}"
        if geo.value < geo.lower_bound - BOUND_TOL:
            return False, out, "two_qubit_geo below its lower bound"
        mi = td.mutual_information(state)
        if not ENTROPIC_LOW <= oracle <= mi + ENTROPIC_HIGH_ORACLE:
            return False, out, "entropic oracle outside [0, mutual information]"
        return True, out, None


WORKLOADS = {w.name: w for w in (GeoSweep(), ComputeEntropic(), BlochCertify())}
