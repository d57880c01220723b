"""Command-line front end.

Subcommands: ``compute`` for a single state file, ``sweep`` for the Werner
and isotropic families, ``verify`` for the worked-example table, ``audit``
for randomized invariant checks. Exit codes: 0 success, 2 input/validation
failure (a numerical failure of linear algebra and running out of memory
included), 3 flagged cross-check violation. All diagnostics are single
lines prefixed "error:".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .entropic import discord_one_sided, discord_two_sided, mutual_information
from .errors import DiscordError, DomainError
from .geometric import geo_discord_one_sided, geo_discord_two_sided
from .optimize import OptimizerConfig
from .serialize import load_state
from .states import _check_family, purity
from .verification import (
    CLOSED_FORMS,
    audit_states,
    closed_form_points,
    entropic_margins,
    geometric_margins,
    hierarchy,
    run_verify,
    violated,
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".9g")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, seed=args.seed)


def _write(args, text: str):
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write output file {args.out}: {exc.strerror}") from exc


def build_report(state, cfg: OptimizerConfig, with_entropic: bool) -> dict:
    """One flat record of discords, bounds, and optimizer diagnostics.

    The one-sided searches are warm-started from the two-sided optimum so
    the reported hierarchy cannot be broken by an unlucky restart draw.
    ``flagged`` is set when a value leaves its documented bracket, judged by
    ``verification.TOLERANCES``: each geometric value below its spectral
    lower bound, the two-sided value below a one-sided one, and with the
    entropic values, any of them outside [0, mutual information] or the
    two-sided one below a one-sided one.
    """
    ab, da, db = hierarchy(state, cfg, geo_discord_two_sided, geo_discord_one_sided)
    margins = geometric_margins(ab, da, db)
    mi = mutual_information(state)
    report = {
        "dim_a": state.dim_a,
        "dim_b": state.dim_b,
        "purity": purity(state.rho),
        "mutual_information": mi,
        "geo_one_sided_a": da.value,
        "geo_one_sided_b": db.value,
        "geo_two_sided": ab.value,
        "lower_bound_a": da.lower_bound,
        "lower_bound_b": db.lower_bound,
        "lower_bound_two_sided": ab.lower_bound,
        "restarts": ab.optimizer_report.restarts_run,
        "iterations": ab.optimizer_report.iterations_total,
        "converged": ab.optimizer_report.converged,
        "flagged": False,
    }
    if with_entropic:
        eab, ea, eb = hierarchy(state, cfg, discord_two_sided, discord_one_sided)
        report["entropic_one_sided_a"] = ea.value
        report["entropic_one_sided_b"] = eb.value
        report["entropic_two_sided"] = eab.value
        margins.update(entropic_margins(mi, eab, ea, eb))
    report["flagged"] = bool(violated(margins))
    return report


def cmd_compute(args) -> int:
    try:
        state = load_state(args.state_file)
    except OSError as exc:
        raise DomainError(f"cannot read state file {args.state_file}: {exc.strerror}") from exc
    report = build_report(state, _config(args), args.entropic)
    if args.format == "json":
        text = json.dumps(report, indent=2, default=float) + "\n"
    else:
        keys = list(report)
        text = ",".join(keys) + "\n" + ",".join(_fmt(report[k]) for k in keys) + "\n"
    _write(args, text)
    return 3 if report["flagged"] else 0


def cmd_sweep(args) -> int:
    for x in (args.x_start, args.x_end):
        _check_family(args.family, args.m, x)
    if args.points < 2:
        raise DomainError("points must be >= 2")
    if args.x_start > args.x_end:
        raise DomainError(f"x-start {args.x_start} exceeds x-end {args.x_end}")
    xs = np.linspace(args.x_start, args.x_end, args.points)
    lines = ["family,m,x,geo_closed,geo_numeric,lower_bound,abs_gap"]
    ok = True
    for x, want, res in closed_form_points(args.family, args.m, xs, _config(args)):
        gap = abs(want - res.value)
        ok = ok and not violated({f"{args.family}-closed-form": -gap})
        lines.append(
            f"{args.family},{args.m},{_fmt(x)},{_fmt(want)},{_fmt(res.value)},"
            f"{_fmt(res.lower_bound)},{_fmt(gap)}"
        )
    _write(args, "\n".join(lines) + "\n")
    return 0 if ok else 3


def cmd_verify(args) -> int:
    results = run_verify(quick=args.quick, seed=args.seed, restarts=args.restarts)
    for r in results:
        print(r.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_audit(args) -> int:
    try:
        na, nb = (int(p) for p in args.dims.lower().split("x"))
    except ValueError:
        raise DomainError(f"dims must look like 2x2, got {args.dims!r}")
    rep = audit_states(args.states, args.seed, dims=(na, nb), cfg=_config(args))
    print(f"audited {rep.n_states} random ({na},{nb}) states, seed {rep.seed}: "
          f"{rep.checks} checks, {len(rep.violations)} violations")
    for name in sorted(rep.worst_margins):
        print(f"  {name}: worst margin {_fmt(rep.worst_margins[name])}")
    for v in rep.violations:
        print(f"  violation: {v}")
    return 0 if not rep.violations else 1


def _add_common(p):
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="twodiscord",
        description="Entropic and geometric quantum discord of bipartite states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="discord report for a JSON state file")
    p.add_argument("state_file")
    p.add_argument("--entropic", action="store_true",
                   help="also run the (slower) entropic optimizations")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("sweep", help="CSV sweep of a closed-form family")
    p.add_argument("--family", choices=tuple(CLOSED_FORMS), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x-start", type=float, required=True)
    p.add_argument("--x-end", type=float, required=True)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the worked-example and property table")
    p.add_argument("--quick", action="store_true",
                   help="trimmed table without the m=4 sweeps")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="randomized invariant audit")
    p.add_argument("--states", type=int, default=100)
    p.add_argument("--dims", default="2x2")
    _add_common(p)
    p.set_defaults(func=cmd_audit, restarts=16)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiscordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
