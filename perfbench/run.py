"""Benchmark of the twodiscord library: closed-loop workloads.

    python3 perfbench/run.py --workload geo-sweep --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Workloads (see ``workloads.py`` for why each was chosen):

    geo-sweep         Werner/isotropic states against their closed forms
    bloch-certify     the two-qubit Bloch route and its grid oracles
    compute-entropic  ``twodiscord compute --entropic`` on random state files;
                      for runs by hand, not listed in BENCHMARK.json (see
                      BASELINE.md)

Every run starts fresh interpreters with one BLAS thread: two set-up probes
and the worker that measures. ``--trace 0`` prints the end-to-end metrics of
requests sent until ``--seconds`` have passed; ``--trace 1`` the per-layer
metrics of a traced pass over a fixed number of requests (spans are written
to ``.perfbench_out/``). The line before the last holds the details: the
environment, failures, the tail percentile with its sample count and, when
traced, the exact counts that repeat for a given seed. The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("geo-sweep", "bloch-certify", "compute-entropic")
SETUP_PROBES = 2  # extra fresh interpreters whose set-up time joins the median
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (span, key); every per-layer metric the traced run reports
LAYER_METRICS = {
    "optimize.pattern_search.calls": ("optimize.pattern_search", "calls"),
    "optimize.pattern_search.s": ("optimize.pattern_search", "s"),
    "optimize.pattern_search.self_s": ("optimize.pattern_search", "self_s"),
    "optimize.pattern_search.batches": ("optimize.batch_eval", "calls"),
    "optimize.pattern_search.rows": ("optimize.batch_eval", "rows"),
    "optimize.pattern_search.iterations": ("optimize.pattern_search", "iterations"),
    "optimize.pattern_search.restarts": ("optimize.pattern_search", "restarts"),
    "optimize.batch_eval.s": ("optimize.batch_eval", "s"),
    "optimize.expm_skew.s": ("optimize.expm_skew", "s"),
    "optimize.expm_skew.rows": ("optimize.expm_skew", "rows"),
    "optimize.product_unitaries.s": ("optimize.product_unitaries", "s"),
    "optimize.product_unitaries.rows": ("optimize.product_unitaries", "rows"),
    "optimize.params_from_unitary.s": ("optimize.params_from_unitary", "s"),
    "optimize.alternating.s": ("optimize.alternating", "s"),
    "optimize.grid_oracle.s": ("optimize.grid_oracle", "s"),
    "contract.diag_probs.s": ("contract.diag_probs", "s"),
    "contract.diag_probs.rows": ("contract.diag_probs", "rows"),
    "contract.side_blocks.s": ("contract.side_blocks", "s"),
    "contract.side_blocks.rows": ("contract.side_blocks", "rows"),
    "entropic.one_sided.s": ("entropic.one_sided", "s"),
    "entropic.two_sided.s": ("entropic.two_sided", "s"),
    "entropic.eigvalsh.s": ("entropic.eigvalsh", "s"),
    "entropic.eigvalsh.rows": ("entropic.eigvalsh", "rows"),
    "entropic.mutual_information.s": ("entropic.mutual_information", "s"),
    "geometric.two_sided.s": ("geometric.two_sided", "s"),
    "geometric.one_sided.s": ("geometric.one_sided", "s"),
    "geometric.warm_starts.s": ("geometric.warm_starts", "s"),
    "geometric.correlation_matrix.s": ("geometric.correlation_matrix", "s"),
    "geometric.lower_bound.s": ("geometric.lower_bound", "s"),
    "geometric.two_qubit_geo.s": ("geometric.two_qubit_geo", "s"),
    "states.validate.calls": ("states.validate", "calls"),
    "states.validate.s": ("states.validate", "s"),
    "states.bloch.s": ("states.bloch", "s"),
    "serialize.load_state.s": ("serialize.load_state", "s"),
    "cli.build_report.s": ("cli.build_report", "s"),
    "verification.entropic_oracle.s": ("verification.entropic_oracle", "s"),
}
# counts that must repeat exactly for a given seed and run length
EXACT_COUNTS = ("optimize.pattern_search.rows", "optimize.pattern_search.batches",
                "optimize.pattern_search.iterations", "optimize.pattern_search.restarts",
                "optimize.expm_skew.rows", "contract.diag_probs.rows")


def tail(times):
    """(q, value): the highest integer percentile with at least ten samples beyond it.

    Nearest-rank percentiles; with ten samples or fewer, the maximum as q = 100.
    """
    t = sorted(times)
    n = len(t)
    if n <= 10:
        return 100, t[-1]
    q = 100 * (n - 10) // n
    return q, t[max(1, math.ceil(q * n / 100)) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, extra, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _by_kind(records):
    out = {}
    for r in records:
        out.setdefault(r["kind"], []).append(r["s"])
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(main, setups):
    times = [r["s"] for r in main["requests"]]
    q, tail_s = tail(times)
    metrics = {
        "states_per_s": metric(len(times) / main["wall_s"], "1/s"),
        "state_s.p50": metric(statistics.median(times), "s"),
        "state_s.tail": metric(tail_s, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
    }
    return metrics, {"percentile": q, "samples": len(times)}


def per_layer(main):
    traced = main["traced"]
    layers = traced["trace"]["layers"]
    metrics = {}
    for name, (span, key) in LAYER_METRICS.items():
        unit = "s" if key in ("s", "self_s") else "count"
        metrics[name] = metric(layers.get(span, {}).get(key, 0), unit)
    product_rows = metrics["optimize.product_unitaries.rows"]["value"]
    dedup = traced["trace"]["expm_rows_in_product"] / (2 * product_rows) if product_rows else 0.0
    metrics["optimize.dedup_ratio"] = metric(dedup, "ratio")
    metrics["run.cpu_s"] = metric(traced["cpu_s"], "s")
    metrics["run.cpu_per_wall"] = metric(traced["cpu_s"] / traced["wall_s"], "ratio")
    metrics["trace.overhead"] = metric(traced["wall_s"] / main["wall_s"], "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twodiscord" / "__init__.py").is_file():
        print(f"error: no twodiscord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load = os.getloadavg()
    setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    main = run_worker(args, [], deadline)
    setups.append(main["setup_s"])

    passes = [main] + ([main["traced"]] if args.trace else [])
    failed_idx = {i for p in passes for i, r in enumerate(p["requests"]) if not r["ok"]}
    attempted = len(main["requests"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "loadavg_at_start": load,
        **main["env"],
        "setup_s_samples": setups,
        "warmup_ok": main["warmup_ok"],
        "fail_ratio": len(failed_idx) / attempted,
        "failures": [{"request": i, "kind": main["requests"][i]["kind"],
                      "error": next(p["requests"][i]["error"] for p in passes
                                    if not p["requests"][i]["ok"])}
                     for i in sorted(failed_idx)],
        "outputs_sha256": main["outputs_sha256"],
        "wall_s": main["wall_s"],
        "cpu_per_wall": main["cpu_s"] / main["wall_s"],
        "kinds": {k: {"count": len(v), "p50_s": statistics.median(v)}
                  for k, v in _by_kind(main["requests"]).items()},
    }
    correct = not failed_idx and main["warmup_ok"]
    if args.trace:
        traced = main["traced"]
        metrics = per_layer(main)
        outputs_match = traced["outputs_sha256"] == main["outputs_sha256"]
        self_within_wall = traced["trace"]["self_sum_s"] <= traced["wall_s"]
        correct = correct and outputs_match and self_within_wall
        detail.update({
            "counts": {k: metrics[k]["value"] for k in EXACT_COUNTS},
            "traced_outputs_match": outputs_match,
            "self_sum_s": traced["trace"]["self_sum_s"],
            "traced_wall_s": traced["wall_s"],
            "self_within_wall": self_within_wall,
            "absent_layers": traced["trace"]["absent"],
            "spans": traced["trace"]["spans"],
            "spans_file": traced["trace"]["spans_file"],
            "layers": traced["trace"]["layers"],
        })
    else:
        metrics, detail["tail"] = end_to_end(main, setups)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": len(failed_idx), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
