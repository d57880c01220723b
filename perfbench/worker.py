"""One benchmark process: set-up, then the timed pass or the traced passes.

Started by ``run.py`` in a fresh interpreter with one BLAS thread, so import
cost is part of the set-up it reports. Prints one JSON object on stdout.

    --setup-only   import, generate inputs, one warm-up request, then exit
    --trace 0      one untimed warm-up, then the timed pass: requests from the
                   workload's stream until --seconds have passed
    --trace 1      an untraced pass over a fixed number of requests, then the
                   same requests again with every layer wrapped by the span
                   recorder
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def run_pass(wl, prepared, rec=None, seconds=None):
    """Send each request after the previous one returns; check every result.

    With ``seconds``, no request starts once that much time has passed.
    """
    records, outputs = [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for i, req in enumerate(prepared):
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
        if rec is not None:
            rec.request = i
        t = time.perf_counter()
        try:
            res, err = wl.execute(req), None
        except Exception as exc:  # a failed request is counted, the run goes on
            res, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        ok, out = False, None
        if rec is not None:
            rec.paused = True
        if err is None:
            try:
                ok, out, err = wl.check(req, res)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if rec is not None:
            rec.paused = False
        records.append({"kind": wl.label(req), "s": dt, "ok": ok, "error": err})
        outputs.append(out)
    return {
        "requests": records,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - cpu0,
        "outputs_sha256": hashlib.sha256(json.dumps(outputs).encode()).hexdigest(),
    }


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads}


def traced_pass(wl, prepared, seed):
    """Trace the same requests; return the pass and the layer summary."""
    import tracer

    rec = tracer.Recorder()
    restore, absent = tracer.install(rec)
    try:
        res = run_pass(wl, prepared, rec)
    finally:
        restore()
    layers = tracer.summarize(rec)
    spans_file = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    rec.write(spans_file)
    res["trace"] = {
        "layers": layers,
        "absent": absent,
        "expm_rows_in_product": tracer.parent_rows(
            rec, "optimize.expm_skew", "optimize.product_unitaries"),
        "self_sum_s": sum(v["self_s"] for v in layers.values()),
        "spans": len(rec.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import twodiscord

    src = (ROOT / "src").resolve()
    if src not in Path(twodiscord.__file__).resolve().parents:
        print(f"error: twodiscord imported from {twodiscord.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, nominal_count

    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        stream = wl.stream(args.seed)
        n = nominal_count(wl, args.seconds, traced=bool(args.trace))
        prepared = [wl.prepare(r, workdir, i) for i, r in enumerate(itertools.islice(stream, n))]
        warm = [wl.prepare(wl.warmup(), tempfile.mkdtemp(dir=workdir), 0)]
        warm_res = run_pass(wl, warm)
        setup_s = time.perf_counter() - t0
        result = {"setup_s": setup_s, "warmup_ok": warm_res["requests"][0]["ok"]}
        if not args.setup_only:
            result["env"] = environment()
            if args.trace:
                result.update(run_pass(wl, prepared))
                result["traced"] = traced_pass(wl, prepared, args.seed)
            else:
                # a run that outlasts the requests made in set-up prepares more as it goes
                more = (wl.prepare(r, workdir, i) for i, r in enumerate(stream, start=n))
                result.update(run_pass(wl, itertools.chain(prepared, more), seconds=args.seconds))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
