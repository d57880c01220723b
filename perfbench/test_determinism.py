"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/test_determinism.py -q

Two traced runs with one seed must give identical exact counts and identical
request outputs: the library promises results that are deterministic for a
given seed, and the counts are only evidence if they repeat. Each run also
checks that tracing changed no output. Takes a few minutes: every run holds
each workload's anchor requests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _declared(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("workload", ["geo-sweep", "compute-entropic", "bloch-certify"])
def test_same_seed_repeats_counts_and_outputs(workload):
    (d1, r1), (d2, r2) = _run(workload, 11, 1), _run(workload, 11, 1)
    for detail, result in ((d1, r1), (d2, r2)):
        assert result["correct"], detail["failures"]
        assert detail["traced_outputs_match"]
        assert detail["self_within_wall"]
    assert d1["counts"] == d2["counts"]
    assert d1["outputs_sha256"] == d2["outputs_sha256"]
    units = {k: v["unit"] for k, v in r1["metrics"].items()}
    assert units == _declared("per_layer")
    if workload == "geo-sweep":
        layers = r1["metrics"]
        assert d1["counts"]["optimize.pattern_search.rows"] > 0
        assert layers["optimize.expm_skew.s"]["value"] > layers["contract.diag_probs.s"]["value"]
    if workload == "bloch-certify":
        assert d1["counts"]["optimize.pattern_search.rows"] == 0


def test_end_to_end_metrics_match_declaration():
    detail, result = _run("bloch-certify", 5, 0)
    assert result["correct"] and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert detail["tail"]["samples"] == result["attempted"]


def test_refuses_without_library_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geo-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracer
    from twodiscord import geometric, optimize

    search = optimize.pattern_search_multistart
    monkeypatch.delattr(optimize, "_expm_skew")
    restore, absent = tracer.install(tracer.Recorder())
    try:
        assert "twodiscord.optimize._expm_skew" in absent
        # a name imported into another module is wrapped there too
        assert geometric.pattern_search_multistart is not search
    finally:
        restore()
    assert geometric.pattern_search_multistart is search
