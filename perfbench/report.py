"""Run every workload once and print all end-to-end metrics as one table.

    python3 perfbench/report.py --seed 1 --seconds 55

Adds ``fail_ratio`` (failed over attempted requests) and the tail's
percentile and sample count from each run's detail line.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55)
    args = ap.parse_args(argv)
    status = 0
    print(f"{'workload':18s} {'metric':14s} {'value':>12s}  unit")
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("fail_ratio", detail["fail_ratio"], "ratio"))
        notes = {"state_s.tail": f"p{detail['tail']['percentile']} of {detail['tail']['samples']}",
                 "fail_ratio": f"{result['failed']} of {result['attempted']}"}
        for metric, value, unit in rows:
            note = f"  ({notes[metric]})" if metric in notes else ""
            print(f"{name:18s} {metric:14s} {value:12.6g}  {unit}{note}")
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
