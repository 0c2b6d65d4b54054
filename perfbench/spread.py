"""Run-to-run spread of the end-to-end metrics over several workload seeds.

    python3 perfbench/spread.py --workload crowd-dense --seeds 1,2,3,4,5 --seconds 25

For each metric it prints the ten-run style figure the bounds are set from:
(Q3 - Q1) / median over the runs, with quartiles from
``statistics.quantiles(values, n=4)``, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {line}",
              flush=True)
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(k)
        print(f"{k:<12} median={med:.6g} spread={spread:.4f} bound={bound} "
              f"third={bound / 3 if bound else float('nan'):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
