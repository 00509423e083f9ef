"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads exact mc --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out FILE.json

Runs `run.py` once per (workload, seed), one after another, and prints per
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
With --out, writes the values and summaries as one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write a trajectory point here")
    args = parser.parse_args()

    point: dict = {"trace": args.trace, "seconds": args.seconds, "seeds": args.seeds,
                   "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            env = json.loads(next(line.split("env: ", 1)[1]
                                  for line in proc.stdout.splitlines() if "env: " in line))
        env.pop("seed")
        point["env"] = env
        entry = {"correct": [r["correct"] for r in runs],
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        print(f"{workload}: correct={all(entry['correct'])} "
              f"failed={entry['failed']} of {entry['attempted']}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary = summarize(values)
            entry["metrics"][name] = {"unit": first["unit"], **summary, "values": values}
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound:g} {'ok' if summary['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {name:<44} median {summary['median']:<12.6g} {first['unit']:<11} "
                  f"spread {summary['spread']:.4f} {verdict}")
        point["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
