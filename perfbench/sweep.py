"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 0-9 [--workload snowflake ...] [--trace 0|1]
                               [--out perfbench/BASELINE.json]

Each run is one ``run.py`` process, one after another, with
``run_seconds`` from BENCHMARK.json.  Per workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to a third of the metric's bound.
With ``--out`` the summary is written as JSON, merged into what the file
already holds for other workloads and trace modes.
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


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, traced: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {}
    for workload in names:
        results = [run_once(workload, s, spec["run_seconds"], args.trace) for s in seeds]
        bad = [(s, r["failed"]) for s, r in zip(seeds, results) if not r["correct"]]
        summary = summarise(results)
        report[workload] = {"seeds": seeds, "incorrect_runs": bad, "metrics": summary}
        print(f"{workload} (seeds {args.seeds}, trace {args.trace}, incorrect runs {bad})")
        for name, row in summary.items():
            limit = f"{bounds[name] / 3:.4f}" if name in bounds else "-"
            print(f"  {name:<40} median {row['median']:12.4f} {row['unit']:<6} "
                  f"spread {row['spread']:.4f} (third of bound {limit})")
            print("    " + " ".join(f"{v:.4g}" for v in row["values"]))
    if args.out:
        merged = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        key = f"trace_{args.trace}"
        for workload, body in report.items():
            merged.setdefault(workload, {})[key] = body
        args.out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
