"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads exact verify --seeds 1-10 [--trace 0|1] [--out FILE]

Run from the source root.  For every workload and end-to-end metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json, and
the same for the plain wall time `wall_s`, which is printed but not a metric.
With --out it writes the machine, the per-metric summaries and every run's
values and per-command median times as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report: dict = {"machine": None, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            report["machine"] = json.loads(lines[0].removeprefix("perfbench machine "))
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "printed": {line.split()[2]: float(line.split()[3]) for line in lines
                            if line.startswith("perfbench metric wall_s ")},
                "commands": [line.removeprefix("perfbench command ") for line in lines
                             if line.startswith("perfbench command ")],
            })
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if bounds.get(k) is not None), flush=True)
        metrics = {name: summarise([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
        metrics.update({name: summarise([r["printed"][name] for r in runs]) for name in runs[0]["printed"]})
        report["workloads"][workload] = {"metrics": metrics, "runs": runs}
        for name, s in metrics.items():
            if bounds.get(name) is not None or name in runs[0]["printed"]:
                print(f"{workload:12} {name:12} median {s['median']:.4g}  Q1 {s['q1']:.4g}  Q3 {s['q3']:.4g}"
                      f"  spread {s['spread']:.4f}  bound {bounds.get(name)}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
