"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/record.py --workloads price,sweep,verify --seeds 1-10 \
        --seconds 30 [--trace] [--out bench/baseline/FILE.json]

Each run is a separate ``bench/run.py`` process, one after another.  For
every workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartile as a share of
the median, as ``statistics.quantiles(values, n=4)`` gives them.  With
``--trace`` it also makes one traced run per workload (the first seed).
``--out`` writes every run's result line and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["table"] = lines[:-1]
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="price,sweep,verify")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    record: dict = {"runs": {}, "traced": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, trace=False)
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        record["runs"][workload] = runs
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            line = f"{workload} {name}: median {statistics.median(values):.6g} {unit}"
            if len(values) >= 2:
                line += f", spread {spread(values):.4f}"
            print(line, flush=True)
        if args.trace:
            traced = run_once(workload, _seeds(args.seeds)[0], args.seconds, trace=True)
            record["traced"][workload] = traced
            print("\n".join(traced["table"]), flush=True)
    if args.out:
        env = next(line for r in record["runs"].values() for line in r[0]["table"]
                   if line.startswith("env "))
        record["environment"] = dict(item.split("=", 1) for item in env[4:].split(" ", 3))
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
