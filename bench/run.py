"""gamehedge benchmark: one workload, closed loop, every metric with its unit.

Run from the repository root:

    python3 bench/run.py --workload price --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
program is imported from ``src/`` of the same checkout; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("price", "sweep", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict[str, str]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": str(os.cpu_count()), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def _fmt(value: float) -> str:
    return repr(float(value))


def report(result, names: tuple[str, ...]) -> list[str]:
    """Human-readable table followed by the JSON result line."""
    ops = result.ops
    lines = [f"workload {result.workload} seed {result.seed}: {len(ops)} ops, "
             f"{result.failed} failed, loop {result.loop_wall:.2f} s",
             "env " + " ".join(f"{k}={v}" for k, v in environment().items())]
    for name, (value, unit) in result.metrics.items():
        note = result.notes.get(name)
        lines.append(f"  {name:34s} {_fmt(value):>24s} {unit}" + (f"  ({note})" if note else ""))
    for case, dig in result.digests.items():
        lines.append(f"digest {case} sha256 {dig}")
    for problem in result.problems:
        lines.append(f"problem {problem}")
    for i, op in enumerate(ops):
        if op.problem is not None:
            lines.append(f"failed op {i} ({op.case}): {op.problem}")
    payload = {
        "correct": result.correct,
        "attempted": len(ops),
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
                    for name in names},
    }
    lines.append(json.dumps(payload))
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gamehedge" / "__init__.py").is_file():
        print(f"bench: no gamehedge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.setup_probe:
        harness.make_inputs(args.workload, args.seed, Path(args.setup_probe), harness.Sizes())
        return 0
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = tuple(harness.PER_LAYER_UNITS) if args.trace else harness.REPORTED_END_TO_END
    print("\n".join(report(result, names)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
