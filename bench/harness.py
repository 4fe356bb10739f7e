"""Closed-loop workload runner and metric computation.

One client calls ``gamehedge.cli.main(argv)`` in this process; the next op
starts when the previous one returns.  There are no threads, and output
checks, digests and clean-up run between ops, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gamehedge.cli
from spans import Tracer
from workloads import WORKLOADS, Sizes

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
TRACE_ROOT = ROOT / ".bench_trace"
SETUP_PROBES = 5
# The calibration loop's duration at the reference speed.  Timed metrics are
# wall times scaled by REF_S / (calibration time measured around them), so a
# drift in machine speed during or between runs cancels; the raw wall-clock
# values are printed beside them in the table.
REF_S = 0.015

# The --trace 0 metrics (defined in README.md).  error_rate is printed in the
# table only: it reads 0 when every op succeeds, and the result line carries
# failed and attempted.
END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "quotes_per_s": "1/s",
    "error_rate": "ratio", "peak_rss_mb": "MB",
}
REPORTED_END_TO_END = tuple(name for name in END_TO_END_UNITS if name != "error_rate")

# --trace 1 metrics: per traced op means, except iterations_max (a maximum)
# and the two trace.* figures.
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.bytes_written": "B", "cli.files_written": "count",
    "lattice.csv_write_s": "s", "lattice.csv_rows_written": "count",
    "lattice.csv_read_s": "s", "lattice.build_s": "s", "lattice.self_s": "s",
    "pricing.regions_s": "s", "pricing.region_nodes": "count", "pricing.obstacles_s": "s",
    "pricing.contract_s": "s", "pricing.self_s": "s",
    "drbsde.solve_s": "s", "drbsde.nodes_solved": "count", "drbsde.iterations_max": "count",
    "drbsde.self_s": "s",
    "generators.eval_g_calls": "count", "generators.eval_g_elems": "count",
    "generators.eval_g_s": "s", "generators.self_s": "s",
    "config.build_s": "s",
    "dynkin.pair_s": "s", "dynkin.rule_dp_s": "s", "dynkin.rules": "count",
    "dynkin.pairs": "count", "dynkin.self_s": "s",
    "replication.verify_s": "s", "replication.classify_s": "s",
    "replication.paths_enumerated": "count", "replication.single_path_s": "s",
    "replication.forward_wealth_calls": "count", "replication.self_s": "s",
    "trace.overhead_s": "s", "trace.uncovered_s": "s",
}


@dataclass
class Op:
    case: int
    wall: float
    traced: bool
    problem: str | None
    bytes_written: int
    files_written: int
    ref: float = REF_S  # calibration time around the op (see run)

    @property
    def scaled(self) -> float:
        return self.wall * REF_S / self.ref


@dataclass
class Result:
    workload: str
    seed: int
    ops: list[Op]
    loop_wall: float
    problems: list[str]
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]
    digests: dict[str, str]

    @property
    def failed(self) -> int:
        return sum(op.problem is not None for op in self.ops)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def calibrate() -> float:
    """Wall time of a fixed mix of the program's kinds of work, about REF_S.

    A small backward recursion over shrinking numpy rows, node-tuple lists,
    ``%.17g`` CSV rows and a few large-array passes, none of it calling
    gamehedge, so a change to the program does not move it.  The collector
    is off, so a collection of the program's garbage does not land here.
    """
    gc.disable()
    try:
        return _calibration_loop()
    finally:
        gc.enable()


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    writer = csv.writer(io.StringIO())
    y = np.linspace(1.0, 2.0, 121)
    big = np.linspace(0.0, 1.0, 1 << 17)
    cells = []
    for k in range(120, 0, -1):
        z = (y[1:] - y[:-1]) / 0.01
        v = 0.5 * y[1:] + 0.5 * y[:-1] - 1e-4 * np.where(z >= 0.0, z, 2.0 * z)
        y = np.minimum(np.maximum(v, 1.2), 1.8)
        if not np.isfinite(y).all():
            raise ArithmeticError("calibration diverged")
        cells.extend((k, j) for j in np.nonzero(y > 1.5)[0])
        for j in range(0, k, 4):
            writer.writerow([k, j, "%.17g" % y[j]])
        if k % 10 == 0:
            big = np.where(big > 0.5, big * 0.999, big + 1e-3)
    return time.perf_counter() - t0


def run_op(case, out_dir: Path, main) -> tuple[float, str | None]:
    """Time one op: every CLI call of the case, in order; returns (wall, problem)."""
    sink = io.StringIO()
    problem = None
    gc.collect()  # every op starts from the same collector state
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            for sub, argv in case.calls:
                code = main([*argv, "--out", str(out_dir / sub)])
                if code != 0:
                    problem = f"{argv[0]} exited {code}"
                    break
        except Exception as exc:  # a crashing op is a failed op, the run goes on
            problem = f"{case.calls[0][1][0]} raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return wall, problem


def digest(out_dir: Path) -> tuple[str, int, int]:
    """sha256 over every artifact's relative path, size and bytes; with the
    total bytes and the file count."""
    h = hashlib.sha256()
    total = count = 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0"
                     + len(data).to_bytes(8, "little") + data)
            total += len(data)
            count += 1
    return h.hexdigest(), total, count


def tail_percentile(walls: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 11 or fewer samples
    this is the minimum, the statistic with the most samples beyond it, so
    the value does not jump as the sample count crosses 11.
    """
    ordered = sorted(walls)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def make_inputs(workload: str, seed: int, inputs: Path, sizes: Sizes):
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload].make_cases(np.random.default_rng(seed), inputs, sizes)


def measure_setup(workload: str, seed: int, work: Path,
                  probes: int = SETUP_PROBES) -> tuple[float, float]:
    """Median (scaled, raw) wall time of fresh processes that import gamehedge
    and write the inputs."""
    times, cal = [], [calibrate()]
    for k in range(probes):
        argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe",
                str(work / f"probe{k}"), "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        cal.append(calibrate())
    scaled = [t * 2 * REF_S / (a + b) for t, a, b in zip(times, cal, cal[1:])]
    return statistics.median(scaled), statistics.median(times)


def _check(spec, case, out: Path) -> str | None:
    try:
        bad = spec.check(case, out)
    except Exception as exc:  # a missing or malformed artifact fails the check
        bad = [f"check raised {type(exc).__name__}: {exc}"]
    return "output check failed: " + "; ".join(bad) if bad else None


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
        main=None, setup_probes: int = SETUP_PROBES) -> Result:
    """Run one workload for ``seconds`` of closed-loop ops and compute its metrics.

    ``main`` defaults to ``gamehedge.cli.main``; tests pass a faulty one.
    """
    spec = WORKLOADS[workload]
    main = main or gamehedge.cli.main
    work = WORK_ROOT / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    problems: list[str] = []
    try:
        cases = make_inputs(workload, seed, work / "inputs", sizes)
        setup_s = None if trace else measure_setup(workload, seed, work, setup_probes)
        _, problem = run_op(cases[0], work / "warmup", main)
        if problem is not None:
            problems.append(f"warm-up: {problem}")
        shutil.rmtree(work / "warmup", ignore_errors=True)

        ops: list[Op] = []
        first: dict[int, tuple[str, str | None]] = {}  # case -> (digest, check problem)
        cal = [calibrate()]
        t_loop = time.perf_counter()
        # traced and untraced ops alternate by whole rounds over the cases
        min_ops = 2 * len(cases) if trace else 1
        while len(ops) < min_ops or time.perf_counter() - t_loop < seconds:
            i = len(ops)
            ci = i % len(cases)
            traced = trace and (i // len(cases)) % 2 == 0
            out = work / "ops" / f"op{i}"
            if traced:
                tracer.op = i
                tracer.install()
            try:
                wall, problem = run_op(cases[ci], out, main)
            finally:
                if traced:
                    tracer.uninstall()
            d, n_bytes, n_files = digest(out)
            if problem is None:
                if ci not in first:
                    first[ci] = (d, _check(spec, cases[ci], out))
                ref, bad = first[ci]
                problem = bad or (None if d == ref else
                                  "artifact digest differs from the first op on this case")
            shutil.rmtree(out, ignore_errors=True)
            ops.append(Op(ci, wall, traced, problem, n_bytes, n_files))
            cal.append(calibrate())
        loop_wall = time.perf_counter() - t_loop
        # an op's reference is the median of the four calibrations nearest to it,
        # two before and two after, so one disturbed calibration cannot skew it
        for i, op in enumerate(ops):
            op.ref = statistics.median(cal[max(i - 1, 0):i + 3])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {cases[ci].name: d for ci, (d, _) in sorted(first.items())}
    if trace:
        metrics, notes = _layer_metrics(tracer, ops, loop_wall)
        tracer.write(TRACE_ROOT / f"{workload}-seed{seed}.csv")
    else:
        metrics, notes = _end_to_end(spec.quotes_per_op, ops, setup_s, setup_probes)
    return Result(workload, seed, ops, loop_wall, problems, metrics, notes, digests)


def _timings(quotes_per_op: int, walls: list[float], good: int) -> dict[str, float]:
    tail, _, _ = tail_percentile(walls)
    return {"op_p50_s": statistics.median(walls), "op_tail_s": tail,
            "quotes_per_s": quotes_per_op * good / sum(walls)}


def _end_to_end(quotes_per_op: int, ops: list[Op], setup: tuple[float, float], probes: int):
    failed = sum(op.problem is not None for op in ops)
    good = len(ops) - failed
    values = _timings(quotes_per_op, [op.scaled for op in ops], good)
    raw = _timings(quotes_per_op, [op.wall for op in ops], good)
    values["setup_s"], raw["setup_s"] = setup
    values["error_rate"] = failed / len(ops)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, pct, beyond = tail_percentile([op.scaled for op in ops])
    notes = {
        "setup_s": f"median of {probes} set-ups",
        "op_p50_s": f"{len(ops)} ops",
        "op_tail_s": f"p{pct:.1f} of {len(ops)} samples, {beyond} beyond",
        "error_rate": f"{failed} of {len(ops)} ops failed",
        "peak_rss_mb": "not scaled",
    }
    for name, value in raw.items():
        notes[name] = "; ".join(filter(None, [f"raw {value!r} {END_TO_END_UNITS[name]}",
                                             notes.get(name)]))
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, notes


def _layer_metrics(tracer: Tracer, ops: list[Op], loop_wall: float):
    traced = {i: op.wall for i, op in enumerate(ops) if op.traced}
    plain = [op.scaled for op in ops if not op.traced]
    values = tracer.layer_metrics(traced)
    values["cli.bytes_written"] = statistics.fmean(op.bytes_written for op in ops if op.traced)
    values["cli.files_written"] = statistics.fmean(op.files_written for op in ops if op.traced)
    values["trace.overhead_s"] = (statistics.median(op.scaled for op in ops if op.traced)
                                  - statistics.median(plain))
    values["trace.uncovered_s"] = (loop_wall - sum(op.wall for op in ops)) / len(ops)
    notes = {
        "trace.overhead_s": f"median of {len(traced)} traced minus {len(plain)} untraced ops",
        "trace.uncovered_s": "harness time between ops (checks, digests, clean-up, "
                             "calibration), per op",
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}, notes
