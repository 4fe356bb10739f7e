"""Seeded inputs, CLI calls and output checks of the benchmark workloads.

The program sees only what this module writes: JSON configs and, for
``verify``, node CSVs of custom contracts.  The same seed writes the same
bytes.  Each workload draws a few cases (configs) per run; the harness
cycles through them so every case is run several times and its artifact
digest can be compared op to op.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gamehedge.config import build_bundle, load_config, set_axis_value
from gamehedge.pricing import acceptable_price

SIDES = ("hedger", "counterparty")


@dataclass(frozen=True)
class Sizes:
    """Lattice sizes; the tests shrink them, a benchmark run uses the defaults.

    N=200 for ``price`` and ``sweep`` keeps about 50 ops in a 30 s run, so
    the tail percentile has ten samples beyond it.  ``verify`` keeps the
    oracle at N=4 (a 1024x1024 rule-pair matrix per side) and replication
    at N=10, where ``paths.csv`` is still written (only N <= 12 writes it).
    """

    price_n: int = 200
    sweep_n: int = 200
    oracle_n: int = 4
    replicate_n: int = 10


@dataclass(frozen=True)
class Case:
    """One seeded input set and the CLI calls that make one op on it.

    ``calls`` pairs an output subdirectory with the argv before ``--out``.
    """

    name: str
    calls: tuple[tuple[str, tuple[str, ...]], ...]
    configs: tuple[Path, ...]
    sweep_values: tuple[float, ...] = ()


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


# --- price and sweep: an Israeli put under two-rate funding -----------------

STRIKES = (90.0, 95.0, 100.0, 105.0, 110.0)
PENALTIES = (2.0, 5.0, 10.0)
R_LEND = 0.02
R_BORROW = 0.10
# r_borrow values for the sweep axis, all at least r_lend (Bergman 1995 spread curve)
SWEEP_GRID = tuple(round(0.02 + 0.01 * i, 2) for i in range(19))


def _put_config(rng, n: int) -> dict:
    return {
        "lattice": {"s0": 100.0, "sigma": 0.2, "N": n, "T": 1.0},
        "generator": {"type": "differential", "r_lend": R_LEND, "r_borrow": R_BORROW},
        "benchmark": {"r_lend": R_LEND, "r_borrow": R_BORROW},
        "contract": {
            "type": "israeli_put",
            "strike": float(rng.choice(STRIKES)),
            "penalty": float(rng.choice(PENALTIES)),
        },
        "party": {"side": "both", "endowment": 0.0},
    }


def price_cases(rng, inputs: Path, sizes: Sizes, count: int = 3) -> list[Case]:
    cases = []
    for i in range(count):
        cfg = _write_json(inputs / f"price{i}.json", _put_config(rng, sizes.price_n))
        cases.append(Case(f"price{i}", (("", ("price", "--config", str(cfg))),), (cfg,)))
    return cases


def sweep_cases(rng, inputs: Path, sizes: Sizes, count: int = 2) -> list[Case]:
    cases = []
    for i in range(count):
        cfg = _write_json(inputs / f"sweep{i}.json", _put_config(rng, sizes.sweep_n))
        values = tuple(float(v) for v in rng.choice(SWEEP_GRID, size=8, replace=False))
        argv = ("sweep", "--config", str(cfg), "--axis", "generator.r_borrow",
                "--values", ",".join(repr(v) for v in values), "--workers", "1")
        cases.append(Case(f"sweep{i}", (("", argv),), (cfg,), values))
    return cases


# --- verify: custom grid-valued game contracts with coupon flows ------------
# The draws copy the acceptance pool of the test suite (tests/conftest.py):
# payoffs on quarter grids with gaps of at least a half, so value gaps are
# macroscopic next to the 1e-9 region tolerance.

RATE_GRID = (0.0, 0.02, 0.05, 0.1)


def _grid_values(rng, shape, lo=-10.0, hi=10.0, step=0.25):
    ticks = int(round((hi - lo) / step))
    return lo + step * rng.integers(0, ticks + 1, size=shape)


def _random_lattice(rng, n: int) -> dict:
    horizon = float(rng.choice([0.25, 0.5, 1.0]))
    while True:
        u = float(rng.choice([1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35]))
        d = float(rng.choice([0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]))
        q = (1.0 - d) / (u - d)
        if 0.2 <= q <= 0.8 and u - d >= 0.2:
            s0 = float(rng.choice([80.0, 100.0, 120.0]))
            return {"s0": s0, "u": u, "d": d, "N": n, "T": horizon}


def _random_funding(rng, lattice: dict) -> tuple[dict, dict]:
    """Two-rate generator and matching account, redrawn until well inside the
    contraction and one-step monotonicity bounds.

    The acceptance pool also draws zero and single-rate generators; here the
    generator stays differential, because its type sets the cost of every
    ``eval_g`` over the oracle's pair matrix and the seed should not.
    """
    u, d = lattice["u"], lattice["d"]
    q = (1.0 - d) / (u - d)
    dt = lattice["T"] / lattice["N"]
    while True:
        lend, borrow = sorted(float(rng.choice(RATE_GRID)) for _ in range(2))
        if dt * borrow / (u - d) <= 0.9 * min(q, 1.0 - q):
            return ({"type": "differential", "r_lend": lend, "r_borrow": borrow},
                    {"r_lend": lend, "r_borrow": borrow})


def _random_contract(rng, n: int) -> dict[str, list[np.ndarray]]:
    rows: dict[str, list[np.ndarray]] = {"xh": [], "xc": [], "xbar": [], "da": []}
    for k in range(n + 1):
        xc = _grid_values(rng, k + 1)
        gap = 0.5 + 0.5 * rng.integers(0, 10, size=k + 1)
        frac = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=k + 1)
        xh = xc - gap
        rows["xc"].append(xc)
        rows["xh"].append(xh)
        rows["xbar"].append(xh + frac * gap)
        if k < n:
            rows["da"].append(_grid_values(rng, k + 1, lo=-1.0, hi=1.0, step=0.5))
        else:
            rows["da"].append(np.zeros(k + 1))
    return rows


def _write_node_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "up_count", "value"])
        for k, row in enumerate(rows):
            for j, value in enumerate(row):
                writer.writerow([k, j, _fmt(value)])


def _custom_config(rng, inputs: Path, stem: str, n: int) -> Path:
    lattice = _random_lattice(rng, n)
    gen, acct = _random_funding(rng, lattice)
    files = {}
    for name, rows in _random_contract(rng, n).items():
        _write_node_csv(inputs / f"{stem}_{name}.csv", rows)
        files[name] = f"{stem}_{name}.csv"
    endowments = [float(x) for x in rng.choice([-5.0, -2.5, 0.0, 2.5, 5.0], size=2)]
    cfg = {
        "lattice": lattice,
        "generator": gen,
        "benchmark": acct,
        "contract": {"type": "custom", "files": files},
        "party": {"side": "both", "endowment": endowments[0],
                  "other_endowment": endowments[1]},
    }
    return _write_json(inputs / f"{stem}.json", cfg)


def verify_cases(rng, inputs: Path, sizes: Sizes, count: int = 2) -> list[Case]:
    cases = []
    for i in range(count):
        oracle_cfg = _custom_config(rng, inputs, f"oracle{i}", sizes.oracle_n)
        rep_cfg = _custom_config(rng, inputs, f"replicate{i}", sizes.replicate_n)
        calls = (("oracle", ("oracle", "--config", str(oracle_cfg))),
                 ("replicate", ("replicate", "--config", str(rep_cfg))))
        cases.append(Case(f"verify{i}", calls, (oracle_cfg, rep_cfg)))
    return cases


# --- output checks -----------------------------------------------------------
# Each takes the case and the output directory of its first op and returns a
# list of problems; an empty list means the outputs are right.  Later ops on
# the case must reproduce the same bytes, which the harness checks by digest.


def _expected_prices(cfg: dict) -> dict[str, str]:
    bundle = build_bundle(cfg)
    tol = bundle.tolerances["obstacle_eq"]
    return {side: _fmt(acceptable_price(bundle.contract, bundle.views[side], bundle.gen,
                                        bundle.lat, region_tol=tol).price)
            for side in SIDES}


def check_price(case: Case, out: Path) -> list[str]:
    quote = json.loads((out / "quote.json").read_text())
    expected = _expected_prices(load_config(case.configs[0]))
    return [f"{side} price {_fmt(quote[side]['price'])} != in-process {expected[side]}"
            for side in SIDES if _fmt(quote[side]["price"]) != expected[side]]


def check_sweep(case: Case, out: Path) -> list[str]:
    rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
    if rows[0] != ["value", "price_hedger", "price_counterparty", "spread"]:
        return [f"sweep.csv header {rows[0]}"]
    if len(rows) - 1 != len(case.sweep_values):
        return [f"sweep.csv has {len(rows) - 1} rows, expected {len(case.sweep_values)}"]
    problems = []
    for row, value in zip(rows[1:], case.sweep_values):
        cfg = load_config(case.configs[0])
        set_axis_value(cfg, "generator.r_borrow", value)
        expected = _expected_prices(cfg)
        want = [expected["hedger"], expected["counterparty"]]
        if float(row[0]) != value or row[1:3] != want:
            problems.append(f"sweep row {row} != value {value!r}, prices {want}")
    return problems


def check_verify(case: Case, out: Path) -> list[str]:
    problems = []
    oracle = json.loads((out / "oracle" / "oracle.json").read_text())
    for side in SIDES:
        if oracle[side]["matches_upper"] is not True:
            problems.append(f"oracle {side}: matches_upper is {oracle[side]['matches_upper']}")
        rep = json.loads((out / "replicate" / side / "replicate.json").read_text())
        for flag in ("replicates", "be", "ao_at_plus", "sh_fails_at_minus"):
            if rep[flag] is not True:
                problems.append(f"replicate {side}: {flag} is {rep[flag]}")
        n = json.loads(case.configs[1].read_text())["lattice"]["N"]
        lines = (out / "replicate" / side / "paths.csv").read_bytes().count(b"\n")
        if lines != 1 + (1 << n) * (n + 1):
            problems.append(f"replicate {side}: paths.csv has {lines} lines")
    return problems


@dataclass(frozen=True)
class Workload:
    """Sided quotes per op, the case generator and the output check.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    quotes_per_op: int
    make_cases: Callable[[np.random.Generator, Path, Sizes], list[Case]]
    check: Callable[[Case, Path], list[str]]


WORKLOADS = {
    "price": Workload(2, price_cases, check_price),
    "sweep": Workload(16, sweep_cases, check_sweep),
    "verify": Workload(4, verify_cases, check_verify),
}
