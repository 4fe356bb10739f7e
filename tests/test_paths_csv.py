"""``paths.csv``: the path-prefix property its writer relies on, its bytes against a
row-at-a-time reference, and the step count above which ``replicate`` writes none."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gamehedge import (
    NodeProcess,
    acceptable_price,
    forward_wealth,
    path_moves,
    solution_path,
    write_node_process,
)
from gamehedge import cli
from gamehedge.config import build_bundle, load_config

from test_golden_artifacts import CUSTOM_N10, custom_contract_rows

README_PUT = {
    "lattice": {"s0": 100.0, "u": 1.2, "d": 0.8, "N": 1, "T": 1.0},
    "benchmark": {"r_lend": 0.0, "r_borrow": 0.0},
    "generator": {"type": "zero"},
    "contract": {"type": "israeli_put", "strike": 100.0, "penalty": 5.0},
    "party": {"side": "both", "endowment": 0.0},
}
TWO_RATES = {"generator": {"type": "differential", "r_lend": 0.02, "r_borrow": 0.1},
             "benchmark": {"r_lend": 0.02, "r_borrow": 0.1}}


def with_steps(cfg, n, **blocks):
    return {**cfg, "lattice": {**cfg["lattice"], "N": n}, **blocks}


def write_config(tmp_path, cfg):
    """The config as a file beside CUSTOM_N10's contract CSVs, which only a custom contract reads."""
    for name, flat in custom_contract_rows(CUSTOM_N10["lattice"]["N"]).items():
        write_node_process(NodeProcess(flat), tmp_path / f"{name}.csv")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def random_hedge(rng, n):
    return NodeProcess.from_rows([rng.normal(0.0, 0.5, size=k + 1) for k in range(n + 1)])


def path_matrices(quote):
    """Wealth, Y, L_cum and U_cum of every path at every step, (2^N, N + 1) each."""
    inputs = quote.inputs
    n = inputs.lat.n_steps
    moves = path_moves(np.arange(1 << n), n)
    wealth = forward_wealth(quote.y0, quote.solution.Z, inputs.gen, inputs.cashflow_increments,
                            inputs.lat, moves)
    return (wealth, *solution_path(quote, moves))


def config_quotes(tmp_path, cfg, hedge_seed=None):
    bundle = build_bundle(load_config(write_config(tmp_path, cfg)))
    for side in bundle.sides:
        quote = acceptable_price(bundle.contract, bundle.views[side], bundle.gen, bundle.lat)
        if hedge_seed is not None:  # as replicate --hedge-csv does
            hedge = random_hedge(np.random.default_rng(hedge_seed), bundle.lat.n_steps)
            quote = replace(quote, solution=replace(quote.solution, Z=hedge))
        yield quote


PREFIX_CASES = {
    "custom_n10": (CUSTOM_N10, None),
    "put_n1": (with_steps(README_PUT, 1, **TWO_RATES), None),
    "put_n12": (with_steps(README_PUT, 12, **TWO_RATES), None),
    "put_n8_zero": (with_steps(README_PUT, 8), None),
    "custom_n10_random_hedge": (CUSTOM_N10, 7),
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_path_rows_depend_only_on_their_prefix(tmp_path, case):
    """Row p at step k carries path p mod 2^k's values bit for bit: the first k moves decide it."""
    cfg, hedge_seed = PREFIX_CASES[case]
    for quote in config_quotes(tmp_path, cfg, hedge_seed):
        n = quote.inputs.lat.n_steps
        pids = np.arange(1 << n)
        for a in path_matrices(quote):
            bits = a.view(np.uint64)
            for k in range(n + 1):
                assert np.array_equal(bits[:, k], bits[pids % (1 << k), k]), (case, k)


def reference_write(quote, path):
    """The row-at-a-time csv.writer loop the prefix writer must match byte for byte."""
    n = quote.inputs.lat.n_steps
    cols = path_matrices(quote)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "step", "V", "Y", "L_cum", "U_cum"])
        for p in range(1 << n):
            for k in range(n + 1):
                writer.writerow([p, k] + ["%.17g" % a[p, k] for a in cols])


@pytest.mark.parametrize("hedge_seed", [None, 3])
def test_paths_csv_matches_reference_at_the_size_cut_off(tmp_path, hedge_seed):
    """The largest file replicate writes; test_csv_property draws games up to N=8."""
    n = cli.PATHS_CSV_MAX_STEPS
    for gen in ({}, TWO_RATES):
        for quote in config_quotes(tmp_path, with_steps(README_PUT, n, **gen), hedge_seed):
            cli._write_paths_csv(tmp_path / "fast.csv", quote, cli._paths_labels(n))
            reference_write(quote, tmp_path / "ref.csv")
            assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_readme_put_at_the_size_cut_off_writes_every_path(tmp_path):
    n = cli.PATHS_CSV_MAX_STEPS
    out = tmp_path / "out"
    cfg = write_config(tmp_path, with_steps(README_PUT, n))
    assert cli.main(["replicate", "--config", str(cfg), "--out", str(out)]) == 0
    for side in ("hedger", "counterparty"):
        assert (out / side / "paths.csv").read_bytes().count(b"\r\n") == 1 + (1 << n) * (n + 1)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"at most {n} steps (N <= {n},\n  `cli.PATHS_CSV_MAX_STEPS`)" in readme


def test_readme_put_above_the_size_cut_off_writes_no_paths_csv(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, with_steps(README_PUT, cli.PATHS_CSV_MAX_STEPS + 1))
    assert cli.main(["replicate", "--config", str(cfg), "--out", str(out)]) == 0
    for side in ("hedger", "counterparty"):
        assert json.loads((out / side / "replicate.json").read_text())["replicates"] is True
        assert not (out / side / "paths.csv").exists()
