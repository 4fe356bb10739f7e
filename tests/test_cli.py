"""End-to-end command tests: exit codes, file outputs, determinism."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gamehedge
from gamehedge import (
    NodeProcess,
    acceptable_price,
    forward_wealth,
    path_moves,
    write_node_process,
)
from gamehedge.cli import main
from gamehedge.config import build_bundle, load_config

BASE = {
    "lattice": {"s0": 100.0, "u": 1.2, "d": 0.8, "N": 1, "T": 1.0},
    "benchmark": {"r_lend": 0.0, "r_borrow": 0.0},
    "generator": {"type": "zero"},
    "contract": {"type": "israeli_put", "strike": 100.0, "penalty": 5.0},
    "party": {"side": "hedger", "endowment": 0.0},
}


def write_config(tmp_path, name="run.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for block, sub in overrides.items():
        cfg.setdefault(block, {}).update(sub)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_price_single_side(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
    quote = json.loads((out / "quote.json").read_text())
    assert quote["side"] == "hedger"
    assert quote["price"] == 5.0
    assert quote["y0"] == 5.0
    sol = json.loads((out / "solution.json").read_text())
    assert sol["residual_max"] <= 1e-12
    for name in ("Y", "Z", "dL", "dU"):
        assert (out / f"{name}.csv").exists()


def test_price_both_sides_with_spread(tmp_path):
    cfg = write_config(tmp_path, party={"side": "both"})
    out = tmp_path / "out"
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
    quote = json.loads((out / "quote.json").read_text())
    assert quote["side"] == "both"
    assert quote["spread"] == 0.0
    assert quote["hedger"]["price"] == 5.0
    assert quote["counterparty"]["price"] == 5.0
    assert (out / "hedger" / "Y.csv").exists()
    assert (out / "counterparty" / "region_sigma.csv").exists()


def test_price_side_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["price", "--config", str(cfg), "--out", str(out),
                 "--side", "counterparty"])
    assert code == 0
    quote = json.loads((out / "quote.json").read_text())
    assert quote["side"] == "counterparty"
    assert quote["y0"] == -5.0


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, party={"side": "both"})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["price", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["price", "--config", str(cfg), "--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_degenerate_lattice_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, lattice={"d": 1.05})
    assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "DegenerateLattice" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    data = json.loads(json.dumps(BASE))
    data["lattice"]["volatility"] = 0.2
    cfg.write_text(json.dumps(data))
    assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("block, extra, err", [
    ("generator", {"rate": 0.5}, "unknown keys in 'generator' of type 'zero': ['rate']"),
    ("contract", {"coupon": 1.0, "face": 100.0},
     "unknown keys in 'contract' of type 'israeli_put': ['coupon', 'face']"),
])
def test_keys_another_type_reads_exit_2(tmp_path, capsys, block, extra, err):
    # a key the block's type does not read is rejected, not silently ignored
    cfg = write_config(tmp_path, **{block: extra})
    out = tmp_path / "o"
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: ConfigError: {err}\n"
    assert not (out / "quote.json").exists()


def test_unknown_tolerance_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["price", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--tol-override", "wobble=1e-9"])
    assert code == 2
    assert "wobble" in capsys.readouterr().err


def test_oracle_instance_a(tmp_path, capsys):
    cfg = write_config(tmp_path, party={"side": "both"})
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "oracle.json").read_text())
    for side in ("hedger", "counterparty"):
        assert report[side]["matches_upper"] is True
        assert report[side]["n_rules"] == 2
    assert report["hedger"]["upper"] == 5.0
    # timing lives on stdout only, never in the report file
    assert "runtime_ms" not in report
    assert "runtime_ms" in capsys.readouterr().out


def test_oracle_too_large_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, lattice={"N": 20})
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "TooLarge" in capsys.readouterr().err


def test_oracle_at_five_steps_runs_the_rule_dp_alone(tmp_path, monkeypatch):
    # 2**15 rules per player: 2**30 pairs is past the pair route's cap
    import gamehedge.dynkin as dynkin

    def no_pairs(*_args, **_kwargs):
        raise AssertionError("pair matrix built at N=5")

    monkeypatch.setattr(dynkin, "_pair_matrix", no_pairs)
    cfg = write_config(tmp_path, lattice={"N": 5}, party={"side": "both"})
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "oracle.json").read_text())
    for side in ("hedger", "counterparty"):
        assert report[side]["matches_upper"] is True
        assert report[side]["n_rules"] == 2**15


def test_oracle_has_no_pair_limit_flag(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--pair-limit", "1"]) == 2


def test_replicate_past_the_path_cap_exits_4(tmp_path, capsys):
    # 2**25 paths is past the 2**24 enumeration cap
    cfg = write_config(tmp_path, lattice={"N": 25})
    assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "size cap: TooLarge" in capsys.readouterr().err


def custom_contract_files(tmp_path, n, terminal_tie):
    """Flat band contract written as CSVs; the tie row at T is adjustable."""
    xh = NodeProcess.constant(n, -2.0)
    xc = NodeProcess.constant(n, 2.0)
    rows = [np.zeros(k + 1) for k in range(n)]
    rows.append(np.full(n + 1, terminal_tie))
    xbar = NodeProcess.from_rows(rows)
    da = NodeProcess.zeros(n)
    names = {}
    for name, proc in (("xh", xh), ("xc", xc), ("xbar", xbar), ("da", da)):
        write_node_process(proc, tmp_path / f"{name}.csv")
        names[name] = f"{name}.csv"
    return names


def test_corrupted_terminal_exits_3(tmp_path, capsys):
    # the tie payoff leaves the band only on the terminal row, which the
    # contract file check cannot reject; the solver must catch it instead
    files = custom_contract_files(tmp_path, 1, terminal_tie=5.0)
    cfg = write_config(tmp_path, contract={"type": "custom", "files": files,
                                           "strike": None, "penalty": None})
    raw = json.loads(cfg.read_text())
    raw["contract"] = {"type": "custom", "files": files}
    cfg.write_text(json.dumps(raw))
    assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "TerminalOutOfBand" in capsys.readouterr().err


def test_custom_contract_in_band_prices(tmp_path):
    files = custom_contract_files(tmp_path, 1, terminal_tie=0.5)
    raw = json.loads(json.dumps(BASE))
    raw["contract"] = {"type": "custom", "files": files}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
    quote = json.loads((out / "quote.json").read_text())
    assert quote["price"] == pytest.approx(-0.5)  # hedger receives the tie flow


def replicate_fixture(tmp_path):
    return write_config(
        tmp_path,
        lattice={"N": 2},
        contract={"type": "israeli_put", "strike": 100.0, "penalty": 30.0},
    )


def test_replicate_ok_and_paths_csv(tmp_path):
    cfg = replicate_fixture(tmp_path)
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "replicate.json").read_text())
    assert report["replicates"] is True
    assert report["be"] is True
    assert report["ao_at_plus"] is True and report["sh_fails_at_minus"] is True
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,step,V,Y,L_cum,U_cum"
    assert len(lines) == 1 + 4 * 3  # 4 paths, 3 steps each


def test_replicate_corrupted_hedge_exits_5(tmp_path, capsys):
    cfg = replicate_fixture(tmp_path)
    bad = NodeProcess.from_rows(
        [np.array([9.0]), np.zeros(2), np.zeros(3)]
    )
    write_node_process(bad, tmp_path / "badz.csv")
    code = main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--hedge-csv", str(tmp_path / "badz.csv")])
    assert code == 5
    err = capsys.readouterr().err
    assert "replication failed" in err
    assert "path" in err
    # paths.csv rolls wealth forward with the overriding hedge, not the solved one
    bundle = build_bundle(load_config(cfg))
    quote = acceptable_price(bundle.contract, bundle.views["hedger"], bundle.gen, bundle.lat)
    rows = [line.split(",") for line in (tmp_path / "o" / "paths.csv").read_text().splitlines()]
    solved_differs = False
    for pid in range(4):
        moves = path_moves(pid, 2)
        v_csv = [float(r[2]) for r in rows[1:] if int(r[0]) == pid]
        args = (bundle.gen, quote.inputs.cashflow_increments, bundle.lat, moves)
        assert v_csv == list(forward_wealth(quote.y0, bad, *args))
        solved = forward_wealth(quote.y0, quote.solution.Z, *args)
        solved_differs |= v_csv != list(solved)
    assert solved_differs


def test_replicate_hedge_shape_mismatch_exits_2(tmp_path):
    cfg = replicate_fixture(tmp_path)
    write_node_process(NodeProcess.zeros(1), tmp_path / "short.csv")
    code = main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--hedge-csv", str(tmp_path / "short.csv")])
    assert code == 2


def test_replicate_reads_hedge_csv_once_for_both_sides(tmp_path, monkeypatch):
    import gamehedge.cli as cli

    cfg = replicate_fixture(tmp_path)
    write_node_process(NodeProcess.zeros(2), tmp_path / "z.csv")
    calls = []

    def counting_read(path):
        calls.append(path)
        return cli_read(path)

    cli_read = cli.read_node_process
    monkeypatch.setattr(cli, "read_node_process", counting_read)
    main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--side", "both",
          "--hedge-csv", str(tmp_path / "z.csv")])
    assert calls == [str(tmp_path / "z.csv")]
    assert (tmp_path / "o" / "counterparty" / "replicate.json").exists()


def test_regions_instance_a(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["regions", "--config", str(cfg), "--out", str(out)]) == 0
    sigma = (out / "region_sigma.csv").read_text().splitlines()
    assert sigma[0] == "step,up_count"
    assert "0,0" in sigma[1:]  # the root is in the cancel region


def test_sweep_penalty_monotone(tmp_path):
    cfg = write_config(tmp_path, party={"side": "both"})
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "contract.penalty", "--values", "0.5,1,2,5,30"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,price_hedger,price_counterparty,spread"
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == [0.5, 1.0, 2.0, 5.0, 30.0]  # input order preserved
    hedger = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(hedger, hedger[1:]))


def test_sweep_workers_deterministic(tmp_path):
    cfg = write_config(tmp_path, party={"side": "both"})
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    args = ["sweep", "--config", str(cfg), "--axis", "contract.penalty",
            "--values", "1,2,3,4,5,6,7,8"]
    assert main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(args + ["--out", str(out4), "--workers", "4"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out4 / "sweep.csv").read_bytes()


def test_sweep_equal_rates_zero_spread(tmp_path):
    cfg = write_config(
        tmp_path,
        party={"side": "both"},
        generator={"type": "differential", "r_lend": 0.02, "r_borrow": 0.02},
        benchmark={"r_lend": 0.02, "r_borrow": 0.02},
    )
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "generator.r_borrow", "--values", "0.02"])
    assert code == 0
    spread = float((out / "sweep.csv").read_text().splitlines()[1].split(",")[3])
    assert abs(spread) <= 1e-12


@pytest.mark.parametrize("values, err", [
    # the first value that fails its contraction check names the error, not the largest
    ("0.05,3.0,5.0", "solver error: ContractionViolated: dt=0.5 with Lipschitz bounds "
                     "(y=3, z=3) is not a contraction; refine the grid\n"),
    ("0.05,0.01,0.1", "solver error: OutOfRange: need 0 <= r_lend <= r_borrow, "
                      "got r_lend=0.02, r_borrow=0.01\n"),
])
def test_sweep_rate_errors_name_the_first_failing_value(tmp_path, capsys, values, err):
    cfg = write_config(tmp_path, lattice={"N": 2}, party={"side": "both"},
                       generator={"type": "differential", "r_lend": 0.02, "r_borrow": 0.05})
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "generator.r_borrow", "--values", values])
    assert code == 3
    assert capsys.readouterr().err == err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("values", ["0.05,0.01", "0.05,3.0"])
def test_sweep_first_value_entry_error_comes_before_later_values(tmp_path, capsys, values):
    # the first value's terminal tie leaves the band; a later value's config or
    # contraction error must not mask it, as a solo price would report it first
    files = custom_contract_files(tmp_path, 1, terminal_tie=5.0)
    raw = json.loads(json.dumps(BASE))
    raw["contract"] = {"type": "custom", "files": files}
    raw["generator"] = {"type": "differential", "r_lend": 0.02, "r_borrow": 0.05}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "generator.r_borrow", "--values", values])
    assert code == 3
    assert capsys.readouterr().err == (
        "solver error: TerminalOutOfBand: terminal value at node (1, 0) is np.float64(-5.0), "
        "outside [np.float64(-2.0), np.float64(2.0)]\n")
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("custom, axis, values, err", [
    # the second value fails its contract build, after the first value is priced
    (False, "contract.penalty", "5,0",
     "solver error: InvalidPenalty: penalty must be strictly positive, got 0.0\n"),
    # the first value's terminal tie leaves the band before the second value is built
    (True, "benchmark.r_lend", "0,-1",
     "solver error: TerminalOutOfBand: terminal value at node (1, 0) is np.float64(-5.0), "
     "outside [np.float64(-2.0), np.float64(2.0)]\n"),
])
def test_sweep_errors_off_the_generator_axis_keep_value_order(tmp_path, capsys, custom, axis,
                                                              values, err):
    raw = json.loads(json.dumps(BASE))
    raw["party"] = {"side": "both"}
    if custom:
        raw["contract"] = {"type": "custom",
                           "files": custom_contract_files(tmp_path, 1, terminal_tie=5.0)}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", axis, "--values", values])
    assert code == 3
    assert capsys.readouterr().err == err
    assert not (out / "sweep.csv").exists()


def test_sweep_prices_only_the_swept_values(tmp_path, capsys):
    # the config's own r_borrow lies below its r_lend, but it is never priced
    cfg = write_config(tmp_path, lattice={"N": 4}, party={"side": "both"},
                       generator={"type": "differential", "r_lend": 0.05, "r_borrow": 0.02})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "generator.r_borrow", "--values", "0.1,0.2"]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.10000000000000001", "0.20000000000000001"]
    for value, row in zip((0.1, 0.2), rows):
        raw = load_config(str(cfg))
        raw["generator"]["r_borrow"] = value
        bundle = build_bundle(raw)
        want = [acceptable_price(bundle.contract, bundle.views[side], bundle.gen,
                                 bundle.lat).price for side in ("hedger", "counterparty")]
        assert [float(p).hex() for p in row[1:3]] == [p.hex() for p in want]


@pytest.mark.parametrize("config_borrow, values, code, err", [
    # the config is valid and the first value is not: the sweep names the value
    (0.1, "0.01,0.2", 3, "solver error: OutOfRange: need 0 <= r_lend <= r_borrow, "
                         "got r_lend=0.05, r_borrow=0.01\n"),
    # neither is valid: the config's own error comes first, as a config error
    (0.02, "0.01,0.2", 2, "config error: OutOfRange: need 0 <= r_lend <= r_borrow, "
                          "got r_lend=0.05, r_borrow=0.02\n"),
    (0.02, "0.1,x", 2, "config error: OutOfRange: need 0 <= r_lend <= r_borrow, "
                       "got r_lend=0.05, r_borrow=0.02\n"),
    (0.1, "0.1,x", 2, "config error: ConfigError: sweep value 'x' is not a number\n"),
])
def test_sweep_with_a_failing_first_value_keeps_its_errors(tmp_path, capsys, config_borrow,
                                                           values, code, err):
    cfg = write_config(tmp_path, lattice={"N": 4}, party={"side": "both"},
                       generator={"type": "differential", "r_lend": 0.05,
                                  "r_borrow": config_borrow})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "generator.r_borrow", "--values", values]) == code
    assert capsys.readouterr().err == err
    assert not (out / "sweep.csv").exists()


def test_sweep_unknown_axis_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--axis", "contract.flavor", "--values", "1,2"])
    assert code == 2
    assert "axis" in capsys.readouterr().err


@pytest.mark.parametrize("generator, axis, err", [
    ({"type": "differential", "r_lend": 0.02, "r_borrow": 0.05}, "generator.rate",
     "unknown keys in 'generator' of type 'differential': ['rate']"),
    ({"type": "zero"}, "contract.coupon",
     "unknown keys in 'contract' of type 'israeli_put': ['coupon']"),
])
def test_sweep_along_a_key_the_type_does_not_read_exits_2(tmp_path, capsys, generator, axis,
                                                          err):
    # each value would price the unchanged config, so the sweep writes nothing
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**BASE, "generator": generator, "party": {"side": "both"}}))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", axis, "--values", "0.01,0.2,0.5"]) == 2
    assert capsys.readouterr().err == f"config error: ConfigError: {err}\n"
    assert not (out / "sweep.csv").exists()


def test_missing_config_exits_2(tmp_path):
    assert main(["price", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "price" in capsys.readouterr().out


@pytest.mark.parametrize("failure", [OSError("no C library"), None])
def test_cli_runs_where_mallopt_is_missing(tmp_path, monkeypatch, failure):
    import gamehedge.cli as cli

    # a C library that cannot be loaded, or one without mallopt, leaves the
    # allocator alone and the command works as before
    def cdll(name):
        if failure is not None:
            raise failure
        return object()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cfg = write_config(tmp_path)
    assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


# two warm-up quotes, then the page faults of a third, printed last
REPEATED_QUOTES = """
import resource, sys
from gamehedge.cli import main
for _ in range(2):
    assert main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc tuning")
def test_repeated_quotes_reuse_freed_heap(tmp_path):
    # N=200 node arrays (162 KB) lie above glibc's initial mmap threshold, so
    # without the CLI's allocator setting each quote faulted them in again.
    # A fresh process keeps heap left over by earlier tests out of the count
    cfg = write_config(tmp_path, lattice={"N": 200, "u": 1.02, "d": 0.98})
    argv = ["price", "--config", str(cfg), "--out", str(tmp_path / "o")]
    path = (str(Path(gamehedge.__file__).parents[1]), os.environ.get("PYTHONPATH", ""))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", REPEATED_QUOTES, *argv], env=env,
                         capture_output=True, text=True, check=True)
    assert int(run.stdout.split()[-1]) < 100
