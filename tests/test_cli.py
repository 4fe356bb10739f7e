"""End-to-end command tests: exit codes, file outputs, determinism."""

import inspect
import json
import os
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
    saddle_check,
    verify_replication,
    write_node_process,
)
from gamehedge.cli import main
from gamehedge.config import DEFAULT_TOLERANCES, build_bundle, load_config

BASE = {
    "lattice": {"s0": 100.0, "u": 1.2, "d": 0.8, "N": 1, "T": 1.0},
    "benchmark": {"r_lend": 0.0, "r_borrow": 0.0},
    "generator": {"type": "zero"},
    "contract": {"type": "israeli_put", "strike": 100.0, "penalty": 5.0},
    "party": {"side": "hedger", "endowment": 0.0},
}


def package_env():
    """The environment of a fresh Python process that imports this gamehedge package."""
    path = (str(Path(gamehedge.__file__).parents[1]), os.environ.get("PYTHONPATH", ""))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


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
    cfg = write_config(tmp_path, tolerances={"wobble": 1e-9})
    assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: ConfigError: unknown keys in 'tolerances': ['wobble']\n")


@pytest.mark.parametrize("extra_argv, blocks, err", [
    (["--side", "both"], {}, "gamehedge: error: unrecognized arguments: --side both\n"),
    (["--tol-override", "oracle=1e-9"], {},
     "gamehedge: error: unrecognized arguments: --tol-override oracle=1e-9\n"),
    ([], {"output": {"dir": "elsewhere"}},
     "config error: ConfigError: unknown config blocks: ['output']\n"),
])
def test_removed_run_settings_exit_2(tmp_path, capsys, extra_argv, blocks, err):
    # the side, the tolerances and the output directory each have one way in
    cfg = write_config(tmp_path, **blocks)
    out = tmp_path / "o"
    assert main(["price", "--config", str(cfg), "--out", str(out), *extra_argv]) == 2
    assert capsys.readouterr().err.endswith(err)
    assert not out.exists()


LATTICE = BASE["lattice"]
CUSTOM_FILES = {name: f"{name}.csv" for name in ("xh", "xc", "xbar", "da")}


@pytest.mark.parametrize("config, err", [
    ("{", "config {path} is not valid JSON: "
          "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[1]", "config root must be a JSON object"),
    ({"extra": {}}, "unknown config blocks: ['extra']"),
    ({"party": 1}, "config block 'party' must be an object"),
    ({"lattice": None}, "config block 'lattice' is required"),
    ({"lattice": {**LATTICE, "s0": None}}, "lattice.s0 is required"),
    ({"lattice": {**LATTICE, "s0": float("inf")}}, "lattice.s0 must be finite"),
    ({"lattice": {**LATTICE, "s0": "100"}}, "lattice.s0 must be a number, got '100'"),
    ({"lattice": {**LATTICE, "N": 1.5}}, "lattice.N must be an integer, got 1.5"),
    ({"lattice": {**LATTICE, "sigma": 0.2}}, "lattice: give either sigma or u/d, not both"),
    ({"lattice": {**LATTICE, "u": None, "d": None, "sigma": 0}},
     "lattice.sigma must be positive, got 0.0"),
    ({"contract": {"type": "custom", "files": {"xh": "xh.csv"}}},
     "contract.files must map exactly xh, xc, xbar, da to CSV paths"),
    ({"contract": {"type": "custom", "files": {**CUSTOM_FILES, "xh": 1}}},
     "contract.files.xh must be a path string"),
    ({"contract": {"type": "custom", "files": CUSTOM_FILES}},
     "contract.files.xh has 2 steps, lattice has 1"),
    ({"party": {"side": "sideways"}},
     "party.side must be one of ('hedger', 'counterparty', 'both'), got 'sideways'"),
    ({"tolerances": {"oracle": "small"}}, "tolerances.oracle must be a number, got 'small'"),
    ({"tolerances": {"oracle": True}}, "tolerances.oracle must be a number, got True"),
    ({"tolerances": {"replication": 0}}, "tolerances.replication must be positive, got 0.0"),
    ({"tolerances": {"obstacle_eq": -1e-9}},
     "tolerances.obstacle_eq must be positive, got -1e-09"),
])
def test_config_errors_exit_2(tmp_path, capsys, config, err):
    # config is the file's text, or BASE with whole blocks replaced (keys or blocks set to
    # None are left out); the custom contract files hold two steps against N=1
    custom_contract_files(tmp_path, 2, terminal_tie=0.5)
    if isinstance(config, dict):
        blocks = {**BASE, **config}
        config = json.dumps({block: {key: v for key, v in sub.items() if v is not None}
                             if isinstance(sub, dict) else sub
                             for block, sub in blocks.items() if sub is not None})
    path = tmp_path / "run.json"
    path.write_text(config)
    out = tmp_path / "o"
    assert main(["price", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: ConfigError: {err.format(path=path)}\n"
    assert not out.exists()


def test_default_tolerances_are_the_library_defaults():
    # a config without a tolerances block runs each check at the default its call declares
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert DEFAULT_TOLERANCES == {
        "obstacle_eq": default(acceptable_price, "region_tol"),
        "oracle": default(saddle_check, "tol"),
        "replication": default(verify_replication, "gap_tol"),
    }


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


def test_oracle_at_five_steps_runs_the_rule_dp_alone(tmp_path):
    # 2**15 rules per player: each dynamic program's root table holds 2**15 entries
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


def f64(x):
    """The repr numpy gives a float64 element, which the messages quote."""
    return repr(np.float64(x))


# the solver's message for the terminal tie 5 of custom_contract_files outside the band [-2, 2]
TERMINAL_OUT_OF_BAND = ("solver error: TerminalOutOfBand: terminal value at node (1, 0) is "
                        f"{f64(-5.0)}, outside [{f64(-2.0)}, {f64(2.0)}]\n")


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


@pytest.mark.parametrize("cell", ["nan", "1e309"])
def test_replicate_non_finite_hedge_exits_2(tmp_path, capsys, cell):
    # a non-finite hedge cell is a malformed input, as the same cell in a contract CSV is
    cfg = replicate_fixture(tmp_path)
    hedge = tmp_path / "z.csv"
    write_node_process(NodeProcess.zeros(2), hedge)
    hedge.write_text(hedge.read_text().replace("0,0,0\n", f"0,0,{cell}\n", 1))
    out = tmp_path / "o"
    assert main(["replicate", "--config", str(cfg), "--out", str(out),
                 "--hedge-csv", str(hedge)]) == 2
    assert capsys.readouterr().err == (
        "config error: NonFiniteInput: row 0 contains non-finite values\n")
    assert not out.exists()


HUGE_STEP_CSV = "step,up_count,value\r\n0,0,1.0\r\n1000000000,0,1.0\r\n"


@pytest.mark.parametrize("command", ["replicate", "price"])
def test_node_csv_naming_a_huge_step_exits_2(tmp_path, capsys, command):
    # two rows cannot cover a lattice of step 10^9, which is refused before anything is
    # sized by that step (a node count of that lattice would need exbibytes)
    huge = tmp_path / "huge.csv"
    huge.write_text(HUGE_STEP_CSV, newline="")
    if command == "replicate":
        cfg, extra = replicate_fixture(tmp_path), ["--hedge-csv", str(huge)]
    else:
        files = {**custom_contract_files(tmp_path, 1, terminal_tie=0.5), "xh": "huge.csv"}
        raw = json.loads(json.dumps(BASE))
        raw["contract"] = {"type": "custom", "files": files}
        cfg, extra = tmp_path / "c.json", []
        cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == (
        f"config error: ConfigError: {huge}: node coverage mismatch "
        "(missing [(1, 0), (1, 1), (2, 0)], unexpected [])\n")
    assert not out.exists()


@pytest.mark.parametrize("warning_flags", [[], ["-W", "error"]])
def test_replicate_overflowing_hedge_exits_3(tmp_path, warning_flags):
    # wealth rolled forward with a 1e307 hedge overflows at step 1: the typed error is the
    # one line on stderr, with no numpy warning before it and no traceback under -W error
    cfg = write_config(tmp_path)
    hedge = tmp_path / "z.csv"
    write_node_process(NodeProcess.constant(1, 1e307), hedge)
    argv = ["replicate", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--hedge-csv", str(hedge)]
    run = subprocess.run([sys.executable, *warning_flags, "-c",
                          "import sys; from gamehedge.cli import main; sys.exit(main(sys.argv[1:]))",
                          *argv], env=package_env(), capture_output=True, text=True)
    assert run.returncode == 3
    assert run.stderr == "solver error: NonFiniteState: wealth became non-finite advancing to step 1\n"


def test_replicate_reads_hedge_csv_once_for_both_sides(tmp_path, monkeypatch):
    import gamehedge.cli as cli

    cfg = write_config(tmp_path, lattice={"N": 2}, party={"side": "both"},
                       contract={"penalty": 30.0})
    write_node_process(NodeProcess.zeros(2), tmp_path / "z.csv")
    calls = []

    def counting_read(path):
        calls.append(path)
        return cli_read(path)

    cli_read = cli.read_node_process
    monkeypatch.setattr(cli, "read_node_process", counting_read)
    main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o"),
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
    assert capsys.readouterr().err == TERMINAL_OUT_OF_BAND
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("custom, axis, values, err", [
    # the second value fails its contract build, after the first value is priced
    (False, "contract.penalty", "5,0",
     "solver error: InvalidPenalty: penalty must be strictly positive, got 0.0\n"),
    # the first value's terminal tie leaves the band before the second value is built
    (True, "benchmark.r_lend", "0,-1", TERMINAL_OUT_OF_BAND),
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


def test_sweep_along_a_tolerance_exits_2(tmp_path, capsys):
    # no tolerance changes a price, so every row would repeat the first
    cfg = write_config(tmp_path, party={"side": "both"})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "tolerances.oracle", "--values", "1,2"]) == 2
    assert capsys.readouterr().err == (
        "config error: ConfigError: sweep axis 'tolerances.oracle' changes no price\n")
    assert not out.exists()


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


@pytest.mark.parametrize("value", [[1.0], (1.0,), np.float32(1.0), {"a": [1]}])
def test_json_writer_refuses_anything_but_dicts_of_scalars(value):
    import gamehedge.cli as cli

    with pytest.raises(TypeError, match="cannot serialize"):
        cli._json_text(value)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "price" in capsys.readouterr().out


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    import gamehedge.cli as cli

    assert cli._parser() is cli._parser()
    assert main(["replicate", "--config", "nope.json", "--hedge-csv", "z.csv"]) == 2
    capsys.readouterr()
    args = cli._parser().parse_args(["replicate", "--config", "c.json"])
    assert (args.hedge_csv, args.out) == (None, "out")  # nothing carried over from the last call
