"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gamehedge.cli  # noqa: E402
import harness  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import Sizes  # noqa: E402

TINY = Sizes(price_n=4, sweep_n=4, oracle_n=2, replicate_n=3)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_roots(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(harness, "TRACE_ROOT", tmp_path / "trace")


def tiny_run(workload, trace=False, main=None, seconds=0.2):
    return harness.run(workload, seed=7, seconds=seconds, trace=trace, sizes=TINY,
                       main=main, setup_probes=1)


def result_json(result, trace):
    names = tuple(harness.PER_LAYER_UNITS) if trace else harness.REPORTED_END_TO_END
    lines = bench_run.report(result, names)
    return lines, json.loads(lines[-1])


def test_spec_lists_exactly_the_printed_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.REPORTED_END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(harness.PER_LAYER_UNITS)
    units = {**harness.END_TO_END_UNITS, **harness.PER_LAYER_UNITS}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] == units[metric["name"]], metric
    assert [w["name"] for w in SPEC["workloads"]] == ["price", "sweep", "verify"]


@pytest.mark.parametrize("workload", ["price", "sweep", "verify"])
def test_every_metric_printed_with_its_unit(workload):
    result = tiny_run(workload)
    lines, payload = result_json(result, trace=False)
    assert payload["correct"] is True and payload["failed"] == 0
    assert payload["attempted"] == len(result.ops) >= 1
    for metric in SPEC["end_to_end"]:
        got = payload["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    for name, unit in harness.END_TO_END_UNITS.items():  # error_rate is in the table
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    assert sum(line.startswith("digest ") for line in lines) == len(result.digests) >= 1

    traced = tiny_run(workload, trace=True)
    _, payload = result_json(traced, trace=True)
    assert payload["correct"] is True
    assert set(payload["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert payload["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {name: m["value"] for name, m in payload["metrics"].items()}
    off = ("dynkin.", "replication.") if workload != "verify" else ()
    for name, value in values.items():
        if name.startswith(off):
            assert value == 0, name
    if workload == "verify":
        assert values["dynkin.pairs"] > 0 and values["replication.forward_wealth_calls"] > 0
    else:
        assert values["drbsde.nodes_solved"] > 0 and values["pricing.region_nodes"] > 0
    assert (harness.TRACE_ROOT / f"{workload}-seed7.csv").is_file()


def _faulty(fault, on_call=5):
    calls = {"n": 0}

    def main(argv):
        calls["n"] += 1
        code = gamehedge.cli.main(argv)
        if calls["n"] != on_call:
            return code
        if fault == "exit":
            return 3
        out = Path(argv[argv.index("--out") + 1])
        victim = sorted(p for p in out.rglob("*") if p.is_file())[0]
        data = bytearray(victim.read_bytes())
        data[-2] ^= 1
        victim.write_bytes(bytes(data))
        return code

    return main


@pytest.mark.parametrize("fault", ["exit", "byte"])
def test_injected_bad_output_raises_error_rate(fault):
    result = tiny_run("price", main=_faulty(fault), seconds=0.5)
    assert len(result.ops) >= 4  # call 5 is op 3: the second op on case 0
    _, payload = result_json(result, trace=False)
    assert payload["failed"] >= 1 and payload["correct"] is False
    error_rate = result.metrics["error_rate"][0]
    assert error_rate == payload["failed"] / payload["attempted"] > 0


def test_same_seed_same_inputs(tmp_path):
    def snapshot(seed, name):
        harness.make_inputs("verify", seed, tmp_path / name, TINY)
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    assert snapshot(3, "a") == snapshot(3, "b")
    assert snapshot(3, "a") != snapshot(4, "c")


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond = harness.tail_percentile([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)
    assert harness.tail_percentile([3.0, 1.0, 2.0])[::2] == (1.0, 2)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "price", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert done.returncode != 0
    assert "correct" not in done.stdout
