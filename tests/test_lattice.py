"""Lattice, node processes, benchmark account, CSV round-trip."""

import tracemalloc

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    DegenerateLattice,
    Lattice,
    NodeProcess,
    NonFiniteInput,
    OutOfRange,
    TimeGrid,
    benchmark_profile,
    benchmark_wealth,
    build_lattice,
    read_node_process,
    write_node_process,
)
from gamehedge import lattice
from gamehedge.errors import ConfigError


def test_time_grid_dt_exact():
    grid = TimeGrid(horizon=1.0, n_steps=4)
    assert grid.dt == 0.25
    assert grid.n_steps * grid.dt == 1.0


def test_time_grid_rejects_bad_steps():
    with pytest.raises(OutOfRange):
        TimeGrid(horizon=1.0, n_steps=0)
    with pytest.raises(OutOfRange):
        TimeGrid(horizon=-1.0, n_steps=3)


def test_martingale_weight(one_step_lattice):
    assert one_step_lattice.q == 0.5
    # q*u + (1-q)*d = 1 is the defining identity
    lat = build_lattice(50.0, 1.3, 0.9, TimeGrid(horizon=0.5, n_steps=3))
    assert abs(lat.q * lat.u + (1.0 - lat.q) * lat.d - 1.0) <= 1e-14


def test_spot_values(one_step_lattice):
    assert one_step_lattice.spot.at(0, 0) == 100.0
    assert one_step_lattice.spot.at(1, 1) == pytest.approx(120.0)
    assert one_step_lattice.spot.at(1, 0) == pytest.approx(80.0)


def test_degenerate_lattice_rejected():
    grid = TimeGrid(horizon=1.0, n_steps=1)
    with pytest.raises(DegenerateLattice):
        build_lattice(100.0, 1.2, 1.05, grid)
    with pytest.raises(DegenerateLattice):
        build_lattice(100.0, 0.99, 0.8, grid)
    with pytest.raises(OutOfRange):
        build_lattice(-100.0, 1.2, 0.8, grid)


def test_node_process_shape_validation():
    with pytest.raises(OutOfRange):
        NodeProcess.from_rows([np.zeros(1), np.zeros(3)])
    with pytest.raises(NonFiniteInput):
        NodeProcess.from_rows([np.array([np.nan]), np.zeros(2)])


def test_node_process_accessors():
    proc = NodeProcess.from_rows([np.array([1.0]), np.array([2.0, 3.0])])
    assert proc.n_steps == 1
    assert proc.at(1, 1) == 3.0
    assert proc.row(1).tolist() == [2.0, 3.0]
    with pytest.raises(OutOfRange):
        proc.at(2, 0)


def test_node_process_constructors():
    c = NodeProcess.constant(2, 7.0)
    assert c.at(2, 1) == 7.0
    z = NodeProcess.zeros(3)
    assert z.row(3).tolist() == [0.0] * 4
    ks, js = lattice.node_coords(1)
    f = NodeProcess(10 * ks + js)
    assert f.at(1, 1) == 11.0


def test_benchmark_wealth_branches():
    acct = BenchmarkAccount(r_lend=0.02, r_borrow=0.1)
    assert benchmark_wealth(acct, 7.0, 5, 1.0) == pytest.approx(7.0 * 1.02**5)
    assert benchmark_wealth(acct, -1.0, 1, 1.0) == pytest.approx(-1.1)
    assert benchmark_wealth(acct, 0.0, 9, 1.0) == 0.0
    zero = BenchmarkAccount(0.0, 0.0)
    assert benchmark_wealth(zero, 7.0, 5, 0.25) == 7.0


def test_benchmark_account_rate_order():
    with pytest.raises(OutOfRange):
        BenchmarkAccount(r_lend=0.1, r_borrow=0.02)
    with pytest.raises(OutOfRange):
        BenchmarkAccount(r_lend=-0.01, r_borrow=0.02)


def test_benchmark_profile_matches_pointwise():
    acct = BenchmarkAccount(0.02, 0.1)
    grid = TimeGrid(horizon=1.0, n_steps=4)
    prof = benchmark_profile(acct, -3.0, grid)
    assert prof.shape == (5,)
    for k in range(5):
        assert prof[k] == benchmark_wealth(acct, -3.0, k, grid.dt)


def test_benchmark_scaling(rng):
    acct = BenchmarkAccount(0.02, 0.1)
    for _ in range(20):
        x = float(rng.uniform(-10, 10))
        lam = float(rng.uniform(0.1, 3.0))
        a = benchmark_wealth(acct, lam * x, 4, 0.25)
        b = lam * benchmark_wealth(acct, x, 4, 0.25)
        assert a == pytest.approx(b, rel=1e-14)


def test_spot_is_martingale(rng):
    from conftest import random_lattice

    for _ in range(10):
        lat = random_lattice(rng, 6)
        for k in range(lat.n_steps):
            nxt = lat.spot.row(k + 1)
            e = lat.q * nxt[1:] + (1.0 - lat.q) * nxt[:-1]
            assert np.all(np.abs(e - lat.spot.row(k)) <= 1e-12 * (1 + np.abs(e)))


def test_csv_round_trip_bit_exact(tmp_path, rng):
    rows = [rng.standard_normal(k + 1) * 10.0 ** rng.integers(-8, 9) for k in range(5)]
    rows[2][0] = -0.0  # signed zero must survive
    proc = NodeProcess.from_rows(rows)
    path = tmp_path / "proc.csv"
    write_node_process(proc, path)
    back = read_node_process(path)
    for k in range(5):
        a, b = proc.row(k), back.row(k)
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_csv_reader_places_rows_in_any_order(tmp_path, rng):
    proc = NodeProcess.from_rows([rng.standard_normal(k + 1) for k in range(6)])
    write_node_process(proc, tmp_path / "sorted.csv")
    header, *rows = (tmp_path / "sorted.csv").read_text().splitlines()
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    (tmp_path / "shuffled.csv").write_text("\n".join([header, *shuffled, ""]))
    back = read_node_process(tmp_path / "shuffled.csv")
    assert back.flat.tobytes() == proc.flat.tobytes()


def test_csv_writers_agree_and_blocks_join_seamlessly(tmp_path, rng, monkeypatch):
    proc = NodeProcess.from_rows([rng.standard_normal(k + 1) for k in range(7)])
    write_node_process(proc, tmp_path / "node.csv")
    steps = np.repeat(np.arange(7), np.arange(1, 8))
    up_counts = np.concatenate([np.arange(k + 1) for k in range(7)])
    columns = (steps, up_counts, proc.flat)
    lattice.write_csv(tmp_path / "whole.csv", ("step", "up_count", "value"), columns)
    monkeypatch.setattr(lattice, "_CSV_BLOCK_ROWS", 5)  # 28 rows: five full blocks and a partial
    lattice.write_csv(tmp_path / "blocks.csv", ("step", "up_count", "value"), columns)
    node = (tmp_path / "node.csv").read_bytes()
    assert node.count(b"\r\n") == 29
    assert (tmp_path / "whole.csv").read_bytes() == node == (tmp_path / "blocks.csv").read_bytes()


def test_csv_writer_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match="differ in length"):
        lattice.write_csv(path, ("a", "b"), (np.arange(3), np.zeros(2)))
    assert not path.exists()  # refused before the file is opened


def test_csv_writer_rejects_a_cell_with_a_line_break(tmp_path):
    # the dialect has no quoting, so such a cell would split its row
    with pytest.raises(ValueError, match="line break"):
        lattice.write_csv(tmp_path / "nl.csv", ("s",), (np.array(["a", "b\nc"]),))


def test_csv_reader_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n0,0,1\n")
    with pytest.raises(ConfigError):
        read_node_process(bad_header)
    gap = tmp_path / "gap.csv"
    gap.write_text("step,up_count,value\n0,0,1\n1,0,2\n")  # missing (1,1)
    with pytest.raises(ConfigError):
        read_node_process(gap)
    dup = tmp_path / "dup.csv"
    dup.write_text("step,up_count,value\n0,0,1\n0,0,2\n")
    with pytest.raises(ConfigError):
        read_node_process(dup)


@pytest.mark.parametrize("rows", [["0,0,1", "2000,0,1"], ["2000,0,1", "2000,0,1"],
                                  ["2000,7,1", "1,1,1", "3,0,1"]])
def test_csv_reader_sizes_nothing_by_a_step_its_rows_cannot_cover(tmp_path, rows):
    # a 2000-step lattice has 2,003,001 nodes: an array of them takes 16 MB, the file ~50 B
    path = tmp_path / "far.csv"
    path.write_text("\n".join(["step,up_count,value", *rows]) + "\n")
    with pytest.raises(ConfigError):  # once untraced, so that lazy imports are not counted
        read_node_process(path)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            read_node_process(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
