"""Property tests: the bulk CSV writers match row-at-a-time csv.writer loops byte for byte."""

import copy
import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamehedge import (  # noqa: E402
    BenchmarkAccount,
    NodeProcess,
    PartyView,
    acceptable_price,
    cli,
    lattice,
    read_node_process,
    write_node_process,
)
from gamehedge.config import build_bundle, set_axis_value  # noqa: E402
from gamehedge.lattice import node_coords, tri, write_node_set  # noqa: E402
from gamehedge.pricing import SIDES, sweep_prices  # noqa: E402

from conftest import GAME_GENERATORS, game_lattice, random_contract  # noqa: E402
from test_golden_artifacts import PUT_SIGMA_NO_LEND  # noqa: E402
from test_paths_csv import random_hedge, reference_write as reference_paths_write  # noqa: E402


def reference_write(proc, path):
    """The row-at-a-time csv.writer loop the bulk writer must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "up_count", "value"])
        for k in range(proc.n_steps + 1):
            row = proc.row(k)
            for j in range(k + 1):
                writer.writerow([k, j, "%.17g" % row[j]])


EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))


@st.composite
def node_processes(draw):
    n = draw(st.integers(0, 40))
    values = draw(st.lists(FINITE, min_size=(n + 1) * (n + 2) // 2,
                           max_size=(n + 1) * (n + 2) // 2))
    return NodeProcess.from_rows([values[k * (k + 1) // 2:(k + 1) * (k + 2) // 2]
                                  for k in range(n + 1)])


# 0.0 and -0.0 are equal as floats but not in bits, and 5e-324 is the bit pattern next to 0.0:
# each repeats within a block and across a block edge, one lattice row per block (block=4) or two
SIGNED_ZEROS = NodeProcess(np.tile([0.0, -0.0, 5e-324], 4)[:10])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(proc=node_processes(), block=st.integers(1, 100))
@example(proc=SIGNED_ZEROS, block=4)
@example(proc=SIGNED_ZEROS, block=8)
def test_node_csv_matches_reference_and_round_trips(tmp_path, monkeypatch, proc, block):
    monkeypatch.setattr(lattice, "_CSV_BLOCK_ROWS", block)  # one lattice row or several per block
    write_node_process(proc, tmp_path / "fast.csv")
    reference_write(proc, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = read_node_process(tmp_path / "fast.csv")
    assert back.n_steps == proc.n_steps
    bits = [p.flat.view(np.int64) for p in (proc, back)]
    assert np.array_equal(*bits)


def reference_table(path, header, columns):
    """Row-at-a-time csv.writer with the artifact formats: %d, %.17g, else %s."""
    formats = {"i": "%d", "f": "%.17g"}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*(c.tolist() for c in columns)):
            writer.writerow([formats.get(c.dtype.kind, "%s") % v for c, v in zip(columns, row)])


@st.composite
def node_sets(draw):
    """An N in 0..40 and a strictly increasing array of its flat node indices."""
    n = draw(st.integers(0, 40))
    nodes = draw(st.sets(st.integers(0, tri(n + 1) - 1), max_size=tri(n + 1)))
    return n, np.array(sorted(nodes), dtype=np.int64)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=node_sets(), block=st.integers(1, 100))
@example(case=(5, np.zeros(0, np.int64)), block=3)  # empty region: the header alone
@example(case=(0, np.arange(1)), block=1)  # the root alone
@example(case=(7, np.arange(tri(8))), block=5)  # the whole lattice
@example(case=(40, np.arange(tri(40), tri(41))), block=100)  # the last row alone
def test_node_set_csv_matches_reference_across_blocks(tmp_path, monkeypatch, case, block):
    n, nodes = case
    monkeypatch.setattr(lattice, "_CSV_BLOCK_ROWS", block)  # blocks split a region's rows
    write_node_set(tmp_path / "fast.csv", nodes, n)
    ks, js = node_coords(n)
    reference_table(tmp_path / "ref.csv", ("step", "up_count"), (ks[nodes], js[nodes]))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_node_set_csv_memory_is_bounded_by_one_block(tmp_path):
    """A full-lattice region at N=1000 (501,501 rows, 4.4 MB of text) leaves a traced peak
    bounded by one block of rows (about 0.6 MB), not by the region."""
    n = 1000
    nodes = np.arange(tri(n + 1))
    tracemalloc.start()
    try:
        write_node_set(tmp_path / "all.csv", nodes, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "all.csv").stat().st_size > 4 << 20
    assert peak < 2 << 20


@st.composite
def replicated_quotes(draw):
    """A random game's quote at N 1..8 for either side and any conftest generator, with its
    solved hedge or (as ``replicate --hedge-csv``) a random overriding one."""
    n = draw(st.integers(1, 8))
    gen = GAME_GENERATORS[draw(st.sampled_from(sorted(GAME_GENERATORS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat = game_lattice(rng, n, gen)
    view = PartyView(side=draw(st.sampled_from(["hedger", "counterparty"])),
                     endowment=float(rng.choice([-2.5, 0.0, 2.5])),
                     acct=BenchmarkAccount(0.02, 0.05))
    quote = acceptable_price(random_contract(rng, lat), view, gen, lat)
    if draw(st.booleans()):
        quote = replace(quote, solution=replace(quote.solution, Z=random_hedge(rng, n)))
    return quote


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(quote=replicated_quotes())
def test_paths_csv_matches_reference(tmp_path, quote):
    n = quote.inputs.lat.n_steps
    cli._write_paths_csv(tmp_path / "fast.csv", quote, cli._paths_labels(n))
    reference_paths_write(quote, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("axis, values", [
    ("generator.r_borrow", [0.1, 0, 0.05, 0.125, 0, 1e-3, 0.1]),  # one pass, stacked rates
    # one bundle per value; an int past 17 digits is written whole, its float in %.17g
    ("contract.penalty", [5, 2.5, 123456789012345678, 5.0, 123456789012345678.0]),
])
def test_sweep_csv_matches_reference(tmp_path, axis, values):
    """``sweep.csv`` is the csv.writer table of each value's ``sweep_prices`` numbers, the
    value written as given: an int as itself, a float in %.17g."""
    (tmp_path / "run.json").write_text(json.dumps(PUT_SIGMA_NO_LEND))
    assert cli.main(["sweep", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path),
                     "--axis", axis, "--values", ",".join(map(str, values))]) == 0
    prices = []
    for value in values:
        cfg = copy.deepcopy(PUT_SIGMA_NO_LEND)
        set_axis_value(cfg, axis, value)
        b = build_bundle(cfg)
        prices.append(sweep_prices(b.contract, [b.views[s] for s in SIDES], [b.gen], b.lat))
    ph, pc = np.concatenate(prices, axis=1)
    labels = np.array([str(v) if isinstance(v, int) else "%.17g" % v for v in values])
    reference_table(tmp_path / "ref.csv", ("value", "price_hedger", "price_counterparty", "spread"),
                    (labels, ph, pc, ph - pc))
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
