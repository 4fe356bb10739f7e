"""Property tests: the bulk CSV writers match row-at-a-time csv.writer loops byte for byte."""

import csv
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
from gamehedge.lattice import write_csv  # noqa: E402

from conftest import GAME_GENERATORS, game_lattice, random_contract  # noqa: E402
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


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(proc=node_processes(), block=st.integers(1, 100))
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


INT64 = st.integers(-2**63, 2**63 - 1)
# cells csv.writer would quote, and NUL, which a numpy str array drops, are outside the dialect
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\0'),
                    min_size=1, max_size=4)


@st.composite
def tables(draw):
    """Equal-length int64, float64 and str columns whose values repeat, in any column order."""
    n = draw(st.integers(0, 30))

    def column(values, dtype):  # a few distinct values, so most rows repeat one
        pool = draw(st.lists(values, min_size=1, max_size=4))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=dtype)

    floats = st.one_of(FINITE, st.sampled_from((0.0, -0.0)))
    columns = ([column(INT64, np.int64) for _ in range(draw(st.integers(0, 3)))]
               + [column(floats, np.float64) for _ in range(draw(st.integers(0, 3)))]
               + [column(CELL_TEXT, str)])
    columns = draw(st.permutations(columns))
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), block=st.integers(1, 7))
@example(table=(["z", "s"], [np.array([0.0, -0.0, 5e-324, -0.0, 1.7976931348623157e308, 0.0]),
                             np.array(["a", "b", "a", "b", "a", "b"])]), block=4)
@example(table=(["i", "f", "s"], [np.zeros(0, np.int64), np.zeros(0), np.array([], str)]),
         block=1)
def test_write_csv_matches_reference_across_blocks(tmp_path, monkeypatch, table, block):
    header, columns = table
    monkeypatch.setattr(lattice, "_CSV_BLOCK_ROWS", block)  # repeats straddle block edges
    write_csv(tmp_path / "fast.csv", header, columns)
    reference_table(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
