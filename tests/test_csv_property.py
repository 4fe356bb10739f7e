"""Property test: the bulk node-CSV writer matches the row-at-a-time csv.writer loop."""

import csv

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamehedge import NodeProcess, read_node_process, write_node_process  # noqa: E402


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
@given(proc=node_processes())
def test_node_csv_matches_reference_and_round_trips(tmp_path, proc):
    write_node_process(proc, tmp_path / "fast.csv")
    reference_write(proc, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = read_node_process(tmp_path / "fast.csv")
    assert back.n_steps == proc.n_steps
    bits = [p.flat.view(np.int64) for p in (proc, back)]
    assert np.array_equal(*bits)
