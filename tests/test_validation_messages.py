"""Validation errors keep their exact text, naming the first offending node.

The expected messages were recorded from the row-by-row checks that the
vectorized flat-array checks replaced.  Every case holds a second, later
violation, so a check that reports the wrong node fails.
"""

import json

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    ContractInvariantViolated,
    ContractSpec,
    DifferentialRates,
    DrbsdeInputs,
    InvalidParameters,
    InvalidStoppingRule,
    NodeProcess,
    NonFiniteInput,
    ObstacleOrderViolated,
    OutOfRange,
    StoppingRule,
    TerminalOutOfBand,
    PartyView,
    TimeGrid,
    acceptable_price,
    build_lattice,
    builtin_israeli_put,
    classify_quadruplet,
    game_value_brute,
    read_node_process,
    saddle_check,
    verify_replication,
)
from gamehedge.cli import main
from gamehedge.errors import ConfigError


def f64(x):
    """The repr numpy gives a float64 element, which the messages quote."""
    return repr(np.float64(x))


def two_step_lattice():
    return build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=2))


def rows(*values):
    return NodeProcess.from_rows([np.array(r, dtype=float) for r in values])


def message(error, build):
    with pytest.raises(error) as info:
        build()
    return str(info.value)


def test_obstacle_order_names_first_node():
    lower = rows([0.0], [0.0, 3.0], [0.0, 0.0, 5.0])
    upper = rows([1.0], [1.0, 1.0], [1.0, 1.0, 1.0])
    text = message(ObstacleOrderViolated, lambda: DrbsdeInputs(
        lower=lower, upper=upper, tie=NodeProcess.constant(2, 0.5),
        cashflow_increments=NodeProcess.zeros(2), gen=DifferentialRates(0.0, 0.0),
        lat=two_step_lattice(),
    ))
    assert text == (f"lower must stay strictly below upper; at node (1, 1): "
                    f"lower={f64(3.0)}, upper={f64(1.0)}")


def tie_inputs(tie):
    return DrbsdeInputs(
        lower=NodeProcess.constant(2, 0.0), upper=NodeProcess.constant(2, 1.0), tie=tie,
        cashflow_increments=NodeProcess.zeros(2), gen=DifferentialRates(0.0, 0.0),
        lat=two_step_lattice(),
    )


def test_terminal_out_of_band_names_first_node():
    # the tie leaves the band only on its last row, the terminal data
    tie = rows([0.5], [0.5, 0.5], [0.5, 1.5, -2.0])
    text = message(TerminalOutOfBand, lambda: tie_inputs(tie))
    assert text == f"terminal value at node (2, 1) is {f64(1.5)}, outside [{f64(0.0)}, {f64(1.0)}]"


def test_interior_tie_order_names_first_node():
    # an interior node comes first, so the terminal row's breach is not the one reported
    tie = rows([0.5], [0.5, 2.0], [0.5, 1.5, -2.0])
    text = message(ObstacleOrderViolated, lambda: tie_inputs(tie))
    assert text == (f"need lower <= tie <= upper; at node (1, 1): "
                    f"lower={f64(0.0)}, tie={f64(2.0)}, upper={f64(1.0)}")


def test_contract_order_names_first_node():
    zeros = NodeProcess.zeros(2)
    xh = rows([-1.0], [-1.0, -1.0], [-1.0, 4.0, 7.0])
    text = message(ContractInvariantViolated, lambda: ContractSpec(
        Xh=xh, Xc=zeros, Xbar=zeros, dA=zeros))
    assert text == (f"cancellation payoff must stay strictly below exercise payoff; "
                    f"at node (2, 1): Xh={f64(4.0)}, Xc={f64(0.0)}")


def test_contract_tie_band_names_first_node():
    zeros = NodeProcess.zeros(2)
    xbar = rows([-0.5], [-0.5, 3.0], [9.0, 9.0, 9.0])  # terminal row is left to the solver
    text = message(ContractInvariantViolated, lambda: ContractSpec(
        Xh=NodeProcess.constant(2, -1.0), Xc=zeros, Xbar=xbar, dA=zeros))
    assert text == (f"tie payoff must lie between Xh and Xc; at node (1, 1): "
                    f"Xh={f64(-1.0)}, Xbar={f64(3.0)}, Xc={f64(0.0)}")


def test_node_process_non_finite_names_first_row():
    text = message(NonFiniteInput, lambda: rows([0.0], [0.0, np.inf], [np.nan, 0.0, 0.0]))
    assert text == "row 1 contains non-finite values"


def test_node_process_wrong_length_names_first_row():
    text = message(OutOfRange, lambda: NodeProcess.from_rows(
        [np.zeros(1), np.zeros(3), np.zeros(2)]))
    assert text == "row 1 must have 2 entries, got shape (3,)"


def test_stopping_rule_unmarked_terminal():
    marks = np.array([True, True, True, True, False, True])  # node (2, 1) unmarked
    text = message(InvalidStoppingRule, lambda: StoppingRule(marks))
    assert text == "terminal row must be fully marked"


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_region_tolerance_must_be_positive_and_finite(tol):
    lat = two_step_lattice()
    contract = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    view = PartyView("hedger", 0.0, BenchmarkAccount(0.0, 0.0))
    text = message(InvalidParameters, lambda: acceptable_price(
        contract, view, DifferentialRates(0.0, 0.0), lat, region_tol=tol))
    assert text == f"region_tol must be positive and finite, got {tol!r}"


def classify_at(quote, tol):
    n = quote.inputs.lat.n_steps
    sigma, tau = (StoppingRule.from_nodes(n, r) for r in (quote.region_sigma, quote.region_tau))
    return classify_quadruplet(quote.price, quote.solution.Z, sigma, tau, quote.contract,
                               quote.view, quote.inputs.gen, quote.inputs.lat, eq_tol=tol)


# each verifier's tolerance, named as its message names it; a nan one would make every
# comparison false (replicates=False at a max_gap of 0.0), an inf one accept any gap
VERIFIER_TOLERANCES = {
    "gap_tol": lambda quote, tol: verify_replication(quote, gap_tol=tol),
    "tol": lambda quote, tol: saddle_check(game_value_brute(quote.inputs), quote.y0, tol=tol),
    "eq_tol": classify_at,
}


@pytest.mark.parametrize("name", sorted(VERIFIER_TOLERANCES))
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_verifier_tolerances_must_be_positive_and_finite(name, tol):
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=3))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    view = PartyView("hedger", 0.0, BenchmarkAccount(0.0, 0.0))
    quote = acceptable_price(contract, view, DifferentialRates(0.0, 0.0), lat)
    text = message(InvalidParameters, lambda: VERIFIER_TOLERANCES[name](quote, tol))
    assert text == f"{name} must be positive and finite, got {tol!r}"


NODE_CSV_ERRORS = {
    "header": ("k,j,v\r\n0,0,1\r\n",
               "expected header ['step', 'up_count', 'value'], got ['k', 'j', 'v']"),
    "empty": ("", "expected header ['step', 'up_count', 'value'], got None"),
    "no_rows": ("step,up_count,value\r\n\r\n", "no data rows"),
    "short_row": ("step,up_count,value\r\n0,0,1\r\n1,0\r\n1,x,2\r\n",
                  "malformed row ['1', '0']"),
    "bad_number": ("step,up_count,value\r\n0,0,1\r\n1,x,2\r\n1,0\r\n",
                   "malformed row ['1', 'x', '2']"),
    "widths_that_sum_to_three": ("step,up_count,value\r\n0,0\r\n1,0,5,1\r\n",
                                 "malformed row ['0', '0']"),
    "long_row": ("step,up_count,value\r\n0,0,1,7\r\n", "malformed row ['0', '0', '1', '7']"),
    "duplicate": ("step,up_count,value\r\n0,0,1\r\n1,1,2\r\n1,0,3\r\n1,1,4\r\n1,0,5\r\n",
                  "duplicate node (1, 1)"),
    "coverage": ("step,up_count,value\r\n3,0,1\r\n1,2,1\r\n0,-1,1\r\n2,3,1\r\n1,3,1\r\n",
                 "node coverage mismatch (missing [(0, 0), (1, 0), (1, 1)], "
                 "unexpected [(0, -1), (1, 2), (1, 3)])"),
    "negative_steps": ("step,up_count,value\r\n-5,0,1\r\n-3,-1,1\r\n",
                       "node coverage mismatch (missing [], unexpected [(-5, 0), (-3, -1)])"),
    "missing_only": ("step,up_count,value\r\n0,0,1\r\n1,1,2\r\n2,0,3\r\n2,1,4\r\n2,2,5\r\n",
                     "node coverage mismatch (missing [(1, 0)], unexpected [])"),
}


@pytest.mark.parametrize("case", sorted(NODE_CSV_ERRORS))
def test_node_csv_errors_keep_their_text(tmp_path, case):
    text, expected = NODE_CSV_ERRORS[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(text.encode())
    assert message(ConfigError, lambda: read_node_process(path)) == f"{path}: {expected}"


def test_negative_linear_rate_names_the_rate_key(tmp_path, capsys):
    cfg = {
        "lattice": {"s0": 100.0, "u": 1.2, "d": 0.8, "N": 1, "T": 1.0},
        "benchmark": {"r_lend": 0.0, "r_borrow": 0.0},
        "generator": {"type": "linear", "rate": -0.01},
        "contract": {"type": "israeli_put", "strike": 100.0, "penalty": 5.0},
        "party": {"side": "hedger", "endowment": 0.0},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: OutOfRange: generator.rate must be nonnegative, got -0.01\n")
