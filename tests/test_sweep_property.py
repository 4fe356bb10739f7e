"""Property tests of ``gamehedge sweep`` under two-rate funding.

A generator axis prices all its values and both sides in one backward pass,
any other axis one value at a time; either way both price columns of
``sweep.csv`` must equal a per-value ``acceptable_price`` bit for bit.  Puts
with zero endowment give both sides zero cash rows, so coupon bonds with
unequal endowments check that each side keeps its own rows.  Along the
borrowing rate the prices must be monotone, because a larger driver gives a
larger solution: the hedger's price never falls and the counterparty's never
rises.
"""

import copy
import csv
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamehedge.cli import main  # noqa: E402
from gamehedge.config import build_bundle, set_axis_value  # noqa: E402
from gamehedge.pricing import SIDES, acceptable_price  # noqa: E402

STRIKES = (90.0, 95.0, 100.0, 105.0, 110.0, 120.0)
PENALTIES = (2.0, 5.0, 10.0)
RATES = tuple(round(0.01 * i, 2) for i in range(21))  # 0 to 0.2: contracts from N=2 on
BORROW_GRID = RATES[2:]  # at least the base r_lend of 0.02
MONOTONE_TOL = 1e-12  # absolute, in price units
TWO_RATES = {"type": "differential", "r_lend": 0.02, "r_borrow": 0.1}

# axis -> (generator block, float values, int values)
AXES = {
    "generator.r_borrow": ({"type": "differential", "r_lend": 0.0, "r_borrow": 0.1}, RATES, (0,)),
    "generator.r_lend": ({"type": "differential", "r_lend": 0.0, "r_borrow": 0.2}, RATES, (0,)),
    "generator.rate": ({"type": "linear", "rate": 0.05}, RATES, (0,)),
    "contract.penalty": (TWO_RATES, (0.5, 2.0, 7.5, 30.0), (1, 5)),
}
# the same for coupon bonds; every coupon list holds a nonzero coupon
BOND_AXES = {
    "generator.r_borrow": AXES["generator.r_borrow"],
    "contract.coupon": (TWO_RATES, (0.25, 0.5, 1.5, 3.0), (0, 2)),
}
ENDOWMENTS = (-10.0, 0.0, 4.0, 25.0)


def put_config(n, strike, penalty, generator):
    return {
        "lattice": {"s0": 100.0, "sigma": 0.2, "N": n, "T": 1.0},
        "generator": generator,
        "benchmark": {"r_lend": 0.02, "r_borrow": 0.1},
        "contract": {"type": "israeli_put", "strike": strike, "penalty": penalty},
        "party": {"side": "both", "endowment": 0.0},
    }


def bond_config(n, coupon, call_penalty, put_discount, endowments, generator):
    hedger, counterparty = endowments
    return {
        "lattice": {"s0": 100.0, "sigma": 0.2, "N": n, "T": 1.0},
        "generator": generator,
        "benchmark": {"r_lend": 0.02, "r_borrow": 0.1},
        "contract": {"type": "game_bond", "face": 100.0, "coupon": coupon,
                     "call_penalty": call_penalty, "put_discount": put_discount},
        "party": {"side": "both", "endowment": hedger, "other_endowment": counterparty},
    }


def sweep_prices_csv(cfg, axis, values):
    """(hedger, counterparty) prices of each ``sweep.csv`` row, in value order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(path), "--out", tmp, "--axis", axis,
                     "--values", ",".join(str(v) for v in values)])
        assert code == 0
        rows = list(csv.reader((Path(tmp) / "sweep.csv").read_text().splitlines()))
    assert len(rows) == 1 + len(values)
    return [(float(h), float(c)) for _, h, c, _ in rows[1:]]


@st.composite
def value_lists(draw, floats, ints):
    """Values in drawn order, with one int and one repeated value at drawn places."""
    values = draw(st.lists(st.sampled_from(floats), min_size=1, max_size=6))
    values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(ints)))
    values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(values)))
    return values


def assert_rows_equal_solo_quotes(cfg, axis, values):
    for value, row in zip(values, sweep_prices_csv(cfg, axis, values)):
        solo = copy.deepcopy(cfg)
        set_axis_value(solo, axis, value)
        bundle = build_bundle(solo)
        want = [acceptable_price(bundle.contract, bundle.views[side], bundle.gen, bundle.lat).price
                for side in SIDES]
        assert [p.hex() for p in row] == [float(p).hex() for p in want], value


@pytest.mark.parametrize("axis", sorted(AXES))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(2, 60), strike=st.sampled_from(STRIKES),
       penalty=st.sampled_from(PENALTIES))
def test_sweep_prices_equal_solo_quotes_bit_for_bit(axis, data, n, strike, penalty):
    generator, floats, ints = AXES[axis]
    values = data.draw(value_lists(floats, ints))
    assert_rows_equal_solo_quotes(put_config(n, strike, penalty, generator), axis, values)


@pytest.mark.parametrize("axis", sorted(BOND_AXES))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(2, 60), coupon=st.sampled_from((0.25, 1.0, 3.0)),
       call_penalty=st.sampled_from((1.0, 5.0)), put_discount=st.sampled_from((0.0, 2.0, 10.0)),
       endowments=st.lists(st.sampled_from(ENDOWMENTS), min_size=2, max_size=2, unique=True))
def test_bond_sweep_keeps_each_side_its_own_rows(axis, data, n, coupon, call_penalty,
                                                 put_discount, endowments):
    generator, floats, ints = BOND_AXES[axis]
    values = data.draw(value_lists(floats, ints))
    cfg = bond_config(n, coupon, call_penalty, put_discount, endowments, generator)
    assert_rows_equal_solo_quotes(cfg, axis, values)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 60), strike=st.sampled_from(STRIKES),
       penalty=st.sampled_from(PENALTIES),
       values=st.lists(st.sampled_from(BORROW_GRID), min_size=2, max_size=len(BORROW_GRID),
                       unique=True).map(sorted))
def test_prices_are_monotone_in_the_borrowing_rate(n, strike, penalty, values):
    cfg = put_config(n, strike, penalty, TWO_RATES)
    prices = sweep_prices_csv(cfg, "generator.r_borrow", values)
    for (h0, c0), (h1, c1) in zip(prices, prices[1:]):
        assert h1 >= h0 - MONOTONE_TOL
        assert c1 <= c0 + MONOTONE_TOL
