"""Price bounds from the comparison theorem for reflected BSDEs.

With r_lend <= r_borrow the two-rate generator is the pointwise maximum of
its two one-rate generators: it exceeds the lending one by
(r_borrow - r_lend) * cash^- and the borrowing one by
(r_borrow - r_lend) * cash^+.  Comparison then bounds the prices at zero
endowments:
  (i)  the hedger's price is at least the counterparty's;
  (ii) the two-rate hedger price is at least both one-rate hedger prices,
       and the two-rate counterparty price is at most both one-rate
       counterparty prices.
Equality is common (a quote whose cash keeps one sign solves with one rate
only), so every bound is checked with ``>=`` and no tolerance.  Each case
prices its one-rate and two-rate generators in one stacked pass.
"""

import math

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    DifferentialRates,
    PartyView,
    TimeGrid,
    build_lattice,
    builtin_game_bond,
    builtin_israeli_put,
)
from gamehedge.pricing import SIDES, sweep_prices
from conftest import RATE_GRID, random_contract, random_lattice


def assert_comparison_bounds(contract, acct, lat, r_lend, borrows):
    views = [PartyView(side, 0.0, acct) for side in SIDES]
    gens = [DifferentialRates(lend, borrow) for r_borrow in borrows
            for lend, borrow in ((r_lend, r_lend), (r_lend, r_borrow), (r_borrow, r_borrow))]
    hedger, counterparty = (p.reshape(len(borrows), 3)
                            for p in sweep_prices(contract, views, gens, lat))
    assert np.all(hedger >= counterparty)
    assert np.all(hedger[:, 1] >= hedger[:, 0]) and np.all(hedger[:, 1] >= hedger[:, 2])
    assert np.all(counterparty[:, 1] <= counterparty[:, 0])
    assert np.all(counterparty[:, 1] <= counterparty[:, 2])


N = 800
U = math.exp(0.2 * math.sqrt(1.0 / N))
LAT = build_lattice(100.0, U, 1.0 / U, TimeGrid(horizon=1.0, n_steps=N))
BORROWS = (0.02, 0.03, 0.05, 0.07, 0.10, 0.15)
CASES = {
    "put_penalty_5": (builtin_israeli_put(LAT, strike=100.0, penalty=5.0),
                      BenchmarkAccount(0.02, 0.10)),
    "put_penalty_12_flat_benchmark": (builtin_israeli_put(LAT, strike=100.0, penalty=12.0),
                                      BenchmarkAccount(0.0, 0.0)),
    "bond": (builtin_game_bond(LAT, face=100.0, coupon=1.5, call_penalty=2.0, put_discount=3.0),
             BenchmarkAccount(0.02, 0.05)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_two_rate_prices_bound_the_one_rate_prices_at_pricing_scale(case):
    contract, acct = CASES[case]
    assert_comparison_bounds(contract, acct, LAT, 0.02, BORROWS)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       rates=st.lists(st.sampled_from(RATE_GRID), min_size=2, max_size=2).map(sorted))
def test_two_rate_prices_bound_the_one_rate_prices(seed, rates):
    rng = np.random.default_rng(seed)
    lat = random_lattice(rng, 8)
    r_lend, r_borrow = rates
    # the one-step monotonicity bound of the conftest instances
    assume(lat.dt * r_borrow / (lat.u - lat.d) <= 0.9 * min(lat.q, 1.0 - lat.q))
    contract = random_contract(rng, lat)
    assert_comparison_bounds(contract, BenchmarkAccount(r_lend, r_borrow), lat, r_lend,
                             [r_borrow])
