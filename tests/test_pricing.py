"""Contract validation, obstacle builders, quotes, and stopping regions."""

import math
from itertools import repeat

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    ContractInvariantViolated,
    ContractSpec,
    DifferentialRates,
    InvalidParameters,
    InvalidPenalty,
    NodeProcess,
    PartyView,
    TimeGrid,
    acceptable_price,
    build_lattice,
    builtin_game_bond,
    builtin_israeli_put,
    side_obstacles,
)
from gamehedge.lattice import node_coords, tri
from conftest import random_instance


def test_builtin_put_shape(one_step_lattice, one_step_put):
    c = one_step_put
    assert c.Xc.at(1, 0) == pytest.approx(-20.0)  # hedger pays the put value
    assert c.Xc.at(1, 1) == 0.0
    assert c.Xh.at(0, 0) == pytest.approx(-5.0)
    assert c.Xbar.at(0, 0) == c.Xc.at(0, 0)
    assert all(c.dA.at(k, j) == 0.0 for k in range(2) for j in range(k + 1))


def test_builtin_put_validation(one_step_lattice):
    with pytest.raises(InvalidPenalty):
        builtin_israeli_put(one_step_lattice, strike=100.0, penalty=0.0)
    with pytest.raises(InvalidParameters):
        builtin_israeli_put(one_step_lattice, strike=-5.0, penalty=1.0)


def test_builtin_game_bond(one_step_lattice):
    c = builtin_game_bond(one_step_lattice, face=100.0, coupon=1.0,
                          call_penalty=3.0, put_discount=2.0)
    assert c.Xh.at(0, 0) == -103.0
    assert c.Xbar.at(0, 0) == -100.0
    assert c.Xc.at(0, 0) == -98.0
    assert c.dA.at(0, 0) == -1.0
    assert c.dA.at(1, 0) == 0.0  # increments stop before the terminal row
    with pytest.raises(InvalidParameters):
        builtin_game_bond(one_step_lattice, face=100.0, coupon=1.0,
                          call_penalty=3.0, put_discount=100.0)
    with pytest.raises(InvalidPenalty):
        builtin_game_bond(one_step_lattice, face=100.0, coupon=1.0,
                          call_penalty=0.0, put_discount=2.0)


def test_contract_order_validation(one_step_lattice):
    flat = NodeProcess.zeros(1)
    with pytest.raises(ContractInvariantViolated):
        ContractSpec(Xh=flat, Xc=flat, Xbar=flat, dA=flat)  # Xh < Xc fails
    ones = NodeProcess.constant(1, 1.0)
    with pytest.raises(ContractInvariantViolated):
        ContractSpec(Xh=flat, Xc=ones, Xbar=NodeProcess.constant(1, 2.0), dA=flat)
    with pytest.raises(ContractInvariantViolated):
        # cashflow increments may not touch the terminal row
        bad_da = NodeProcess.from_rows([np.zeros(1), np.ones(2)])
        ContractSpec(Xh=flat, Xc=ones, Xbar=flat, dA=bad_da)


def test_hedger_obstacles_instance_a(one_step_lattice, one_step_put, hedger_view):
    inputs = side_obstacles(one_step_put, hedger_view, DifferentialRates(0.0, 0.0),
                            one_step_lattice)
    assert inputs.lower.at(1, 0) == pytest.approx(20.0)  # (100-80)^+
    assert inputs.lower.at(1, 1) == 0.0
    assert inputs.upper.at(0, 0) == pytest.approx(5.0)
    assert inputs.terminal.tolist() == pytest.approx([20.0, 0.0])
    assert all(inputs.cashflow_increments.at(k, j) == 0.0
               for k in range(2) for j in range(k + 1))


def test_counterparty_obstacles_instance_a(one_step_lattice, one_step_put, counterparty_view):
    inputs = side_obstacles(
        one_step_put, counterparty_view, DifferentialRates(0.0, 0.0), one_step_lattice
    )
    assert inputs.lower.at(1, 0) == pytest.approx(-25.0)  # Xh = -(100-S)^+ - 5
    assert inputs.upper.at(1, 0) == pytest.approx(-20.0)
    assert inputs.terminal.tolist() == pytest.approx([-20.0, 0.0])


def test_counterparty_endowment_shift(one_step_lattice, one_step_put):
    acct = BenchmarkAccount(0.0, 0.0)
    shifted = PartyView(side="counterparty", endowment=3.0, acct=acct)
    inputs = side_obstacles(
        one_step_put, shifted, DifferentialRates(0.0, 0.0), one_step_lattice
    )
    assert inputs.upper.at(0, 0) == pytest.approx(3.0 - 0.0)
    # zero generator is translation invariant, so the price is unchanged
    base = PartyView(side="counterparty", endowment=0.0, acct=acct)
    p0 = acceptable_price(one_step_put, base, DifferentialRates(0.0, 0.0), one_step_lattice)
    p3 = acceptable_price(one_step_put, shifted, DifferentialRates(0.0, 0.0), one_step_lattice)
    assert p3.y0 == pytest.approx(p0.y0 + 3.0, abs=1e-12)
    assert p3.price == pytest.approx(p0.price, abs=1e-12)


def test_acceptable_price_both_sides(one_step_lattice, one_step_put, hedger_view,
                                     counterparty_view):
    gen = DifferentialRates(0.0, 0.0)
    qh = acceptable_price(one_step_put, hedger_view, gen, one_step_lattice)
    qc = acceptable_price(one_step_put, counterparty_view, gen, one_step_lattice)
    assert qh.price == pytest.approx(5.0, abs=1e-14)
    assert qh.y0 == pytest.approx(5.0, abs=1e-14)
    assert qc.price == pytest.approx(5.0, abs=1e-14)
    assert qc.y0 == pytest.approx(-5.0, abs=1e-14)
    # price-side identities are exact arithmetic on the solver output
    assert qh.price == qh.y0 - 0.0
    assert qc.price == 0.0 - qc.y0


def test_instance_a_regions(one_step_lattice, one_step_put, hedger_view):
    quote = acceptable_price(one_step_put, hedger_view, DifferentialRates(0.0, 0.0),
                             one_step_lattice)
    assert tri(0, 0) in quote.region_sigma          # Y(0,0) = 5 = upper
    assert tri(0, 0) in quote.region_bar_sigma      # dU(0,0) = 5 > 0
    assert tri(0, 0) not in quote.region_tau
    assert tri(1, 0) in quote.region_tau            # terminal Y = 20 = lower
    assert quote.region_bar_tau.size == 0


def test_region_disjointness_random(rng):
    for _ in range(20):
        lat, gen, contract, views = random_instance(rng, 8)
        for side in ("hedger", "counterparty"):
            quote = acceptable_price(contract, views[side], gen, lat)
            both = np.intersect1d(quote.region_sigma, quote.region_tau)
            assert both.size == 0, (side, both)


def reference_region(mask, n_steps):
    """Sorted (k, j) pairs of a flat node mask, built row by row."""
    nodes = []
    for k in range(n_steps + 1):
        nodes.extend(zip(repeat(k), np.flatnonzero(mask[tri(k):tri(k + 1)]).tolist()))
    return tuple(nodes)


def assert_regions_match_reference(quote, region_tol=1e-9):
    sol, inputs = quote.solution, quote.inputs
    y, n = sol.Y.flat, sol.Y.n_steps
    band = region_tol * (1.0 + np.abs(y))
    upper, lower = np.abs(y - inputs.upper.flat) <= band, np.abs(y - inputs.lower.flat) <= band
    masks = {"region_sigma": upper, "region_tau": lower,
             "region_bar_sigma": sol.dU.flat > 0.0, "region_bar_tau": sol.dL.flat > 0.0}
    if quote.view.side == "counterparty":
        masks = {"region_sigma": lower, "region_tau": upper,
                 "region_bar_sigma": sol.dL.flat > 0.0, "region_bar_tau": sol.dU.flat > 0.0}
    ks, js = node_coords(n)
    for name, mask in masks.items():
        region = getattr(quote, name)
        assert region.dtype == np.int64 and region.ndim == 1, name
        assert not region.flags.writeable, name
        assert np.all(np.diff(region) > 0), name
        assert tuple(zip(ks[region].tolist(), js[region].tolist())) == reference_region(mask, n)


def test_regions_match_tuple_reference(rng):
    for _ in range(12):
        lat, gen, contract, views = random_instance(rng, 30)
        for side in ("hedger", "counterparty"):
            assert_regions_match_reference(acceptable_price(contract, views[side], gen, lat))
    grid = TimeGrid(horizon=1.0, n_steps=200)
    u = math.exp(0.2 * math.sqrt(grid.dt))
    lat = build_lattice(100.0, u, 1.0 / u, grid)
    put = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    acct = BenchmarkAccount(0.02, 0.10)
    for side in ("hedger", "counterparty"):
        quote = acceptable_price(put, PartyView(side=side, endowment=0.0, acct=acct),
                                 DifferentialRates(0.02, 0.10), lat)
        assert quote.region_tau.size and quote.region_bar_tau.size
        assert_regions_match_reference(quote)


def test_endowment_translation_zero_generator(rng):
    for _ in range(10):
        lat, _, contract, _ = random_instance(rng, 8)
        gen = DifferentialRates(0.0, 0.0)
        acct = BenchmarkAccount(0.0, 0.0)
        p0 = acceptable_price(
            contract, PartyView("hedger", 0.0, acct), gen, lat
        ).price
        x = float(rng.uniform(-5, 5))
        px = acceptable_price(
            contract, PartyView("hedger", x, acct), gen, lat
        ).price
        assert abs(px - p0) <= 1e-10


def test_linear_market_symmetry(rng):
    # equal rates and equal endowments collapse the two unilateral prices
    for _ in range(10):
        lat, gen, contract, views = random_instance(rng, 8)
        rate = 0.05
        gen = DifferentialRates(rate, rate)
        acct = BenchmarkAccount(rate, rate)
        qh = acceptable_price(contract, PartyView("hedger", 0.0, acct), gen, lat)
        qc = acceptable_price(contract, PartyView("counterparty", 0.0, acct), gen, lat)
        assert qh.price == pytest.approx(qc.price, abs=1e-12)


def test_penalty_monotone_and_capped():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=4))
    acct = BenchmarkAccount(0.0, 0.0)
    view = PartyView("hedger", 0.0, acct)
    gen = DifferentialRates(0.0, 0.0)
    prices = []
    for delta in (0.5, 1.0, 2.0, 5.0, 30.0, 120.0):
        c = builtin_israeli_put(lat, strike=100.0, penalty=delta)
        prices.append(acceptable_price(c, view, gen, lat).price)
    assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))
    from test_dynkin import american_put_value

    assert prices[-1] == pytest.approx(american_put_value(lat, 100.0), abs=1e-12)
    assert prices[-2] == pytest.approx(prices[-1], abs=1e-12)  # already capped


def test_nonlinear_rates_open_a_spread():
    # strike away from the money so the penalty cap stays slack at the root;
    # an at-the-money root would clip both sides to the penalty exactly
    lat = build_lattice(100.0, 1.1, 0.9, TimeGrid(horizon=1.0, n_steps=8))
    c = builtin_israeli_put(lat, strike=80.0, penalty=2.0)
    gen = DifferentialRates(0.02, 0.10)
    acct = BenchmarkAccount(0.02, 0.10)
    qh = acceptable_price(c, PartyView("hedger", 0.0, acct), gen, lat)
    qc = acceptable_price(c, PartyView("counterparty", 0.0, acct), gen, lat)
    assert qh.solution.dU.at(0, 0) == 0.0
    assert abs(qh.price - qc.price) > 1e-8


def test_party_view_validation(zero_account):
    with pytest.raises(InvalidParameters):
        PartyView(side="dealer", endowment=0.0, acct=zero_account)
    from gamehedge import NonFiniteInput

    with pytest.raises(NonFiniteInput):
        PartyView(side="hedger", endowment=float("nan"), acct=zero_account)
