"""Forward wealth, benchmark classification, and the stopping-rule verifiers."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    DifferentialRates,
    NodeProcess,
    PartyView,
    StoppingRule,
    TimeGrid,
    TooLarge,
    acceptable_price,
    build_lattice,
    builtin_israeli_put,
    classify_quadruplet,
    forward_wealth,
    path_moves,
    path_up_counts,
    solution_path,
    stopping_time_battery,
    verify_break_even,
    verify_rational_cancellation,
    verify_replication,
)
from gamehedge.errors import InvalidParameters, InvalidStoppingRule, OutOfRange
from gamehedge.lattice import node_coords, tri
from gamehedge.replication import _PROBE, _forward_matrix

from conftest import SMOOTH_CUSTOM, random_instance
from test_battery_reference import corrupted


@pytest.fixture
def instance_a(one_step_lattice, one_step_put, hedger_view):
    gen = DifferentialRates(0.0, 0.0)
    quote = acceptable_price(one_step_put, hedger_view, gen, one_step_lattice)
    return one_step_lattice, one_step_put, hedger_view, gen, quote


def test_forward_wealth_one_step(instance_a):
    lat, contract, view, gen, quote = instance_a
    down = forward_wealth(5.0, quote.solution.Z, gen, contract.dA, lat, [0])
    # 5 + (-0.5) * (80 - 100) = 15; the contract was already cancelled at the
    # root, so this only checks the wealth step itself
    assert down[1] == pytest.approx(15.0, abs=1e-14)
    up = forward_wealth(5.0, quote.solution.Z, gen, contract.dA, lat, [1])
    assert up[1] == pytest.approx(-5.0, abs=1e-14)


def test_forward_wealth_zero_hedge(one_step_lattice):
    flat = forward_wealth(
        3.0, NodeProcess.zeros(1), DifferentialRates(0.0, 0.0), NodeProcess.zeros(1),
        one_step_lattice, [1],
    )
    assert flat.tolist() == [3.0, 3.0]


def test_forward_wealth_strict_ordering(rng):
    # more initial cash stays strictly ahead under the nonlinear driver
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=6))
    gen = DifferentialRates(0.02, 0.10)
    hedge = NodeProcess(0.3 - 0.1 * node_coords(6)[1])
    cash = NodeProcess.zeros(6)
    for _ in range(5):
        moves = rng.integers(0, 2, size=6)
        base = forward_wealth(2.0, hedge, gen, cash, lat, moves)
        more = forward_wealth(2.0 + 1e-3, hedge, gen, cash, lat, moves)
        assert (more - base > 0).all()


def test_solution_path_carries_pushes(instance_a):
    lat, contract, view, gen, quote = instance_a
    y, l_cum, u_cum = solution_path(quote, [0])
    assert y.tolist() == [5.0, 20.0]
    assert u_cum.tolist() == [0.0, 5.0]  # root push counts after leaving 0
    assert l_cum.tolist() == [0.0, 0.0]


def test_batched_paths_match_single_path_calls(rng):
    # a move matrix gives the one-path results stacked, bit for bit
    for _ in range(4):
        lat, gen, contract, views = random_instance(rng, 5)
        n = lat.n_steps
        moves = path_moves(np.arange(1 << n), n)
        for side in ("hedger", "counterparty"):
            quote = acceptable_price(contract, views[side], gen, lat)
            args = (quote.y0, quote.solution.Z, gen, quote.inputs.cashflow_increments, lat)
            wealth = forward_wealth(*args, moves)
            solved = solution_path(quote, moves)
            assert wealth.shape == solved[1].shape == (1 << n, n + 1)
            for pid in range(1 << n):
                assert path_moves(pid, n).tolist() == moves[pid].tolist()
                one = forward_wealth(*args, moves[pid])
                for batch, ref in zip((wealth, *solved), (one, *solution_path(quote, moves[pid]))):
                    assert batch[pid].tobytes() == ref.tobytes()


def test_paths_must_have_the_lattice_step_count():
    # one check for both: a short path is no prefix, a long one no untyped IndexError
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=3))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    view = PartyView("hedger", 0.0, BenchmarkAccount(0.0, 0.0))
    gen = DifferentialRates(0.0, 0.0)
    quote = acceptable_price(contract, view, gen, lat)
    args = (quote.y0, quote.solution.Z, gen, quote.inputs.cashflow_increments, lat)
    for moves, got in (([1], 1), ([0, 1, 1, 0, 1], 5), (np.zeros((4, 2), dtype=int), 2)):
        with pytest.raises(OutOfRange, match=f"^path must have 3 moves, got {got}$"):
            solution_path(quote, moves)
        with pytest.raises(OutOfRange, match=f"^path must have 3 moves, got {got}$"):
            forward_wealth(*args, moves)
    with pytest.raises(OutOfRange):
        path_moves(np.array([0, 2]), 1)


def test_classifier_instance_a(instance_a):
    lat, contract, view, gen, quote = instance_a
    sigma = StoppingRule.from_nodes(1, quote.region_sigma)
    tau = StoppingRule.never_early(1)
    z = quote.solution.Z
    at_quote = classify_quadruplet(5.0, z, sigma, tau, contract, view, gen, lat)
    assert at_quote.be and at_quote.sh and at_quote.na and not at_quote.ao
    rich = classify_quadruplet(6.0, z, sigma, tau, contract, view, gen, lat)
    assert rich.ao and rich.sh and not rich.na
    poor = classify_quadruplet(4.0, z, sigma, tau, contract, view, gen, lat)
    assert not poor.sh and poor.na
    assert poor.witness_paths["shortfall"] == (0, 1)
    assert rich.witness_paths["strict_gain"] == (0, 1)


def test_classifier_rejects_parts_off_the_lattice():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=2))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    lat3 = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=3))
    put3 = builtin_israeli_put(lat3, strike=100.0, penalty=5.0)
    view = PartyView("hedger", 0.0, BenchmarkAccount(0.0, 0.0))
    gen = DifferentialRates(0.0, 0.0)
    quote = acceptable_price(contract, view, gen, lat)
    z, never, never_3 = quote.solution.Z, StoppingRule.never_early(2), StoppingRule.never_early(3)
    for error, part, (hedge, sigma, tau, spec) in (
        (InvalidStoppingRule, "sigma", (z, never_3, never, contract)),
        (InvalidStoppingRule, "tau", (z, never, never_3, contract)),
        (OutOfRange, "hedge", (NodeProcess.zeros(3), never, never, contract)),
        (InvalidParameters, "contract", (z, never, never, put3)),
    ):
        with pytest.raises(error, match=f"^{part} has 3 steps, lattice has 2$"):
            classify_quadruplet(quote.price, hedge, sigma, tau, spec, view, gen, lat)


def test_forward_wealth_rejects_processes_off_the_lattice():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=2))
    two, three = NodeProcess.zeros(2), NodeProcess.zeros(3)
    for part, (hedge, cash) in (("hedge", (three, three)), ("cashflow_increments", (two, three))):
        with pytest.raises(OutOfRange, match=f"^{part} has 3 steps, lattice has 2$"):
            forward_wealth(5.0, hedge, DifferentialRates(0.0, 0.0), cash, lat, [1, 0])


def test_classifier_flag_structure(rng):
    # be implies sh and na; ao implies sh and not na
    for _ in range(10):
        lat, gen, contract, views = random_instance(rng, 5)
        for side in ("hedger", "counterparty"):
            quote = acceptable_price(contract, views[side], gen, lat)
            sigma = StoppingRule.from_nodes(lat.n_steps, quote.region_sigma)
            tau = StoppingRule.from_nodes(lat.n_steps, quote.region_tau)
            for bump in (-0.25, 0.0, 0.25):
                rep = classify_quadruplet(
                    quote.price + bump, quote.solution.Z, sigma, tau,
                    contract, views[side], gen, lat,
                )
                if rep.be:
                    assert rep.sh and rep.na
                if rep.ao:
                    assert rep.sh and not rep.na


def test_verify_replication_instance_a(instance_a):
    lat, contract, view, gen, quote = instance_a
    rep = verify_replication(quote)
    assert rep.replicates and rep.max_gap <= 1e-10
    assert rep.be and rep.ao_at_plus and rep.sh_fails_at_minus
    assert rep.ok


def test_verify_replication_counterparty_probes(one_step_lattice, one_step_put,
                                                counterparty_view):
    gen = DifferentialRates(0.0, 0.0)
    quote = acceptable_price(one_step_put, counterparty_view, gen, one_step_lattice)
    rep = verify_replication(quote)
    assert rep.ok


def test_corrupted_hedge_detected():
    # large penalty pushes the cancel time off the root, so the corrupted
    # hedge ratio actually gets used before settlement
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=2))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=30.0)
    view = PartyView("hedger", 0.0, BenchmarkAccount(0.0, 0.0))
    gen = DifferentialRates(0.0, 0.0)
    quote = acceptable_price(contract, view, gen, lat)
    rows = [quote.solution.Z.row(k).copy() for k in range(3)]
    rows[0][0] += 0.1
    bad = replace(quote, solution=replace(quote.solution, Z=NodeProcess.from_rows(rows)))
    rep = verify_replication(bad)
    assert not rep.replicates
    assert rep.max_gap > 1e-6
    assert rep.first_failing_path is not None


def test_slack_obstacles_replicate_to_terminal(rng):
    from gamehedge import ContractSpec

    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=4))
    wide = NodeProcess.constant(4, 1e6)
    ks, js = node_coords(4)
    contract = ContractSpec(
        Xh=NodeProcess.constant(4, -1e6),
        Xc=wide,
        Xbar=NodeProcess(np.where(ks == 4, 0.25 * js, 0.0)),
        dA=NodeProcess.zeros(4),
    )
    view = PartyView("hedger", 0.0, BenchmarkAccount(0.0, 0.0))
    gen = DifferentialRates(0.0, 0.0)
    quote = acceptable_price(contract, view, gen, lat)
    rep = verify_replication(quote)
    assert rep.ok and rep.max_gap <= 1e-12


@pytest.mark.parametrize("gen", [DifferentialRates(0.02, 0.10), SMOOTH_CUSTOM],
                         ids=["builtin", "custom"])
def test_forward_matrix_rows_match_one_call_per_wealth(rng, gen):
    # a vector of initial wealths adds a leading row axis; each row is a scalar call's bytes
    for _ in range(3):
        lat, _, contract, views = random_instance(rng, 5)
        n = lat.n_steps
        js = path_up_counts(path_moves(np.arange(1 << n), n))
        for view in views.values():
            quote = acceptable_price(contract, view, gen, lat)
            y0 = quote.y0 + np.array([0.0, 1e-6, -1e-6, 2.5])
            args = (quote.solution.Z, gen, quote.inputs.cashflow_increments, lat, js)
            rows = _forward_matrix(y0, *args)
            assert rows.shape == (4, 1 << n, n + 1)
            for start, row in zip(y0, rows):
                assert row.tobytes() == _forward_matrix(float(start), *args).tobytes()


def test_verify_replication_probes_read_the_public_classifier():
    # the single fold's three flags are classify_quadruplet's at the price and one probe
    # either way, the counterparty's probe negated, on clean and corrupted quotes
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(5):
        lat, gen, contract, views = random_instance(rng, 5)
        n = lat.n_steps
        for side, view in views.items():
            for name, quote in corrupted(acceptable_price(contract, view, gen, lat), rng).items():
                rep = verify_replication(quote)
                probe = _PROBE * (1.0 + abs(quote.price)) * (1.0 if side == "hedger" else -1.0)
                sigma, tau = (StoppingRule.from_nodes(n, region)
                              for region in (quote.region_sigma, quote.region_tau))
                exact, up, down = (
                    classify_quadruplet(price, quote.solution.Z, sigma, tau, contract, view,
                                        gen, lat, quote.region_tol)
                    for price in (quote.price, quote.price + probe, quote.price - probe))
                got = (rep.be, rep.ao_at_plus, rep.sh_fails_at_minus)
                assert got == (exact.be, up.ao, not down.sh), (side, name)
                seen.add(got)
    assert all({got[i] for got in seen} == {True, False} for i in range(3)), seen


def test_rational_cancellation_instance_a(instance_a):
    lat, contract, view, gen, quote = instance_a
    sigma = StoppingRule.from_nodes(1, quote.region_sigma)
    report = verify_rational_cancellation(sigma, quote)
    assert report.rational and report.sufficient
    assert report.push_before_stop_max == 0.0
    assert report.snell_value == pytest.approx(5.0, abs=1e-12)

    never = StoppingRule.never_early(1)
    late = verify_rational_cancellation(never, quote)
    assert not late.rational
    assert late.push_at_join_max == pytest.approx(5.0)  # the root push fires first
    assert late.snell_value == pytest.approx(10.0, abs=1e-12)


def two_step_quote():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=2))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    view = PartyView("hedger", 0.0, BenchmarkAccount(0.0, 0.0))
    return acceptable_price(contract, view, DifferentialRates(0.0, 0.0), lat)


def test_break_even_canonical_rule():
    quote = two_step_quote()
    tau = StoppingRule.from_nodes(2, quote.region_tau)
    report = verify_break_even(tau, quote)
    assert report.flags == (True, True, True, True, True)
    assert report.equivalent
    with pytest.raises(InvalidStoppingRule, match="^tau has 3 steps, lattice has 2$"):
        verify_break_even(StoppingRule.never_early(3), quote)


def test_break_even_root_rule_fails_all_five():
    # stopping where the solved value sits strictly above the exercise payoff
    # surrenders value; every characterization must see it the same way
    quote = two_step_quote()
    root_tau = StoppingRule.from_nodes(2, [tri(0, 0)])
    report = verify_break_even(root_tau, quote)
    assert report.flags == (False, False, False, False, False)
    assert report.equivalent


def test_battery_two_step_put():
    quote = two_step_quote()
    report = stopping_time_battery(quote)
    assert report.ok
    assert report.n_rules == 8
    assert report.rational_count == 4  # exactly the rules stopping at the root
    assert report.breakeven_count == 4
    assert report.canonical_rational
    assert report.breakeven_disagreements == ()


def test_battery_random_instances(rng):
    for _ in range(6):
        lat, gen, contract, views = random_instance(rng, 4)
        for side in ("hedger", "counterparty"):
            quote = acceptable_price(contract, views[side], gen, lat)
            report = stopping_time_battery(quote)
            assert report.ok, (side, report)


def test_battery_memory_stays_bounded():
    # the N=5 put of acceptance check 7: 2**15 rules on 32 paths, audited one
    # bounded block of rule rows x paths at a time
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=5))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    gen = DifferentialRates(0.0, 0.0)
    for side in ("hedger", "counterparty"):
        view = PartyView(side, 0.0, BenchmarkAccount(0.0, 0.0))
        quote = acceptable_price(contract, view, gen, lat)
        tracemalloc.start()
        try:
            report = stopping_time_battery(quote)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 48 * 2**20, (side, peak / 2**20)


def test_path_guard():
    n = 30  # 2^30 paths is past the enumeration cap
    lat = build_lattice(100.0, 1.01, 0.99, TimeGrid(horizon=1.0, n_steps=n))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=1.0)
    view = PartyView("hedger", 0.0, BenchmarkAccount(0.0, 0.0))
    gen = DifferentialRates(0.0, 0.0)
    quote = acceptable_price(contract, view, gen, lat)
    sigma = StoppingRule.from_nodes(n, quote.region_sigma)
    tau = StoppingRule.from_nodes(n, quote.region_tau)
    with pytest.raises(TooLarge):
        classify_quadruplet(
            quote.price, quote.solution.Z, sigma, tau, contract, view, gen, lat
        )
