"""Acceptance suite.

Nine end-to-end checks, one per test, each appending a single pass/fail line
to SUMMARY; a conftest terminal hook prints the block after the run.  The
shared 200-instance pool is solved once and reused by the oracle, replication
and invariant checks.
"""

import itertools
import time

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    DifferentialRates,
    DrbsdeInputs,
    NodeProcess,
    PartyView,
    StoppingRule,
    TimeGrid,
    acceptable_price,
    benchmark_profile,
    build_lattice,
    builtin_israeli_put,
    forward_wealth,
    game_value_brute,
    path_up_counts,
    side_obstacles,
    solve_drbsde,
    stopping_time_battery,
    verify_replication,
)
from conftest import (
    RATE_GRID,
    grid_values,
    random_contract,
    random_funding,
    random_instance,
    random_lattice,
)

SUMMARY: list[str] = []


def check(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    SUMMARY.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def solved_pool():
    """200 random small instances, both sides quoted, reused by tests 1/4/5."""
    rng = np.random.default_rng(91)
    pool = []
    for _ in range(200):
        lat, gen, contract, views = random_instance(rng, 4)
        for side in ("hedger", "counterparty"):
            quote = acceptable_price(contract, views[side], gen, lat)
            pool.append((lat, gen, contract, views[side], quote))
    return pool


def test_backward_solve_matches_brute_force_game_value(solved_pool):
    t0 = time.perf_counter()
    worst = 0.0
    for lat, gen, contract, view, quote in solved_pool:
        report = game_value_brute(side_obstacles(contract, view, gen, lat))
        worst = max(worst, abs(quote.solution.Y.at(0, 0) - report.upper_value))
    elapsed = time.perf_counter() - t0
    check(
        "1/9 brute-force oracle agreement",
        worst <= 1e-10 and elapsed < 120.0,
        f"max |y0 - upper value| = {worst:.2e} on 400 sided quotes, {elapsed:.1f}s",
    )


def american_put_root(lat, strike: float) -> float:
    # plain backward induction, written independently of the solver internals;
    # the successor blend must keep the q*up + (1-q)*down evaluation order
    n, q = lat.n_steps, lat.q
    v = np.maximum(strike - lat.spot.row(n), 0.0)
    for k in range(n - 1, -1, -1):
        cont = q * v[1:] + (1.0 - q) * v[:-1]
        v = np.maximum(strike - lat.spot.row(k), cont)
    return float(v[0])


def test_put_price_degenerates_to_american_in_linear_market():
    n = 200
    dt = 1.0 / n
    u = float(np.exp(0.2 * np.sqrt(dt)))
    lat = build_lattice(100.0, u, 1.0 / u, TimeGrid(horizon=1.0, n_steps=n))
    # a penalty at least the strike makes cancelling never worthwhile
    contract = builtin_israeli_put(lat, strike=100.0, penalty=100.0)
    view = PartyView(side="hedger", endowment=0.0, acct=BenchmarkAccount(0.0, 0.0))
    t0 = time.perf_counter()
    price = acceptable_price(contract, view, DifferentialRates(0.0, 0.0), lat).price
    elapsed = time.perf_counter() - t0
    gap = abs(price - american_put_root(lat, 100.0))
    check(
        "2/9 linear degeneration to the American put",
        gap <= 1e-12 and elapsed < 1.0,
        f"N=200 price gap {gap:.2e}, solve {elapsed * 1e3:.0f}ms",
    )


def test_two_sided_prices_coincide_when_rates_are_equal():
    rng = np.random.default_rng(92)
    worst = 0.0
    for _ in range(50):
        lat = random_lattice(rng, 50)
        contract = random_contract(rng, lat)
        r = float(rng.choice(RATE_GRID))
        gen, acct = DifferentialRates(r, r), BenchmarkAccount(r, r)
        quotes = [
            acceptable_price(contract, PartyView(side=s, endowment=0.0, acct=acct), gen, lat)
            for s in ("hedger", "counterparty")
        ]
        worst = max(worst, abs(quotes[0].price - quotes[1].price))
    check(
        "3/9 price symmetry under one funding rate",
        worst <= 1e-12,
        f"max hedger/counterparty gap {worst:.2e} over 50 contracts",
    )


def shortfall_on_every_path(quote, contract, view, gen, lat) -> bool:
    """Starting one probe below the quote must lose to the benchmark on each path."""
    n = lat.n_steps
    probe = 1e-6 * (1.0 + abs(quote.price))
    low_price = quote.price - probe if view.side == "hedger" else quote.price + probe
    start = view.endowment + low_price if view.side == "hedger" else view.endowment - low_price
    sigma = StoppingRule.from_nodes(n, quote.region_sigma)
    tau = StoppingRule.from_nodes(n, quote.region_tau)
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)
    sign = 1.0 if view.side == "hedger" else -1.0
    for moves in itertools.product((0, 1), repeat=n):
        js = path_up_counts(moves)
        ks, kt = sigma.first_hit(js), tau.first_hit(js)
        k = min(ks, kt)
        j = int(js[k])
        if ks < kt:
            settle = contract.Xh.at(k, j)
        elif kt < ks:
            settle = contract.Xc.at(k, j)
        else:
            settle = contract.Xbar.at(k, j)
        wealth = forward_wealth(
            start, quote.solution.Z, gen, quote.inputs.cashflow_increments, lat, moves
        )[k]
        if wealth + sign * settle >= vb[k] - 1e-9 * (1.0 + abs(vb[k])):
            return False
    return True


def test_solved_hedge_replicates_and_probes_pin_the_price(solved_pool):
    worst_gap = 0.0
    flags_ok = True
    strict_shortfall = True
    for lat, gen, contract, view, quote in solved_pool:
        rep = verify_replication(quote, gap_tol=1e-10)
        worst_gap = max(worst_gap, rep.max_gap)
        flags_ok &= rep.replicates and rep.be and rep.ao_at_plus and rep.sh_fails_at_minus
        strict_shortfall &= shortfall_on_every_path(quote, contract, view, gen, lat)
    check(
        "4/9 replication and two-sided price probes",
        flags_ok and strict_shortfall,
        f"max wealth/value gap {worst_gap:.2e}; shortfall below the quote on every path",
    )


def test_reflection_invariants_zero_violations(solved_pool):
    violations = 0
    nodes = 0
    for lat, gen, contract, view, quote in solved_pool:
        sol, inputs = quote.solution, quote.inputs
        for k in range(lat.n_steps + 1):
            y = sol.Y.row(k)
            lo, hi = inputs.lower.row(k), inputs.upper.row(k)
            dl, du = sol.dL.row(k), sol.dU.row(k)
            nodes += y.size
            violations += int(np.sum(~((lo <= y) & (y <= hi))))
            violations += int(np.sum(dl * du != 0.0))
            violations += int(np.sum((dl > 0) & (y != lo)))
            violations += int(np.sum((du > 0) & (y != hi)))
            violations += int(np.sum((y == lo) & (y == hi)))
    check(
        "5/9 reflection invariants",
        violations == 0,
        f"{violations} violations over {nodes} solved nodes",
    )


def test_terminal_bump_strictly_raises_root_value():
    rng = np.random.default_rng(93)
    worst = np.inf
    for _ in range(50):
        lat = random_lattice(rng, 8)
        gen, _ = random_funding(rng, lat)
        n = lat.n_steps
        # obstacles far outside the payoff range stay slack on every path; the
        # tie's interior is the lower row, its last row the free terminal data
        lower = NodeProcess.constant(n, -1e3)

        def tie(terminal):
            return NodeProcess.from_rows([*(lower.row(k) for k in range(n)), terminal])

        wide = DrbsdeInputs(
            lower=lower,
            upper=NodeProcess.constant(n, 1e3),
            tie=tie(grid_values(rng, n + 1, lo=-5.0, hi=5.0)),
            cashflow_increments=NodeProcess.zeros(n),
            gen=gen,
            lat=lat,
        )
        base = solve_drbsde(wide).Y.at(0, 0)
        bumped_terminal = wide.tie.row(n).copy()
        bumped_terminal[int(rng.integers(0, n + 1))] += 1e-4
        bumped = DrbsdeInputs(
            lower=wide.lower,
            upper=wide.upper,
            tie=tie(bumped_terminal),
            cashflow_increments=wide.cashflow_increments,
            gen=gen,
            lat=lat,
        )
        worst = min(worst, solve_drbsde(bumped).Y.at(0, 0) - base)
    check(
        "6/9 strict comparison under a terminal bump",
        worst >= 1e-12,
        f"min root increase {worst:.2e} over 50 single-node bumps",
    )


def test_stopping_rule_battery_finds_no_counterexamples():
    rng = np.random.default_rng(94)
    rules_audited = 0
    all_ok = True
    cases = [random_instance(rng, 4) for _ in range(12)]
    # one denser tree to stretch the enumeration (32768 rules per sweep)
    lat5 = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=5))
    put5 = builtin_israeli_put(lat5, strike=100.0, penalty=5.0)
    acct5 = BenchmarkAccount(0.0, 0.0)
    views5 = {
        s: PartyView(side=s, endowment=0.0, acct=acct5) for s in ("hedger", "counterparty")
    }
    cases.append((lat5, DifferentialRates(0.0, 0.0), put5, views5))
    for lat, gen, contract, views in cases:
        for side in ("hedger", "counterparty"):
            quote = acceptable_price(contract, views[side], gen, lat)
            report = stopping_time_battery(quote)
            rules_audited += report.n_rules
            all_ok &= report.ok
    check(
        "7/9 exhaustive stopping-rule audit",
        all_ok,
        f"{rules_audited} rules audited, canonical rules rational, 0 counterexamples",
    )


def refinement_lattice(n: int):
    dt = 0.25 / n
    u = float(np.exp(0.2 * np.sqrt(dt)))
    return build_lattice(120.0, u, 1.0 / u, TimeGrid(horizon=0.25, n_steps=n))


def put_quote(side: str, n: int, gen, acct) -> float:
    lat = refinement_lattice(n)
    contract = builtin_israeli_put(lat, strike=100.0, penalty=2.0)
    view = PartyView(side=side, endowment=0.0, acct=acct)
    return acceptable_price(contract, view, gen, lat).price


def test_price_differences_shrink_under_refinement():
    gen, acct = DifferentialRates(0.0, 0.0), BenchmarkAccount(0.0, 0.0)
    prices = {n: put_quote("hedger", n, gen, acct) for n in (25, 50, 100, 200, 400)}
    diffs = [abs(prices[2 * n] - prices[n]) for n in (25, 50, 100, 200)]
    ok = all(b < a for a, b in zip(diffs, diffs[1:]))
    check(
        "8/9 refinement differences shrink monotonically",
        ok,
        "|p(2N) - p(N)| = " + ", ".join(f"{d:.2e}" for d in diffs),
    )


def test_two_rate_spread_reported():
    gen, acct = DifferentialRates(0.02, 0.10), BenchmarkAccount(0.02, 0.10)
    hedger = put_quote("hedger", 50, gen, acct)
    counterparty = put_quote("counterparty", 50, gen, acct)
    spread = hedger - counterparty
    check(
        "9/9 two-rate funding splits the prices",
        abs(spread) > 1e-8,
        f"hedger {hedger:.6f}, counterparty {counterparty:.6f}, "
        f"spread {spread:+.6f} (sign reported, not asserted)",
    )
