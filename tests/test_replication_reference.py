"""Replication's prefix pass against the path fold it replaced.

``verify_replication`` steps each of the 2**(N+1) - 1 path prefixes once.
``reference_verify_replication`` is the fold it replaced: four wealth rows
rolled forward on every path at every step, with the stops, the gap and the
benchmark rows read path by path.  The two must give equal reports, with
``max_gap`` bit for bit, on clean and corrupted quotes, in blocks of any size.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamehedge import (  # noqa: E402
    BenchmarkAccount,
    ContractSpec,
    DifferentialRates,
    NodeProcess,
    PartyView,
    ReplicationReport,
    TimeGrid,
    acceptable_price,
    benchmark_profile,
    build_lattice,
    builtin_israeli_put,
    forward_wealth,
    path_moves,
    path_up_counts,
    replication,
    verify_replication,
)
from gamehedge.lattice import node_coords, tri  # noqa: E402
from gamehedge.pricing import _Side  # noqa: E402
from gamehedge.replication import (  # noqa: E402
    _PROBE,
    _benchmark_rows,
    _fold,
    _forward_matrix,
    _hits,
    _node_idx,
    _own_rules,
)

from conftest import SMOOTH_CUSTOM, random_instance  # noqa: E402
from test_battery_reference import corrupted  # noqa: E402


def reference_verify_replication(quote, gap_tol=1e-10):
    """The path fold: the solved root, the price and its probes rolled along every path."""
    lat, gen, cash = quote.inputs.lat, quote.inputs.gen, quote.inputs.cashflow_increments
    n, view, price, side = lat.n_steps, quote.view, quote.price, _Side(quote.view)
    own_rule, _, other_rule, _ = _own_rules(quote, n)
    probe = _PROBE * (1.0 + abs(price))
    plus, minus = side.order(price + probe, price - probe)
    y0 = [quote.y0] + [side.initial_wealth(p) for p in (price, plus, minus)]
    settle, y_flat = tuple(side.settlements(quote.contract)), quote.solution.Y.flat
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)

    def block(pids, js, idx):
        v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
        h_own, h_other = _hits(own_rule, idx), _hits(other_rule, idx)
        live = np.arange(n + 1)[None, :] <= np.minimum(h_own, h_other)[:, None]
        path_gap = np.where(live, np.abs(v_full[0] - y_flat[idx]), 0.0).max(axis=1)
        _, _, flags = _benchmark_rows(v_full[1:], h_own, h_other, idx, settle, vb,
                                      quote.region_tol)
        return {**flags, "max_gap": path_gap.max(), "failing": pids[path_gap > gap_tol]}

    out = _fold(n, len(y0), block)
    max_gap = float(out["max_gap"])
    return ReplicationReport(
        replicates=max_gap <= gap_tol,
        max_gap=max_gap,
        n_paths=1 << n,
        first_failing_path=int(out["failing"][0]) if out["failing"].size else None,
        be=bool(out["be"][0]),
        ao_at_plus=bool(out["sh"][1] and not out["no_gain"][1]),
        sh_fails_at_minus=not out["sh"][2],
    )


def failing_prefixes(quote, gap_tol):
    """Per step, the ids of the prefixes (path id mod 2**k) whose live gap exceeds gap_tol."""
    lat, n = quote.inputs.lat, quote.inputs.lat.n_steps
    moves = path_moves(np.arange(1 << n), n)
    idx = _node_idx(path_up_counts(moves))
    wealth = forward_wealth(quote.y0, quote.solution.Z, quote.inputs.gen,
                            quote.inputs.cashflow_increments, lat, moves)
    own_rule, _, other_rule, _ = _own_rules(quote, n)
    stop = np.minimum(_hits(own_rule, idx), _hits(other_rule, idx))
    fails = ((np.arange(n + 1) <= stop[:, None])
             & (np.abs(wealth - quote.solution.Y.flat[idx]) > gap_tol))
    return {k: sorted({int(p) & ((1 << k) - 1) for p in np.flatnonzero(fails[:, k])})
            for k in range(n + 1) if fails[:, k].any()}


def report_key(rep):
    """A report's fields with max_gap by its bits."""
    return (rep.replicates, rep.max_gap.hex(), rep.n_paths, rep.first_failing_path, rep.be,
            rep.ao_at_plus, rep.sh_fails_at_minus)


VARIANTS = ("clean", "push_at_root", "hedge_off", "upper_on_value", "own_push_at_root",
            "no_own_region", "no_regions", "random_regions")


def hedge_bumped(quote, node):
    """The quote with its hedge raised by 0.05 at one interior node (taken mod their count),
    so that paths through that node fail from the next step on."""
    z = quote.solution.Z.flat.copy()
    z[node % tri(quote.inputs.lat.n_steps)] += 0.05
    return replace(quote, solution=replace(quote.solution, Z=NodeProcess(z)))


def drawn_quote(seed, side, custom, variant, bump=None):
    """One corrupted(...) variant of a random quote with N <= 12, its hedge bumped if asked."""
    rng = np.random.default_rng(seed)
    lat, gen, contract, views = random_instance(rng, 12)
    quote = acceptable_price(contract, views[side], SMOOTH_CUSTOM if custom else gen, lat)
    quote = corrupted(quote, rng)[variant]
    return quote if bump is None else hedge_bumped(quote, bump)


# a draw whose first failing step (2) holds prefixes 1 and 3 while step 3 holds prefix 0,
# so the first failing path is 0, not the smallest failing id of the first failing step
LATER_SMALLER = dict(seed=24, side="hedger", custom=False, variant="no_own_region", bump=None,
                     gap_tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["hedger", "counterparty"]),
       custom=st.booleans(), variant=st.sampled_from(VARIANTS),
       bump=st.none() | st.integers(0, 10**6), gap_tol=st.sampled_from([1e-10, 1e-3]))
@example(**LATER_SMALLER)
def test_prefix_pass_matches_path_fold(seed, side, custom, variant, bump, gap_tol):
    quote = drawn_quote(seed, side, custom, variant, bump)
    assert (report_key(verify_replication(quote, gap_tol))
            == report_key(reference_verify_replication(quote, gap_tol)))


def test_first_failing_path_is_the_smallest_over_all_steps():
    # the example above is the case it names: the first failing step's smallest prefix is
    # larger than a prefix failing at a later step, and the report gives the latter
    tol = LATER_SMALLER["gap_tol"]
    quote = drawn_quote(*(LATER_SMALLER[k] for k in ("seed", "side", "custom", "variant")))
    steps = failing_prefixes(quote, tol)
    first = min(steps)
    rep = verify_replication(quote, tol)
    assert rep.first_failing_path == min(min(ids) for ids in steps.values())
    assert steps[first][0] > rep.first_failing_path


@pytest.mark.parametrize("block", [1, 40, 200])
def test_blocks_leave_reports_unchanged(monkeypatch, block):
    # _BLOCK of 1 and 40 run every state (or every pair) as a block of its own, 200 a dozen
    # states.  On a contract nobody stops early, a hedge bumped at node (k, j) fails first on
    # path 2**j - 1, and the failing path must still be the smallest over every block
    rng = np.random.default_rng(7)
    quotes = []
    for _ in range(3):
        lat, gen, contract, views = random_instance(rng, 8, 4)
        for view in views.values():
            quotes.extend(corrupted(acceptable_price(contract, view, gen, lat), rng).values())
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=6))
    ks, js = node_coords(6)
    slack = ContractSpec(Xh=NodeProcess.constant(6, -1e6), Xc=NodeProcess.constant(6, 1e6),
                         Xbar=NodeProcess(np.where(ks == 6, 2.0 * js, 0.0)),
                         dA=NodeProcess.zeros(6))
    for side in ("hedger", "counterparty"):
        quote = acceptable_price(slack, PartyView(side, 0.0, BenchmarkAccount(0.02, 0.10)),
                                 DifferentialRates(0.02, 0.10), lat)
        quotes += [hedge_bumped(quote, node) for node in range(tri(6))]
    whole = [report_key(verify_replication(quote, 1e-10)) for quote in quotes]
    monkeypatch.setattr(replication, "_BLOCK", block)
    assert [report_key(verify_replication(quote, 1e-10)) for quote in quotes] == whole
    assert len({key[3] for key in whole} - {None, 0}) >= 5


def test_memory_at_twenty_steps():
    # 2**20 paths of the put: the path fold peaked at 16.5 MB traced; the prefix pass holds
    # one bounded block of states at a time
    lat = build_lattice(100.0, 1.02, 0.98, TimeGrid(horizon=1.0, n_steps=20))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    gen = DifferentialRates(0.02, 0.10)
    for side in ("hedger", "counterparty"):
        quote = acceptable_price(contract, PartyView(side, 0.0, BenchmarkAccount(0.02, 0.10)),
                                 gen, lat)
        tracemalloc.start()
        try:
            rep = verify_replication(quote)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok and rep.n_paths == 1 << 20
        assert peak <= 16.5 * 2**20, (side, peak / 2**20)
