"""Brute-force game values against the solver."""

from dataclasses import replace

import numpy as np
import pytest

from gamehedge import (
    DifferentialRates,
    DrbsdeInputs,
    InvalidStoppingRule,
    NodeProcess,
    StoppingRule,
    TimeGrid,
    TooLarge,
    acceptable_price,
    build_lattice,
    builtin_israeli_put,
    evaluate_stopped,
    game_value_brute,
    rule_count,
    rule_from_id,
    rule_to_id,
    saddle_check,
    side_obstacles,
    snell_sup_for_minimizer,
)
from gamehedge.drbsde import _game_root, _inf_node, backward_step
from gamehedge.dynkin import (
    inf_values_by_maximizer_rule,
    stopped_values_for_maximizer_rules,
    sup_values_by_minimizer_rule,
)
from gamehedge.lattice import node_coords, tri
from conftest import GAME_GENERATORS, game_instance, pair_matrix, random_instance


def test_rule_counts():
    assert rule_count(1) == 2
    assert rule_count(2) == 8
    assert rule_count(5) == 32768


def test_interior_nodes_order():
    # rule bit i marks the i-th interior node in (step, up_count) order: flat node i
    ks, js = node_coords(2)
    assert list(zip(ks[:tri(2)].tolist(), js[:tri(2)].tolist())) == [(0, 0), (1, 0), (1, 1)]


def test_enumeration_guard():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=6))
    game = DrbsdeInputs(lower=NodeProcess.constant(6, -1.0),
                        upper=NodeProcess.constant(6, 1.0), tie=NodeProcess.zeros(6),
                        cashflow_increments=NodeProcess.zeros(6), gen=DifferentialRates(0.0, 0.0),
                        lat=lat)
    with pytest.raises(TooLarge):
        game_value_brute(game)


def test_rule_id_round_trip():
    for n in (1, 2, 3):
        for rid in range(rule_count(n)):
            rule = rule_from_id(n, rid)
            assert rule_to_id(rule) == rid
            assert rule.flat[:tri(n)].tolist() == [bool((rid >> i) & 1) for i in range(tri(n))]
            assert rule.row(n).all()


def test_enumerate_rules_yields_all(one_step_lattice):
    n = one_step_lattice.n_steps
    rules = [rule_from_id(n, rid) for rid in range(rule_count(n))]
    assert len(rules) == 2
    assert {bool(r.at(0, 0)) for r in rules} == {True, False}
    assert all(r.at(1, 0) and r.at(1, 1) for r in rules)


def test_rule_from_id_rejects_ids_outside_range():
    for n, rid in ((1, -1), (1, 2), (1, 5), (1, 2**40), (2, 8), (3, -64), (3, 64)):
        with pytest.raises(InvalidStoppingRule, match="rule id"):
            rule_from_id(n, rid)


def instance_a_game(lat, contract, view):
    return side_obstacles(contract, view, DifferentialRates(0.0, 0.0), lat)


def test_instance_a_oracle(one_step_lattice, one_step_put, hedger_view):
    report = game_value_brute(instance_a_game(one_step_lattice, one_step_put, hedger_view))
    assert report.upper_value == pytest.approx(5.0, abs=1e-12)
    assert report.lower_value == pytest.approx(5.0, abs=1e-12)
    assert report.rule_count == 2


def test_instance_a_saddle(one_step_lattice, one_step_put, hedger_view):
    report = game_value_brute(instance_a_game(one_step_lattice, one_step_put, hedger_view))
    diag = saddle_check(report, 5.0, tol=1e-10)
    assert diag.matches_upper and diag.has_value
    off = saddle_check(report, 4.9, tol=1e-10)
    assert not off.matches_upper


def test_slack_payoff_reduces_to_expectation(one_step_lattice):
    # stopping early is never beneficial: minimizer sees a huge upper payoff,
    # maximizer a hugely negative lower payoff, so both wait for the terminal;
    # there both are stopped, so the tie row pays and the obstacles around it
    # only need to be strictly ordered
    term = np.array([20.0, 0.0])
    report = game_value_brute(DrbsdeInputs(
        lower=NodeProcess.from_rows([np.array([-1e6]), term - 1.0]),
        upper=NodeProcess.from_rows([np.array([1e6]), term + 1.0]),
        tie=NodeProcess.from_rows([np.array([0.0]), term]),
        cashflow_increments=NodeProcess.zeros(1), gen=DifferentialRates(0.0, 0.0),
        lat=one_step_lattice,
    ))
    assert report.upper_value == pytest.approx(10.0, abs=1e-12)
    assert report.lower_value == pytest.approx(10.0, abs=1e-12)


def american_put_value(lat, strike):
    """Independent optimal-stopping induction for the plain American put."""
    n, q = lat.n_steps, lat.q
    v = np.maximum(strike - lat.spot.row(n), 0.0)
    for k in range(n - 1, -1, -1):
        cont = q * v[1:] + (1.0 - q) * v[:-1]
        v = np.maximum(strike - lat.spot.row(k), cont)
    return float(v[0])


def test_large_penalty_equals_american_put():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=4))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=30.0)
    from gamehedge import BenchmarkAccount, PartyView

    view = PartyView(side="hedger", endowment=0.0, acct=BenchmarkAccount(0.0, 0.0))
    report = game_value_brute(instance_a_game(lat, contract, view))
    assert report.upper_value == pytest.approx(american_put_value(lat, 100.0), abs=1e-12)


def test_oracle_equals_drbsde_on_random_instances(rng):
    for _ in range(15):
        lat, gen, contract, views = random_instance(rng, 4)
        for side in ("hedger", "counterparty"):
            quote = acceptable_price(contract, views[side], gen, lat)
            report = game_value_brute(side_obstacles(contract, views[side], gen, lat))
            assert report.upper_value >= report.lower_value - 1e-12
            diag = saddle_check(report, quote.y0, tol=1e-10)
            assert diag.matches_upper, (side, quote.y0, report.upper_value)


def test_first_contact_rule_attains_value(rng):
    for _ in range(10):
        lat, gen, contract, views = random_instance(rng, 4)
        quote = acceptable_price(contract, views["hedger"], gen, lat)
        game = side_obstacles(contract, views["hedger"], gen, lat)
        sigma = StoppingRule.from_nodes(lat.n_steps, quote.region_sigma)
        sup_against = snell_sup_for_minimizer(game, sigma)
        assert sup_against == pytest.approx(quote.y0, abs=1e-10)


def test_obstacle_monotonicity(one_step_lattice, one_step_put, hedger_view):
    game = instance_a_game(one_step_lattice, one_step_put, hedger_view)
    base = game_value_brute(game)

    def raised(proc, amount):
        return NodeProcess.from_rows([proc.row(k) + amount for k in range(proc.n_steps + 1)])

    up_report = game_value_brute(replace(game, upper=raised(game.upper, 1.0)))
    assert up_report.upper_value >= base.upper_value - 1e-12


def test_stopped_value_matches_evaluate(one_step_lattice, one_step_put, hedger_view):
    game = instance_a_game(one_step_lattice, one_step_put, hedger_view)
    root = StoppingRule.from_nodes(1, [tri(0, 0)])
    never = StoppingRule.never_early(1)
    vals = stopped_values_for_maximizer_rules(game, root)
    # maximizer rule ids: bit for node (0,0); id 0 waits, id 1 stops at root
    assert vals[0] == pytest.approx(evaluate_stopped(game, root, never))
    assert vals[1] == pytest.approx(evaluate_stopped(game, root, root))


def node_marks(ids, k):
    """Row k's stop marks per rule id: node j's mark is the id's bit tri(k, j)."""
    return ((ids >> np.arange(tri(k), tri(k + 1))[:, None]) & 1).astype(bool)


def reference_pair_matrix(game, sigma_ids, tau_ids):
    """The full-broadcast pair sweep: every row carries every (sigma, tau) pair of ids."""
    lat, n = game.lat, game.lat.n_steps
    vals = np.broadcast_to(game.tie.row(n)[:, None, None], (n + 1, sigma_ids.size, tau_ids.size))
    for k in range(n - 1, -1, -1):
        cont = backward_step(lat, game.gen, k, vals, game.cashflow_increments.row(k))[0]
        sig, tau = node_marks(sigma_ids, k)[:, :, None], node_marks(tau_ids, k)[:, None, :]
        lo, hi, tie = (p.row(k)[:, None, None] for p in (game.lower, game.upper, game.tie))
        vals = np.where(sig & tau, tie, np.where(sig, hi, np.where(tau, lo, cont)))
    return vals[0]


def assert_same_pairs(game, sigma=None, tau=None):
    """The engine's pair matrix, a fixed rule's axis of length 1, against the full broadcast."""
    ids = np.arange(rule_count(game.lat.n_steps), dtype=np.int64)
    sigma_ids, tau_ids = (ids if r is None else np.array([rule_to_id(r)]) for r in (sigma, tau))
    got = pair_matrix(game, sigma, tau)
    # columns step independently, so blocks of 64 minimizer rules keep the reference small
    want = np.concatenate([reference_pair_matrix(game, ids, tau_ids)
                           for ids in np.array_split(sigma_ids, -(-sigma_ids.size // 64))])
    assert got.shape == (sigma_ids.shape[0], tau_ids.shape[0])
    assert got.tobytes() == want.tobytes()


# the custom generator evaluates per element, too slow for the reference at N=4
PAIR_CASES = [(name, n) for name in ("zero", "linear", "differential") for n in (1, 2, 3, 4)]
PAIR_CASES += [("custom", n) for n in (1, 2, 3)]


@pytest.mark.parametrize("name,n", PAIR_CASES)
def test_pair_matrix_matches_full_broadcast(name, n):
    rng = np.random.default_rng(PAIR_CASES.index((name, n)))
    gen = GAME_GENERATORS[name]
    for side in ("hedger", "counterparty"):
        game = game_instance(rng, n, gen, side)
        assert_same_pairs(game)
        sigma, tau = (rule_from_id(n, int(rid)) for rid in rng.integers(0, rule_count(n), size=2))
        assert_same_pairs(game, sigma=sigma)
        assert_same_pairs(game, tau=tau)


def reference_per_rule_dp(game, minimizer):
    """The full-broadcast per-rule program: every row carries every rule id of one player.

    minimizer=True enumerates the minimizer's rules (per-rule sup),
    minimizer=False the maximizer's (per-rule inf).
    """
    lat, n = game.lat, game.lat.n_steps
    ids = np.arange(rule_count(n), dtype=np.int64)
    vals = np.repeat(game.tie.row(n)[:, None], ids.size, axis=1)
    for k in range(n - 1, -1, -1):
        cont = backward_step(lat, game.gen, k, vals, game.cashflow_increments.row(k))[0]
        lo, hi, tie = (p.row(k)[:, None] for p in (game.lower, game.upper, game.tie))
        # the opponent may force the tie, never gains by it: max(tie, hi) and min(tie, lo),
        # the tie where they are equal
        if minimizer:
            stopped, free = np.where(hi > tie, hi, tie), np.maximum(lo, cont)
        else:
            stopped, free = np.where(lo < tie, lo, tie), np.minimum(hi, cont)
        vals = np.where(node_marks(ids, k), stopped, free)
    return vals[0]


# the custom generator evaluates per element, too slow for the reference past N=3
DP_CASES = [(name, n) for name in ("zero", "linear", "differential") for n in (1, 2, 3, 4, 5)]
DP_CASES += [("custom", n) for n in (1, 2, 3)]


@pytest.mark.parametrize("name,n", DP_CASES)
def test_per_rule_dp_matches_unfactored_reference(name, n):
    rng = np.random.default_rng(100 + DP_CASES.index((name, n)))
    gen = GAME_GENERATORS[name]
    for side in ("hedger", "counterparty"):
        game = game_instance(rng, n, gen, side)
        for got, minimizer in ((sup_values_by_minimizer_rule(game), True),
                               (inf_values_by_maximizer_rule(game), False)):
            want = reference_per_rule_dp(game, minimizer)
            assert got.shape == (rule_count(n),)
            assert got.tobytes() == want.tobytes()


# the custom generator evaluates per element, too slow for every rule's sweep past N=3
COLUMN_CASES = [(name, n) for name in ("zero", "linear", "differential") for n in (1, 2, 3, 4)]
COLUMN_CASES += [("custom", n) for n in (1, 2, 3)]


@pytest.mark.parametrize("name,n", COLUMN_CASES)
def test_each_program_column_is_its_rules_own_sweep(name, n):
    # row k's step sees each restriction of the rules to rows k..N-1 once and tests its exit
    # per column, so column r is bit for bit the sweep under rule r alone, also where a custom
    # generator's columns converge after different numbers of iterations
    rng = np.random.default_rng(200 + COLUMN_CASES.index((name, n)))
    rules = [rule_from_id(n, rid) for rid in range(rule_count(n))]
    for side in ("hedger", "counterparty"):
        game = game_instance(rng, n, GAME_GENERATORS[name], side)
        sigma = rules[int(rng.integers(len(rules)))]
        for got, one in ((sup_values_by_minimizer_rule(game),
                          lambda r: snell_sup_for_minimizer(game, r)),
                         (inf_values_by_maximizer_rule(game),
                          lambda r: float(_game_root(game, _inf_node, tau=r))),
                         (stopped_values_for_maximizer_rules(game, sigma),
                          lambda r: evaluate_stopped(game, sigma, r))):
            assert got.tobytes() == np.array([one(r) for r in rules]).tobytes()


def test_oracle_steps_each_rule_restriction_once(monkeypatch):
    # row k of a per-rule program carries one column per combination of a rule's bits on rows
    # k..N-1, so no step operand of the N=4 oracle exceeds rule_count(4) = 1,024 entries (the
    # root's two children by 2**9 columns); a full broadcast over rule ids steps 5 x 1,024
    import gamehedge.drbsde as drbsde

    game = game_instance(np.random.default_rng(4), 4, GAME_GENERATORS["differential"])
    sizes, honest_step = [], drbsde.backward_step

    def step(lat, gen, k, y_next, cash, *args, **kwargs):
        sizes.append(max(np.size(y_next), np.size(cash)))
        return honest_step(lat, gen, k, y_next, cash, *args, **kwargs)

    monkeypatch.setattr(drbsde, "backward_step", step)
    game_value_brute(game)
    assert sizes == [5, 4 * 2**4, 3 * 2**7, 2 * 2**9] * 2  # each program steps each row once
    assert max(sizes) == rule_count(4) == 1024
