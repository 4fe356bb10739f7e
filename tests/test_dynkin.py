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
from gamehedge.drbsde import _implicit_row, backward_step
from gamehedge.dynkin import (
    _bit_tuple,
    _grid_index,
    _packed_index,
    _pair_matrix,
    _widths,
    inf_values_by_maximizer_rule,
    sup_values_by_minimizer_rule,
)
from gamehedge.lattice import node_coords, tri
from conftest import GAME_GENERATORS, game_instance, random_instance


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
    from gamehedge.dynkin import stopped_values_for_maximizer_rules

    vals = stopped_values_for_maximizer_rules(game, root)
    # maximizer rule ids: bit for node (0,0); id 0 waits, id 1 stops at root
    assert vals[0] == pytest.approx(evaluate_stopped(game, root, never))
    assert vals[1] == pytest.approx(evaluate_stopped(game, root, root))


def reference_pair_matrix(game, sigma_ids, tau_ids):
    """The full-broadcast pair loop: every node carries every (sigma, tau) pair."""
    lat, gen, cashflow_increments = game.lat, game.gen, game.cashflow_increments
    n, dt, q = lat.n_steps, lat.dt, lat.q
    interior = [(k, j) for k in range(n) for j in range(k + 1)]
    bit_of = {node: i for i, node in enumerate(interior)}
    shape = (sigma_ids.shape[0], tau_ids.shape[0])

    tie_t = game.tie.row(n)
    vals = [np.full(shape, tie_t[j]) for j in range(n + 1)]
    for k in range(n - 1, -1, -1):
        s_next = lat.spot.row(k + 1)
        s_row = lat.spot.row(k)
        new_vals = []
        for j in range(k + 1):
            z = (vals[j + 1] - vals[j]) / (s_next[j + 1] - s_next[j])
            e = q * vals[j + 1] + (1.0 - q) * vals[j]
            rhs = e - cashflow_increments.at(k, j)
            cont, _, _ = _implicit_row(gen, k * dt, rhs, z, s_row[j], dt)
            sig = (((sigma_ids >> bit_of[(k, j)]) & 1) == 1)[:, None]
            tau = (((tau_ids >> bit_of[(k, j)]) & 1) == 1)[None, :]
            node_val = np.where(
                sig & tau,
                game.tie.at(k, j),
                np.where(sig, game.upper.at(k, j),
                         np.where(tau, game.lower.at(k, j), cont)),
            )
            new_vals.append(node_val)
        vals = new_vals
    return vals[0]


def assert_same_pairs(game, sigma=None, tau=None):
    """The engine's pair matrix, a fixed rule's axis of length 1, against the full broadcast."""
    ids = np.arange(rule_count(game.lat.n_steps), dtype=np.int64)
    sigma_ids, tau_ids = (ids if r is None else np.array([rule_to_id(r)]) for r in (sigma, tau))
    got = _pair_matrix(game, sigma, tau)
    want = reference_pair_matrix(game, sigma_ids, tau_ids)
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
    """The unfactored per-rule program: every node carries every rule id of one player.

    minimizer=True enumerates the minimizer's rules (per-rule sup),
    minimizer=False the maximizer's (per-rule inf).
    """
    lat, gen, cashflow_increments = game.lat, game.gen, game.cashflow_increments
    n = lat.n_steps
    ids = np.arange(rule_count(n), dtype=np.int64)
    vals = np.repeat(game.tie.row(n)[:, None], ids.size, axis=1)
    for k in range(n - 1, -1, -1):
        new_vals = np.empty((k + 1, ids.size))
        for j in range(k + 1):
            cont = backward_step(lat, gen, k, vals[j:j + 2], cashflow_increments.at(k, j), j)[0]
            lo, hi, tie = (p.at(k, j) for p in (game.lower, game.upper, game.tie))
            if minimizer:  # the opponent may force the tie, never gains by it
                stopped, free = max(tie, hi), np.maximum(lo, cont)
            else:
                stopped, free = min(tie, lo), np.minimum(hi, cont)
            new_vals[j] = np.where(((ids >> tri(k, j)) & 1).astype(bool), stopped, free)
        vals = new_vals
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


def cone_mask(n, k, j):
    """Rule bits of node (k, j)'s forward cone on an n-step lattice; 0 on the terminal row."""
    return sum(1 << tri(kk, jj) for kk in range(k, n) for jj in range(j, j + kk - k + 1))


def reference_gather(values, mask, below, rules):
    """A child's table gathered through np.ix_ on the per-bit concatenation index."""
    weight = {b: 1 << q for q, b in enumerate(_bit_tuple(mask))}
    at = np.zeros(1, dtype=np.intp)
    for b in _bit_tuple(below):  # lowest bit first, so each bit doubles the packed range
        at = np.concatenate([at, at + weight.get(b, 0)])
    return values[np.ix_(*(at if r is None else [0] for r in rules))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gather_matches_concatenated_index(n):
    # every child table of every node, gathered as the engine gathers it: a table over a
    # child's bits below its own onto the union of both children's, and (the general case)
    # over a child's cone onto the node's bits below its own; with one seat fixed and, where
    # the pair matrix runs under the default cap (N <= 4), with both seats enumerated
    rng = np.random.default_rng(n)
    fixed = rule_from_id(n, int(rng.integers(rule_count(n))))
    seatings = [[None, fixed], [fixed, None]] + ([[None, None]] if n <= 4 else [])
    for k in range(n):
        for j in range(k + 1):
            cones = [cone_mask(n, k + 1, j + c) for c in (0, 1)]
            belows = [cone & ~(1 << tri(k + 1, j + c)) if k + 1 < n else 0
                      for c, cone in enumerate(cones)]
            below = cones[0] | cones[1]
            assert cone_mask(n, k, j) == below | 1 << tri(k, j)
            for mask, target in [(m, belows[0] | belows[1]) for m in belows] + \
                                [(m, below) for m in cones]:
                assert not _packed_index(mask, target).flags.writeable
                for rules in seatings:
                    enum = tuple(r is None for r in rules)
                    values = rng.standard_normal(_widths(mask, enum))
                    at = _grid_index([_packed_index(mask, target) if e else [0] for e in enum],
                                     values.shape)
                    got = values.take(at)
                    want = reference_gather(values, mask, target, rules)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


def test_oracle_never_assembles_the_root_pair_table(monkeypatch):
    # the pair route reduces the root's slots, so no table reaches n_rules**2, and each
    # implicit step covers one entry per distinct operand pair of its children's slots
    import gamehedge.dynkin as dynkin

    game = game_instance(np.random.default_rng(4), 4, GAME_GENERATORS["differential"])
    tables, steps = [], []
    honest_assemble, honest_step = dynkin._assemble, dynkin.backward_step

    def assemble(*args):
        table = honest_assemble(*args)
        tables.append(table.size)
        return table

    def step(lat, gen, k, y_next, *args, **kwargs):
        steps.append(max(np.size(y) for y in y_next))
        return honest_step(lat, gen, k, y_next, *args, **kwargs)

    monkeypatch.setattr(dynkin, "_assemble", assemble)
    monkeypatch.setattr(dynkin, "backward_step", step)
    game_value_brute(game)
    # the root's children have 4 slots each on both seats: the two continuations span the 7
    # bits below either child, a continuation against a payoff its own 5, two payoffs 1 entry
    assert max(steps) == 4**7 + 6 * 4**5 + 9 == 22_537
    assert max(tables) == rule_count(4)  # the dynamic programs' root tables
    dynkin._pair_matrix(game)
    assert max(tables) == rule_count(4) ** 2

    # zero extremes are rebuilt in blocks no larger than the step: with upper and tie payoffs
    # of zero above a lower -1, every row maximum is a zero
    blocks, honest_block = [], dynkin._root_block

    def block(*args):
        out = honest_block(*args)
        blocks.append(out.size)
        return out

    monkeypatch.setattr(dynkin, "_root_block", block)
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=4))
    flat = DrbsdeInputs(lower=NodeProcess.constant(4, -1.0), upper=NodeProcess.zeros(4),
                        tie=NodeProcess.zeros(4), cashflow_increments=NodeProcess.zeros(4),
                        gen=GAME_GENERATORS["zero"], lat=lat)
    steps.clear()
    sup, inf = dynkin._pair_extremes(flat)
    assert (sup == 0).all() and (inf == 0).any()
    assert len(blocks) > 2 and max(blocks) <= max(steps)


def test_route_disagreement_raises_without_assert(monkeypatch):
    # an explicit raise, so the cross-check survives python -O
    import gamehedge.dynkin as dynkin

    rng = np.random.default_rng(7)
    gen = GAME_GENERATORS["linear"]
    game = game_instance(rng, 2, gen)
    honest = dynkin.sup_values_by_minimizer_rule
    monkeypatch.setattr(dynkin, "sup_values_by_minimizer_rule",
                        lambda *args: honest(*args) + 1.0)
    with pytest.raises(AssertionError, match="pair enumeration and per-rule dynamic program disagree"):
        game_value_brute(game)
