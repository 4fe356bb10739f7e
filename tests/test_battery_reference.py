"""The stopping-time battery against a rule-by-rule reference.

The battery judges every rule id in one array pass (a row per rule, a
column per path).  ``reference_counterexamples`` is the per-rule loop it
replaced, written with the public path helpers (``first_hit``,
``forward_wealth``, ``solution_path``).  Clean quotes yield no
counterexamples, so the cases also corrupt a quote's pushes, hedge,
obstacle or regions until every kind of counterexample appears.
"""

from dataclasses import replace

import numpy as np

from gamehedge import (
    NodeProcess,
    StoppingRule,
    acceptable_price,
    benchmark_profile,
    forward_wealth,
    path_moves,
    path_up_counts,
    rule_count,
    rule_from_id,
    side_obstacles,
    snell_sup_for_minimizer,
    solution_path,
    stopping_time_battery,
)
from gamehedge.dynkin import stopped_values_for_maximizer_rules, sup_values_by_minimizer_rule
from gamehedge.lattice import tri
from gamehedge.replication import _hits, _node_idx
from conftest import random_instance

KINDS = (
    "sufficiency_counterexamples",
    "necessity_counterexamples",
    "earliest_counterexamples",
    "latest_counterexamples",
    "breakeven_disagreements",
    "counterpart_earliest_counterexamples",
)


def own_regions(quote):
    """(own equality, own push, other equality, other push) in solution coordinates."""
    regions = (quote.region_sigma, quote.region_bar_sigma, quote.region_tau, quote.region_bar_tau)
    return regions if quote.view.side == "hedger" else regions[2:] + regions[:2]


def reference_counterexamples(quote, contract, view, gen, lat, eq_tol=1e-9):
    """Counterexample ids and counts of the battery, one rule at a time."""
    n = lat.n_steps
    moves = path_moves(np.arange(1 << n), n)
    js = path_up_counts(moves)
    paths = np.arange(1 << n)
    payoff, cash = side_obstacles(contract, view, gen, lat), quote.inputs.cashflow_increments
    y0 = quote.y0
    v_full = forward_wealth(y0, quote.solution.Z, gen, cash, lat, moves)
    y_sol, l_cum, u_cum = solution_path(quote, moves)

    def hits_of(rule):
        return np.array([rule.first_hit(path) for path in js])

    def along(proc, steps):
        return np.array([proc.at(int(k), int(js[p, k])) for p, k in enumerate(steps)])

    own_eq, own_bar, other_eq, other_bar = own_regions(quote)
    h_own, h_own_bar, h_other, h_other_bar = (
        hits_of(StoppingRule.from_nodes(n, region))
        for region in (own_eq, own_bar, other_eq, other_bar)
    )
    rule_hits = [hits_of(rule_from_id(n, rid)) for rid in range(rule_count(n))]
    rational = sup_values_by_minimizer_rule(payoff) <= y0 + eq_tol * (1.0 + abs(y0))
    found = {kind: [] for kind in KINDS}
    early, late = h_own <= h_other_bar, h_own_bar < h_other_bar
    for rid, hits in enumerate(rule_hits):
        y_hit = y_sol[paths, hits]
        on_upper = np.abs(y_hit - along(quote.inputs.upper, hits)) <= eq_tol * (1.0 + np.abs(y_hit))
        if ((hits == n) | on_upper).all() and u_cum[paths, hits].max() == 0.0:
            if not rational[rid]:
                found["sufficiency_counterexamples"].append(rid)
        if not rational[rid]:
            continue
        if u_cum[paths, np.minimum(hits, h_other)].max() > 0.0:
            found["necessity_counterexamples"].append(rid)
        for kind, event, canon, never in (("earliest_counterexamples", early, h_own, np.less_equal),
                                          ("latest_counterexamples", late, h_own_bar,
                                           np.greater_equal)):
            if event.any() and never(hits[event], canon[event]).all():
                if not (hits[event] == canon[event]).all():
                    found[kind].append(rid)

    own_rule = StoppingRule.from_nodes(n, own_eq)
    pair_vals = stopped_values_for_maximizer_rules(payoff, own_rule)
    snell = snell_sup_for_minimizer(payoff, own_rule)
    premise = bool((h_own >= h_other).all())
    sign = 1.0 if view.side == "hedger" else -1.0
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)
    breakeven_count = 0
    for rid, hits in enumerate(rule_hits):
        k_stop = np.minimum(h_own, hits)
        sig, tau = (h_own, hits) if view.side == "hedger" else (hits, h_own)
        settle = np.where(sig < tau, along(contract.Xh, k_stop),
                          np.where(tau < sig, along(contract.Xc, k_stop), along(contract.Xbar, k_stop)))
        diff = v_full[paths, k_stop] + sign * settle - vb[k_stop]
        settle_tol = eq_tol * (1.0 + np.abs(vb[k_stop]))
        be = bool((np.abs(diff) <= settle_tol).all())
        na = be or bool((diff < -settle_tol).any())
        game = np.where(h_own < hits, along(payoff.upper, k_stop),
                        np.where(hits < h_own, along(payoff.lower, k_stop),
                                 along(payoff.tie, k_stop)))
        tol = eq_tol * (1.0 + np.abs(game))
        wealth = bool((np.abs(v_full[paths, k_stop] - game) <= tol).all())
        solution = bool(((np.abs(y_sol[paths, k_stop] - game) <= tol)
                         & (l_cum[paths, k_stop] == 0.0)
                         & (u_cum[paths, h_own] == 0.0)).all())
        attains = bool(abs(pair_vals[rid] - snell) <= eq_tol * (1.0 + abs(snell)))
        if len({be, na, wealth, solution, attains}) != 1:
            found["breakeven_disagreements"].append(rid)
        if be:
            breakeven_count += 1
            if premise and not (np.minimum(hits, h_own) >= h_other).all():
                found["counterpart_earliest_counterexamples"].append(rid)
    out = {kind: tuple(ids) for kind, ids in found.items()}
    out.update(rational_count=int(rational.sum()), breakeven_count=breakeven_count,
               counterpart_earliest_premise=premise)
    return out


def random_region(rng, n):
    return np.flatnonzero(rng.random(tri(n)) < 0.4)


def corrupted(quote, rng):
    """The quote plus variants whose pushes, hedge, obstacle or regions are wrong."""
    own_eq, own_bar = (("region_sigma", "region_bar_sigma") if quote.view.side == "hedger"
                       else ("region_tau", "region_bar_tau"))
    du = quote.solution.dU.flat.copy()
    du[0] += 0.5
    z = quote.solution.Z.flat.copy()
    z[0] += 0.05
    y = quote.solution.Y.flat
    tight = y + 1e-12 * (1.0 + np.abs(y))  # on the value at interior nodes only
    n = quote.solution.Y.n_steps
    tight[tri(n):] = quote.inputs.upper.row(n)
    # the tie must stay inside the corrupted band; the verifiers rebuild their game, so
    # the stored tie they never read changes nothing they report
    upper_on_value = replace(quote.inputs, upper=NodeProcess(tight),
                             tie=NodeProcess(np.minimum(quote.inputs.tie.flat, tight)))
    return {
        "clean": quote,
        "push_at_root": replace(quote, solution=replace(quote.solution, dU=NodeProcess(du))),
        "hedge_off": replace(quote, solution=replace(quote.solution, Z=NodeProcess(z))),
        "upper_on_value": replace(quote, inputs=upper_on_value),
        "own_push_at_root": replace(quote, **{own_bar: (tri(0, 0),)}),
        "no_own_region": replace(quote, **{own_eq: ()}),
        "no_regions": replace(quote, region_sigma=(), region_tau=()),
        "random_regions": replace(quote, **{
            name: random_region(rng, quote.solution.Y.n_steps)
            for name in ("region_sigma", "region_tau", "region_bar_sigma", "region_bar_tau")
        }),
    }


# instance draws on which each comparison in the battery decides some rule's fate
INSTANCE_SEEDS = (3, 5, 6, 24)


def test_battery_matches_rule_by_rule_reference():
    seen = set()
    for seed in INSTANCE_SEEDS:
        rng = np.random.default_rng(seed)
        lat, gen, contract, views = random_instance(rng, 3, 2)
        for side in ("hedger", "counterparty"):
            view = views[side]
            quote = acceptable_price(contract, view, gen, lat)
            for name, variant in corrupted(quote, rng).items():
                report = stopping_time_battery(variant)
                want = reference_counterexamples(variant, contract, view, gen, lat)
                got = {key: getattr(report, key) for key in want}
                assert got == want, (seed, side, name)
                seen.update(kind for kind in KINDS if got[kind])
    assert seen == set(KINDS)


def test_battery_judges_at_the_quote_tolerance():
    # a loose region tolerance widens the regions and every equality the battery judges
    differs = 0
    for seed in INSTANCE_SEEDS:
        lat, gen, contract, views = random_instance(np.random.default_rng(seed), 3, 2)
        for view in views.values():
            loose = acceptable_price(contract, view, gen, lat, region_tol=0.1)
            report = stopping_time_battery(loose)
            want = reference_counterexamples(loose, contract, view, gen, lat, eq_tol=0.1)
            assert {key: getattr(report, key) for key in want} == want, (seed, view.side)
            differs += report != stopping_time_battery(acceptable_price(contract, view, gen, lat))
    assert differs


def shifted_first_hits(idx):
    """The battery's first stop per rule id and path, one shift per rule, path and step."""
    m = tri(idx.shape[-1] - 1)
    ids = np.arange(1 << m)[:, None, None]
    return np.argmax((idx >= m) | (((ids >> idx) & 1) == 1), axis=-1)


def test_first_hits_by_lowest_set_bit_match_the_shift_formulation():
    for n in range(6):
        idx = _node_idx(path_up_counts(path_moves(np.arange(1 << n), n)))
        got = _hits(None, idx)
        assert got.shape == (rule_count(n), 1 << n)
        for paths in np.array_split(np.arange(1 << n), 4):  # bounds the reference's temporary
            assert np.array_equal(got[:, paths], shifted_first_hits(idx[paths])), n
