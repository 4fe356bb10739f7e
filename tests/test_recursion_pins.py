"""Bit pins for every backward recursion under a nonlinear custom generator.

``SMOOTH_CUSTOM``'s fixed-point solve needs several sweeps, and the sweep
count depends on the set of values the exit test sees at once, so these
digests also pin which entries each implicit solve handles together.  The
CLI cannot select a custom generator, so the golden artifacts do not cover
this.  The digests were recorded before the recursions shared one
backward step, over three contract draws chosen so that solving each
entry on its own changes the bits of every recursion on at least one side.
"""

import hashlib

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    PartyView,
    TimeGrid,
    build_lattice,
    evaluate_stopped,
    rule_from_id,
    side_obstacles,
    snell_sup_for_minimizer,
    solve_bsde,
    solve_drbsde,
)
from gamehedge.dynkin import (
    _pair_matrix,
    inf_values_by_maximizer_rule,
    sup_values_by_minimizer_rule,
)
from conftest import SMOOTH_CUSTOM, random_contract

N = 3
RULE_PAIRS = ((0, 0), (5, 18), (63, 1), (20, 41), (37, 37))
# contract draws on which a per-entry exit test changes the bits of every
# recursion on at least one side, so the pins see a changed exit-test set
CONTRACT_SEEDS = (2, 5, 22)


def node_bytes(proc):
    return np.concatenate([proc.row(k) for k in range(proc.n_steps + 1)]).tobytes()


def recursion_bytes(side, seed):
    """Raw output bytes of every recursion on one N=3 game, by recursion name."""
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=N))
    contract = random_contract(np.random.default_rng(seed), lat)
    view = PartyView(side=side, endowment=1.0, acct=BenchmarkAccount(0.02, 0.05))
    gen = SMOOTH_CUSTOM
    game = side_obstacles(contract, view, gen, lat)
    y, z = solve_bsde(lat, gen, game.tie.row(N), game.cashflow_increments)
    sol = solve_drbsde(game)
    rules = lambda rid: rule_from_id(N, rid)  # noqa: E731
    return {
        "solve_bsde": node_bytes(y) + node_bytes(z),
        "solve_drbsde": b"".join(node_bytes(p) for p in (sol.Y, sol.Z, sol.dL, sol.dU))
        + np.array([sol.residual_max, sol.iterations_max]).tobytes(),
        "evaluate_stopped": np.array([
            evaluate_stopped(game, rules(s), rules(t)) for s, t in RULE_PAIRS
        ]).tobytes(),
        "sup_by_minimizer_rule": sup_values_by_minimizer_rule(game).tobytes(),
        "inf_by_maximizer_rule": inf_values_by_maximizer_rule(game).tobytes(),
        "snell_sup_for_minimizer": np.array([
            snell_sup_for_minimizer(game, rules(s)) for s, _ in RULE_PAIRS
        ]).tobytes(),
        "pair_matrix": _pair_matrix(game).tobytes(),
    }


def recursion_digests(side):
    """sha256 per recursion over its bytes on every contract draw."""
    runs = [recursion_bytes(side, seed) for seed in CONTRACT_SEEDS]
    return {name: hashlib.sha256(b"".join(run[name] for run in runs)).hexdigest()
            for name in runs[0]}


PINS = {
    "hedger": {
        "solve_bsde": "6a387267d68fce021680841af354470245faab3291c5d14e56887113362e885f",
        "solve_drbsde": "ab11b686e2545dc2d2c7230675e4fd4b4ad6c7bdcb09f5f3e25ed2cfb05eeacc",
        "evaluate_stopped": "293fbfa368a857e0758be7e66a992daf760c15242d2f66de09ed58aadf014a77",
        "sup_by_minimizer_rule": "9cfe1cc391a71f06a09ce65f891ae635269d3778a0b938973824c8ffb7640ede",
        "inf_by_maximizer_rule": "b265c73ef1eedb3d2713e698e1da74933a91b3bb1d1fae7bc7c5e71f472c96d9",
        "snell_sup_for_minimizer":
            "cb7eef8c8ed181c84adfe2f3ef78a0bd16e3c1c537569eaa9324eb152284c4bd",
        "pair_matrix": "2786f12d352930e8fe0c5d4bced7d4e1b7823fb57cf3556cc8c439ffaf6a5a9b",
    },
    "counterparty": {
        "solve_bsde": "a20ae0485be1140faa878e4bc42a8ab49cbfd69950ecbccf2d87788bc1c15fed",
        "solve_drbsde": "8b8cc17ca3e5be52b5064f35703fdcffe03dd7dee5091cb754c7321e10c8c9e4",
        "evaluate_stopped": "63c56529da70c5c5b3e65cf66a8e0d1cf365077545f32af13f30fb909ef53822",
        "sup_by_minimizer_rule": "19a15b90e70e8e0e5416295f2d657f6b860cbb17009e3e73737f26aed906d900",
        "inf_by_maximizer_rule": "f72d5ecf1e38d325e085c2a717b40d7617c9f4de80335c8d405e5dd526e445da",
        "snell_sup_for_minimizer":
            "42e902c94691ce1cc73c07d6b533ac74e4efa42c13ddc1d37700029904cc2b9b",
        "pair_matrix": "4d3cebf140799ad8266065efd2017b5e7208706e812633bc181ff21d015aa9ac",
    },
}


@pytest.mark.parametrize("side", ["hedger", "counterparty"])
def test_recursions_match_pinned_bits(side):
    assert recursion_digests(side) == PINS[side]
