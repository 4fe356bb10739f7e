"""Bit pins for every backward recursion under a nonlinear custom generator.

``SMOOTH_CUSTOM``'s fixed-point solve needs several sweeps, and the sweep
count depends on the set of values the exit test sees at once, so these
digests also pin which entries each implicit solve handles together.  The
CLI cannot select a custom generator, so the golden artifacts do not cover
this.  The digests were recorded before the recursions shared one
backward step, over three contract draws chosen so that solving each
entry on its own changes the bits of every recursion on at least one side.
The per-rule programs' and the pair matrix's digests were re-recorded when
the oracle moved onto the row sweep: each of their columns is now the sweep
under its one rule (pair) bit for bit, where the former cone engine tested
each node's fixed point jointly over every rule it covered.
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
from gamehedge.dynkin import inf_values_by_maximizer_rule, sup_values_by_minimizer_rule
from conftest import SMOOTH_CUSTOM, pair_matrix, random_contract

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
        "pair_matrix": pair_matrix(game).tobytes(),
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
        "sup_by_minimizer_rule": "c2ec9d27b74529cd0df71eaaa4abeb0c1b45411a11200962903e7dcaf799e84f",
        "inf_by_maximizer_rule": "b6ca07644bcd79005c971e6fbd64f831bf9bd9d4c97e1b0db74513ccafb7df77",
        "snell_sup_for_minimizer":
            "cb7eef8c8ed181c84adfe2f3ef78a0bd16e3c1c537569eaa9324eb152284c4bd",
        "pair_matrix": "b81bf80d2d1e479eec00c9c0424fc9b485687d6bd30af781213e73c508602f28",
    },
    "counterparty": {
        "solve_bsde": "a20ae0485be1140faa878e4bc42a8ab49cbfd69950ecbccf2d87788bc1c15fed",
        "solve_drbsde": "8b8cc17ca3e5be52b5064f35703fdcffe03dd7dee5091cb754c7321e10c8c9e4",
        "evaluate_stopped": "63c56529da70c5c5b3e65cf66a8e0d1cf365077545f32af13f30fb909ef53822",
        "sup_by_minimizer_rule": "531d6240a67f25a80697e21799097a2febaf9ef955dea9b5d89acc7f8a500ce2",
        "inf_by_maximizer_rule": "7b990494ce3a70124505f24d82d8d1732bb6111a0eb0597647b14929aba72b3a",
        "snell_sup_for_minimizer":
            "42e902c94691ce1cc73c07d6b533ac74e4efa42c13ddc1d37700029904cc2b9b",
        "pair_matrix": "102b4d3ae0a68a3d6e6216d1f772929ac433f21f2072b410d8f76330cb2ae730",
    },
}


@pytest.mark.parametrize("side", ["hedger", "counterparty"])
def test_recursions_match_pinned_bits(side):
    assert recursion_digests(side) == PINS[side]
