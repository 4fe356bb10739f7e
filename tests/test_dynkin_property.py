"""Property tests: the oracle's cone engine agrees with the solver module's row sweep, and its
reduced pair route with the assembled pair matrix, on every game."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamehedge import (  # noqa: E402
    DrbsdeInputs,
    NodeProcess,
    TimeGrid,
    build_lattice,
    evaluate_stopped,
    rule_count,
    rule_from_id,
    snell_sup_for_minimizer,
)
from gamehedge import drbsde, dynkin  # noqa: E402
from gamehedge.drbsde import _pick  # noqa: E402
from gamehedge.dynkin import (  # noqa: E402
    _pair_extremes,
    _pair_matrix,
    inf_values_by_maximizer_rule,
    sup_values_by_minimizer_rule,
)
from gamehedge.lattice import node_coords, tri  # noqa: E402
from conftest import GAME_GENERATORS, game_instance  # noqa: E402


@st.composite
def stopped_games(draw):
    n = draw(st.integers(1, 3))
    gen = GAME_GENERATORS[draw(st.sampled_from(sorted(GAME_GENERATORS)))]
    side = draw(st.sampled_from(["hedger", "counterparty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = game_instance(rng, n, gen, side)
    sigma = draw(st.integers(0, rule_count(n) - 1))
    tau = draw(st.integers(0, rule_count(n) - 1))
    return game, sigma, tau


@settings(max_examples=40, deadline=None)
@given(game=stopped_games())
def test_pair_entry_equals_evaluate_stopped(game):
    game, sigma, tau = game
    n = game.lat.n_steps
    entry = float(_pair_matrix(game)[sigma, tau])
    value = evaluate_stopped(game, rule_from_id(n, sigma), rule_from_id(n, tau))
    assert abs(entry - value) <= 1e-12 * (1.0 + abs(value))
    # the per-rule dynamic program and the row sweep apply the same sup node rule
    sup = float(sup_values_by_minimizer_rule(game)[sigma])
    snell = snell_sup_for_minimizer(game, rule_from_id(n, sigma))
    assert abs(sup - snell) <= 1e-12 * (1.0 + abs(snell))


@st.composite
def pair_games(draw):
    name = draw(st.sampled_from(sorted(GAME_GENERATORS)))
    n = draw(st.integers(1, 3 if name == "custom" else 4))  # the custom generator is slow at N=4
    side = draw(st.sampled_from(["hedger", "counterparty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return game_instance(rng, n, GAME_GENERATORS[name], side)


def signed_zero_game(n, **root):
    """Zero generator, cash flow and tie rows between a lower -1 and an upper 1, but for the
    root's ``root`` payoffs.

    An upper 0.0 over a tie -0.0 makes each row maximum where the minimizer
    stops at the root a zero of both signs; a lower -0.0 under a tie 0.0 does
    the same for the column minima where the maximizer stops there.  The sign
    such a maximum takes depends on the order of the reduction.
    """
    rows = {"lower": -1.0, "upper": 1.0, "tie": 0.0}
    flat = {name: np.full(tri(n + 1), v) for name, v in rows.items()}
    for name, v in root.items():
        flat[name][0] = v
    return DrbsdeInputs(**{name: NodeProcess(f) for name, f in flat.items()},
                        cashflow_increments=NodeProcess.zeros(n), gen=GAME_GENERATORS["zero"],
                        lat=build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=n)))


@settings(max_examples=30, deadline=None)
@given(game=pair_games())
@example(game=signed_zero_game(4, upper=0.0, tie=-0.0))
@example(game=signed_zero_game(4, lower=-0.0, tie=0.0))
def test_reduced_pair_extremes_equal_the_pair_matrix_bytes(game):
    # the oracle reduces the root's slots instead of the assembled n_rules x n_rules table
    pairs = _pair_matrix(game)
    sup, inf = _pair_extremes(game)
    assert sup.tobytes() == pairs.max(axis=1).tobytes()
    assert inf.tobytes() == pairs.min(axis=0).tobytes()


def tie_on_a_bound_game(n, shift):
    """Zero generator and cash flow; at each node the tie equals the upper or the lower row
    as a zero of the other sign, (lower, upper, tie) cycling through four patterns along
    k + j + shift."""
    patterns = [(-1.0, 0.0, -0.0), (-1.0, -0.0, 0.0), (-0.0, 1.0, 0.0), (0.0, 1.0, -0.0)]
    ks, js = node_coords(n)
    rows = np.array(patterns)[(ks + js + shift) % 4]
    return DrbsdeInputs(**{name: NodeProcess(rows[:, i])
                           for i, name in enumerate(("lower", "upper", "tie"))},
                        cashflow_increments=NodeProcess.zeros(n), gen=GAME_GENERATORS["zero"],
                        lat=build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=n)))


def maximum_with_tie(lo, hi, tie, marks, cont):
    return _pick(marks[0], np.maximum(tie, hi), np.maximum(lo, cont))


def minimum_with_tie(lo, hi, tie, marks, cont):
    return _pick(marks[0], np.minimum(tie, lo), np.minimum(hi, cont))


def sup_and_inf_bytes(game):
    n = game.lat.n_steps
    snell = [snell_sup_for_minimizer(game, rule_from_id(n, i)) for i in range(rule_count(n))]
    return [sup_values_by_minimizer_rule(game).tobytes(),
            inf_values_by_maximizer_rule(game).tobytes(), np.array(snell).tobytes()]


@pytest.mark.parametrize("n, shift", itertools.product((1, 3), range(4)))
def test_sup_and_inf_rules_need_no_tie_operand(monkeypatch, n, shift):
    # where a player stops, the opponent may force the tie, but lower <= tie <= upper, and
    # numpy's maximum and minimum return the second operand on a tie of signed zeros
    game = tie_on_a_bound_game(n, shift)
    got = sup_and_inf_bytes(game)
    for module in (drbsde, dynkin):
        monkeypatch.setattr(module, "_sup_node", maximum_with_tie)
        monkeypatch.setattr(module, "_inf_node", minimum_with_tie)
    assert got == sup_and_inf_bytes(game)
