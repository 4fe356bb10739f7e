"""Property tests: the oracle's cone engine agrees with the solver module's row sweep, and its
reduced pair route with the assembled pair matrix, on every game."""

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
from gamehedge.dynkin import _pair_extremes, _pair_matrix, sup_values_by_minimizer_rule  # noqa: E402
from gamehedge.lattice import tri  # noqa: E402
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
