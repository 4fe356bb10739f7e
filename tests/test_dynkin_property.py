"""Property test: the oracle's cone engine and the solver module's row sweep agree on every game."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamehedge import (  # noqa: E402
    evaluate_stopped,
    rule_count,
    rule_from_id,
    snell_sup_for_minimizer,
)
from gamehedge.dynkin import _pair_matrix, sup_values_by_minimizer_rule  # noqa: E402
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
