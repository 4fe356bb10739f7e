"""Pinned errors for a value that overflows inside the backward recursion.

Every input below is finite, but one step of the recursion is not: at the
root, the hedge slope times spot is about 1e308, so the implicit step's
iterate overflows to +-inf (a builtin's cash y - z*s overflows, a custom
generator's drift pushes y past the float range).  Every recursion must
raise ``NonFiniteInput("y must be finite")`` there, whether or not it
reports a residual; the projection into the obstacle band, or a stopping
rule, must never turn the infinite value into a finite root.
"""

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    ContractSpec,
    CustomGenerator,
    DifferentialRates,
    NodeProcess,
    NonFiniteInput,
    PartyView,
    StoppingRule,
    TimeGrid,
    acceptable_price,
    build_lattice,
    evaluate_stopped,
    side_obstacles,
    snell_sup_for_minimizer,
    solve_bsde,
)
from gamehedge.drbsde import backward_step
from gamehedge.dynkin import inf_values_by_maximizer_rule, sup_values_by_minimizer_rule
from gamehedge.pricing import sweep_prices

BIG = 1.797e308  # just below the largest double

# one step, ds = 20 at the root: hedger terminal values 1.75e308 (down) and
# 1.55e308 (up) give z*s = -1e308 against an expectation of 1.65e308
LAT = build_lattice(100.0, 1.1, 0.9, TimeGrid(horizon=1.0, n_steps=1))
CONTRACT = ContractSpec(
    Xh=NodeProcess.from_rows([[-BIG], [-BIG, -1.6e308]]),
    Xc=NodeProcess.from_rows([[0.0], [-1.75e308, -1.55e308]]),
    Xbar=NodeProcess.from_rows([[-1e308], [-1.75e308, -1.55e308]]),
    dA=NodeProcess.zeros(1),
)
VIEWS = [PartyView(side, 0.0, BenchmarkAccount(0.0, 0.0)) for side in ("hedger", "counterparty")]

# v = rhs + 0.5*v*dt doubles the root's expectation, past the float range
DOUBLING = CustomGenerator(fn=lambda t, y, z, s: 0.5 * y, lipschitz_y=0.5, lipschitz_z=0.0)
# the ids name the two-rate, one-rate and custom cases as they were first pinned
GENERATORS = [DifferentialRates(0.02, 0.05), DifferentialRates(0.05, 0.05), DOUBLING]
GEN_IDS = ["DifferentialRates", "LinearRate", "CustomGenerator"]


@pytest.fixture(autouse=True)
def quiet_overflow():
    # the overflow is the point; numpy's warning about it is not
    with np.errstate(over="ignore", invalid="ignore"):
        yield


def raises_y_not_finite():
    return pytest.raises(NonFiniteInput, match=r"\Ay must be finite\Z")


@pytest.mark.parametrize("view", VIEWS, ids=lambda v: v.side)
@pytest.mark.parametrize("gen", GENERATORS, ids=GEN_IDS)
def test_reflected_solve_raises_on_an_overflowing_step(gen, view):
    with raises_y_not_finite():
        acceptable_price(CONTRACT, view, gen, LAT)


@pytest.mark.parametrize("views", [VIEWS[:1], VIEWS[1:], VIEWS], ids=["hedger", "cp", "both"])
def test_sweep_raises_on_an_overflowing_step(views):
    with raises_y_not_finite():
        sweep_prices(CONTRACT, views,
                     [DifferentialRates(0.02, 0.05), DifferentialRates(0.0, 0.05)], LAT)
    with raises_y_not_finite():
        sweep_prices(CONTRACT, views, [DifferentialRates(0.05, 0.05)], LAT)


@pytest.mark.parametrize("view", VIEWS, ids=lambda v: v.side)
@pytest.mark.parametrize("gen", GENERATORS, ids=GEN_IDS)
def test_unreflected_solve_raises_on_an_overflowing_step(gen, view):
    inputs = side_obstacles(CONTRACT, view, gen, LAT)
    with raises_y_not_finite():
        solve_bsde(LAT, gen, inputs.tie.row(LAT.n_steps), inputs.cashflow_increments)


@pytest.mark.parametrize("view", VIEWS, ids=lambda v: v.side)
@pytest.mark.parametrize("gen", GENERATORS, ids=GEN_IDS)
def test_stopped_games_raise_on_an_overflowing_step(gen, view):
    game = side_obstacles(CONTRACT, view, gen, LAT)
    never = StoppingRule.never_early(1)
    with raises_y_not_finite():
        evaluate_stopped(game, never, never)
    with raises_y_not_finite():
        snell_sup_for_minimizer(game, never)


@pytest.mark.parametrize("view", VIEWS, ids=lambda v: v.side)
@pytest.mark.parametrize("gen", GENERATORS, ids=GEN_IDS)
def test_cone_engine_raises_on_an_overflowing_step(gen, view):
    # the oracle's per-rule dynamic programs, every rule of one player a column of the sweep
    game = side_obstacles(CONTRACT, view, gen, LAT)
    with raises_y_not_finite():
        sup_values_by_minimizer_rule(game)
    with raises_y_not_finite():
        inf_values_by_maximizer_rule(game)


@pytest.mark.parametrize("gen", GENERATORS, ids=GEN_IDS)
def test_backward_step_raises_on_an_overflowing_step(gen):
    y_next = np.array([1.75e308, 1.55e308])
    with raises_y_not_finite():
        backward_step(LAT, gen, 0, y_next, np.zeros(1))


@pytest.mark.parametrize("gen", GENERATORS, ids=GEN_IDS)
def test_backward_step_without_residual_raises_on_an_overflowing_step(gen):
    # the residual's generator evaluation is skipped, the check of the exit value is not
    y_next = np.array([1.75e308, 1.55e308])
    with raises_y_not_finite():
        backward_step(LAT, gen, 0, y_next, np.zeros(1), residual=False)
