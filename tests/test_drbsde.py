"""Backward solvers: plain, doubly reflected, and rule-stopped evaluation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    ContractSpec,
    ContractionViolated,
    CustomGenerator,
    DifferentialRates,
    DrbsdeInputs,
    NodeProcess,
    NonConvergence,
    ObstacleOrderViolated,
    PartyView,
    StoppingRule,
    TerminalOutOfBand,
    TimeGrid,
    acceptable_price,
    build_lattice,
    builtin_israeli_put,
    evaluate_stopped,
    side_obstacles,
    snell_sup_for_minimizer,
    solve_bsde,
    solve_drbsde,
)
from gamehedge.drbsde import _game_root, _inf_node
from gamehedge.dynkin import stopped_values_for_maximizer_rules
from gamehedge.errors import InvalidStoppingRule, OutOfRange
from gamehedge.lattice import tri
from gamehedge.pricing import sweep_prices
from conftest import SMOOTH_CUSTOM, grid_values, random_instance

# terminal row in up-count order: 20 at the down node (S=80), 0 at the up node
TERM_A = np.array([20.0, 0.0])


def put_inputs(lat, contract, view, gen):
    return side_obstacles(contract, view, gen, lat)


def test_bsde_one_step_values(one_step_lattice):
    y, z = solve_bsde(one_step_lattice, DifferentialRates(0.0, 0.0), TERM_A, NodeProcess.zeros(1))
    assert y.at(0, 0) == pytest.approx(10.0, abs=1e-14)
    assert z.at(0, 0) == pytest.approx(-0.5, abs=1e-14)  # (0-20)/(120-80)


def test_bsde_constant_terminal(one_step_lattice):
    y, z = solve_bsde(one_step_lattice, DifferentialRates(0.0, 0.0), np.array([3.0, 3.0]),
                      NodeProcess.zeros(1))
    assert y.at(0, 0) == 3.0
    assert z.at(0, 0) == 0.0


def test_bsde_linear_rate_closed_form():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=1))
    r = 0.08
    y, _ = solve_bsde(lat, DifferentialRates(r, r), np.array([3.0, 3.0]), NodeProcess.zeros(1))
    # constant terminal c solves y = c - r*y*dt (z = 0), so y = c/(1 + r*dt)
    assert y.at(0, 0) == pytest.approx(3.0 / (1.0 + r * 1.0), abs=1e-12)


def test_bsde_linear_rate_multi_step_discounting():
    n, r = 8, 0.05
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=n))
    y, _ = solve_bsde(lat, DifferentialRates(r, r), np.full(n + 1, 7.0), NodeProcess.zeros(n))
    assert y.at(0, 0) == pytest.approx(7.0 / (1.0 + r / n) ** n, rel=1e-12)


def test_drbsde_one_step_put(one_step_lattice, one_step_put, hedger_view):
    inputs = put_inputs(one_step_lattice, one_step_put, hedger_view, DifferentialRates(0.0, 0.0))
    sol = solve_drbsde(inputs)
    assert sol.Y.at(0, 0) == pytest.approx(5.0, abs=1e-14)
    assert sol.Z.at(0, 0) == pytest.approx(-0.5, abs=1e-14)
    assert sol.dU.at(0, 0) == pytest.approx(5.0, abs=1e-14)
    assert sol.dL.at(0, 0) == 0.0
    assert sol.residual_max <= 1e-12


def test_drbsde_slack_obstacles_match_plain_bsde(one_step_lattice):
    cash = NodeProcess.zeros(1)
    y_plain, z_plain = solve_bsde(one_step_lattice, DifferentialRates(0.0, 0.0), TERM_A, cash)
    inputs = DrbsdeInputs(
        lower=NodeProcess.constant(1, -1e6),
        upper=NodeProcess.constant(1, 1e6),
        tie=NodeProcess.from_rows([np.zeros(1), TERM_A]),
        cashflow_increments=cash,
        gen=DifferentialRates(0.0, 0.0),
        lat=one_step_lattice,
    )
    sol = solve_drbsde(inputs)
    assert sol.Y.at(0, 0) == y_plain.at(0, 0)
    assert sol.Z.at(0, 0) == z_plain.at(0, 0)
    assert all(sol.dL.at(k, j) == 0.0 for k in range(2) for j in range(k + 1))
    assert all(sol.dU.at(k, j) == 0.0 for k in range(2) for j in range(k + 1))


def test_equal_obstacles_rejected(one_step_lattice):
    with pytest.raises(ObstacleOrderViolated):
        DrbsdeInputs(
            lower=NodeProcess.constant(1, 2.0),
            upper=NodeProcess.from_rows([np.array([2.0]), np.array([3.0, 3.0])]),
            tie=NodeProcess.constant(1, 2.5),
            cashflow_increments=NodeProcess.zeros(1),
            gen=DifferentialRates(0.0, 0.0),
            lat=one_step_lattice,
        )


def test_terminal_band_enforced(one_step_lattice):
    with pytest.raises(TerminalOutOfBand):
        DrbsdeInputs(
            lower=NodeProcess.constant(1, 0.0),
            upper=NodeProcess.constant(1, 1.0),
            tie=NodeProcess.from_rows([np.array([0.5]), np.array([0.5, 2.0])]),
            cashflow_increments=NodeProcess.zeros(1),
            gen=DifferentialRates(0.0, 0.0),
            lat=one_step_lattice,
        )


def put_game(n, gen=DifferentialRates(0.0, 0.0), horizon=1.0):
    """An n-step put game for the hedger with a zero benchmark."""
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=horizon, n_steps=n))
    contract = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
    view = PartyView(side="hedger", endowment=0.0, acct=BenchmarkAccount(0.0, 0.0))
    return side_obstacles(contract, view, gen, lat)


def test_contraction_refused():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=1))
    with pytest.raises(ContractionViolated):
        solve_bsde(lat, DifferentialRates(1.5, 1.5), TERM_A, NodeProcess.zeros(1))
    # dt = 2 with rate 0.6: the game refuses the grid when built, so no game recursion steps
    with pytest.raises(ContractionViolated):
        put_game(2, DifferentialRates(0.6, 0.6), horizon=4.0)


def test_nonconvergence_on_understated_bound():
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=1))
    # true slope in y is 10 but the declaration claims 0.5, so the Picard
    # iteration diverges and the solver must say so rather than loop forever
    lying = CustomGenerator(fn=lambda t, y, z, s: 10.0 * y, lipschitz_y=0.5, lipschitz_z=0.0)
    with pytest.raises(NonConvergence):
        solve_bsde(lat, lying, TERM_A, NodeProcess.zeros(1))


def test_custom_generator_agrees_with_builtin():
    n = 4
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=n))
    r = 0.06
    custom = CustomGenerator(
        fn=lambda t, y, z, s: -r * (y - z * s), lipschitz_y=r, lipschitz_z=r
    )
    term = np.linspace(-5.0, 12.0, n + 1)
    cash = NodeProcess.zeros(n)
    y_custom, _ = solve_bsde(lat, custom, term, cash)
    y_builtin, _ = solve_bsde(lat, DifferentialRates(r, r), term, cash)
    assert y_custom.at(0, 0) == pytest.approx(y_builtin.at(0, 0), abs=1e-11)


def test_structural_invariants_random(rng):
    from gamehedge import side_obstacles

    for _ in range(30):
        lat, gen, contract, views = random_instance(rng, 8)
        for side in ("hedger", "counterparty"):
            inputs = side_obstacles(contract, views[side], gen, lat)
            sol = solve_drbsde(inputs)
            assert sol.residual_max <= 1e-12
            for k in range(lat.n_steps + 1):
                y = sol.Y.row(k)
                lo, hi = inputs.lower.row(k), inputs.upper.row(k)
                dl, du = sol.dL.row(k), sol.dU.row(k)
                assert (lo <= y).all() and (y <= hi).all()
                assert (dl >= 0).all() and (du >= 0).all()
                assert (dl * du == 0.0).all()
                assert (y[dl > 0] == lo[dl > 0]).all()
                assert (y[du > 0] == hi[du > 0]).all()
                # no node may press both obstacles at once
                assert not np.any((y == lo) & (y == hi))


def test_scheme_monotone_in_continuation(rng):
    # raising either successor value never lowers the node value
    for _ in range(10):
        lat, gen, contract, views = random_instance(rng, 6)
        inputs = side_obstacles_for(lat, gen, contract, views)
        sol = solve_drbsde(inputs)
        n = lat.n_steps
        k = int(rng.integers(0, n))
        j = int(rng.integers(0, k + 1))
        base = solve_from_row(inputs, sol.Y.row(k + 1).copy(), k)
        for which in (0, 1):
            bumped_row = sol.Y.row(k + 1).copy()
            bumped_row[j + which] += 1e-4
            bumped = solve_from_row(inputs, bumped_row, k)
            assert bumped[j] >= base[j] - 1e-12


def side_obstacles_for(lat, gen, contract, views):
    from gamehedge import side_obstacles

    return side_obstacles(contract, views["hedger"], gen, lat)


def solve_from_row(inputs, next_row, k):
    """One projected backward step from a supplied successor row."""
    from gamehedge.drbsde import backward_step

    v = backward_step(inputs.lat, inputs.gen, k, next_row, inputs.cashflow_increments.row(k))[0]
    return np.minimum(inputs.upper.row(k), np.maximum(inputs.lower.row(k), v))


def test_backward_step_batches_rows_and_nodes(rng):
    # a row step tests and freezes each column on its own, so a column's values
    # do not depend on the columns beside it, even under the custom generator
    # whose columns converge after different numbers of iterations; node steps
    # test jointly, and agree with rows for the builtins, which start the
    # implicit solve at its exact solution
    from gamehedge.drbsde import backward_step

    custom_spreads = []
    for _ in range(10):
        lat, builtin, contract, _ = random_instance(rng, 6)
        k = int(rng.integers(0, lat.n_steps))
        cash = contract.dA.row(k)
        batch = grid_values(rng, (k + 2, 3))
        for gen in (builtin, SMOOTH_CUSTOM):
            cont, z, res, its = backward_step(lat, gen, k, batch, cash)
            assert cont.shape == z.shape == (k + 1, 3)
            solo = []
            for b in range(3):
                cont_b, z_b, res_b, its_b = backward_step(lat, gen, k, batch[:, b], cash)
                assert cont[:, b].tobytes() == cont_b.tobytes()
                assert z[:, b].tobytes() == z_b.tobytes()
                solo.append((res_b, its_b))
                for j in range(k + 1 if gen is builtin else 0):
                    cont_j, z_j, _, _ = backward_step(lat, gen, k, batch[j:j + 2, b], cash[j], j)
                    assert (cont_j, z_j) == (cont_b[j], z_b[j])
            assert (res, its) == (max(r for r, _ in solo), max(i for _, i in solo))
            if gen is SMOOTH_CUSTOM:
                custom_spreads.append(len({i for _, i in solo}))
    assert max(custom_spreads) > 1  # some custom row mixed columns of different iteration counts


def test_backward_step_without_residual_keeps_the_step(rng):
    # skipping the residual changes neither the step's values nor its iteration count
    from gamehedge.drbsde import backward_step

    for _ in range(10):
        lat, builtin, contract, _ = random_instance(rng, 6)
        k = int(rng.integers(0, lat.n_steps))
        cash = contract.dA.row(k)
        batch = grid_values(rng, (k + 2, 3))
        for gen in (builtin, SMOOTH_CUSTOM):
            for j, y_next, c in ((None, batch, cash), (0, batch[:2], cash[0])):
                cont, z, res, its = backward_step(lat, gen, k, y_next, c, j)
                got = backward_step(lat, gen, k, y_next, c, j, residual=False)
                assert isinstance(res, float) and got[2] is None and got[3] == its
                assert got[0].tobytes() == cont.tobytes() and got[1].tobytes() == z.tobytes()


def test_backward_step_takes_node_data_with_a_batch_axis(rng):
    # two sides' rows step as one batch, each side with its own cash row: every
    # (side, column) entry equals the step of that side and that column alone
    from gamehedge.drbsde import backward_step

    for _ in range(10):
        lat, builtin, contract, _ = random_instance(rng, 6)
        k = int(rng.integers(0, lat.n_steps))
        cash = np.stack([contract.dA.row(k), grid_values(rng, k + 1)], axis=1)
        y_next = grid_values(rng, (k + 2, 2, 3))
        for gen in (builtin, SMOOTH_CUSTOM):
            cont, z, res, its = backward_step(lat, gen, k, y_next, cash)
            assert cont.shape == z.shape == (k + 1, 2, 3)
            solo = []
            for side in range(2):
                cont_s, z_s, res_s, its_s = backward_step(lat, gen, k, y_next[:, side],
                                                          cash[:, side])
                assert cont[:, side].tobytes() == cont_s.tobytes()
                assert z[:, side].tobytes() == z_s.tobytes()
                per_column = []
                for b in range(3):
                    cont_b, z_b, res_b, its_b = backward_step(lat, gen, k, y_next[:, side, b],
                                                              cash[:, side])
                    assert cont[:, side, b].tobytes() == cont_b.tobytes()
                    assert z[:, side, b].tobytes() == z_b.tobytes()
                    per_column.append((res_b, its_b))
                assert (res_s, its_s) == tuple(map(max, zip(*per_column)))
                solo += per_column
            assert (res, its) == tuple(map(max, zip(*solo)))


def test_step_never_writes_into_its_inputs(rng):
    # the step builds its arithmetic in place, in its own fresh arrays only: every
    # input here is read-only, a frozen array or a zero-stride broadcast view, so a
    # write such as `rhs += ...` raises, and no input's bytes may change
    from gamehedge.drbsde import _implicit_row, backward_step
    from gamehedge.generators import _stack_generators, eval_g, implicit_start

    def frozen(shape):
        a = grid_values(rng, shape)
        a.flags.writeable = False
        return a

    lat, _, contract, _ = random_instance(rng, 6, 6)
    k, dt = 3, lat.dt
    t, s_row, cash = k * dt, lat.spot.row(k), contract.dA.row(k)
    stacked = _stack_generators([DifferentialRates(0.0, 0.05), DifferentialRates(0.02, 0.1),
                                 DifferentialRates(0.03, 0.03)])
    for rates in (stacked.r_lend, stacked.r_borrow):
        rates.flags.writeable = False
    gens = (DifferentialRates(0.02, 0.1), SMOOTH_CUSTOM)

    # (generator, rhs or y, z, s, exit-test axis): a row with batch columns, a node with
    # 2-D cone tables, and scalars beside arrays
    point_cases = [(stacked, frozen((k + 1, 3)), np.broadcast_to(frozen((k + 1, 1)), (k + 1, 3)),
                    s_row[:, None], 0)]
    point_cases += [(gen, frozen((4, 8)), np.broadcast_to(frozen(8), (4, 8)), s_row[1], None)
                    for gen in gens]
    point_cases += [(gen, rhs, z, s, None) for gen in gens for rhs, z, s in (
        (frozen(5), 0.25, 100.0), (2.5, frozen(5), 100.0),
        (np.broadcast_to(-1.5, (5,)), -0.25, np.broadcast_to(90.0, (5,))))]
    for gen, rhs, z, s, axis in point_cases:
        inputs = [a for a in (rhs, z, s) if isinstance(a, np.ndarray)]
        before = [a.tobytes() for a in inputs]
        implicit_start(gen, t, rhs, z, s, dt)
        eval_g(gen, t, rhs, z, s)
        for residual in (True, False):
            _implicit_row(gen, t, rhs, z, s, dt, axis, residual)
        assert [a.tobytes() for a in inputs] == before

    # (generator, y_next, cash, node): rows with batch columns (one per stacked generator,
    # then one per side and column), a node's two cone tables, and a 1-D row and node
    step_cases = [(stacked, frozen((k + 2, 3)), cash, None),
                  (stacked, np.broadcast_to(frozen((k + 2, 1)), (k + 2, 3)), cash, None)]
    sides_cash = np.stack([cash, cash], axis=1)
    sides_cash.flags.writeable = False
    step_cases += [(gen, frozen((k + 2, 2, 3)), sides_cash, None) for gen in gens]
    step_cases += [(gen, [frozen((4, 8)), np.broadcast_to(frozen((4, 1)), (4, 8))], cash[1], 1)
                   for gen in gens]
    step_cases += [(gen, frozen(k + 2), cash, None) for gen in gens]
    step_cases += [(gen, frozen(k + 2), cash[2], 2) for gen in gens]
    for gen, y_next, c, j in step_cases:
        children = y_next if isinstance(y_next, list) else [y_next]
        inputs = [a for a in (*children, c) if isinstance(a, np.ndarray)]
        before = [a.tobytes() for a in inputs]
        for residual in (True, False):
            backward_step(lat, gen, k, y_next, c, j, residual)
        assert [a.tobytes() for a in inputs] == before


def test_comparison_bump_increases_root(rng):
    for _ in range(10):
        lat, gen, contract, views = random_instance(rng, 6)
        n = lat.n_steps
        cash = NodeProcess.zeros(n)
        term = np.asarray(grid_terminal(rng, n))
        y, _ = solve_bsde(lat, gen, term, cash)
        j = int(rng.integers(0, n + 1))
        bumped = term.copy()
        bumped[j] += 1e-4
        y2, _ = solve_bsde(lat, gen, bumped, cash)
        assert y2.at(0, 0) > y.at(0, 0)
        assert y2.at(0, 0) - y.at(0, 0) >= 1e-12


def grid_terminal(rng, n):
    return 0.25 * rng.integers(-40, 41, size=n + 1)


def test_forward_backward_consistency_unreflected(rng):
    from gamehedge import eval_g, path_moves, path_up_counts

    for _ in range(10):
        lat, gen, contract, views = random_instance(rng, 6)
        n, dt = lat.n_steps, lat.dt
        cash = contract.dA
        term = np.asarray(grid_terminal(rng, n))
        y, z = solve_bsde(lat, gen, term, cash)
        for pid in range(min(1 << n, 16)):
            js = path_up_counts(path_moves(pid, n))
            for k in range(n):
                jk, jn = int(js[k]), int(js[k + 1])
                yk, zk, sk = y.at(k, jk), z.at(k, jk), lat.spot.at(k, jk)
                step = (
                    yk
                    - eval_g(gen, k * dt, yk, zk, sk) * dt
                    + zk * (lat.spot.at(k + 1, jn) - sk)
                    + cash.at(k, jk)
                )
                assert step == pytest.approx(y.at(k + 1, jn), abs=1e-10)


def test_evaluate_stopped_instance_values():
    game = put_game(1)
    root = StoppingRule.from_nodes(1, [tri(0, 0)])
    never = StoppingRule.never_early(1)
    # minimizer stops first at the root: upper payoff 5
    assert evaluate_stopped(game, root, never) == pytest.approx(5.0)
    # simultaneous stop at the root: tie payoff (100-100)^+ = 0
    assert evaluate_stopped(game, root, root) == pytest.approx(0.0)
    # nobody stops early: plain expectation of the terminal row
    assert evaluate_stopped(game, never, never) == pytest.approx(10.0)


def test_evaluate_stopped_rejects_bad_rule():
    with pytest.raises(InvalidStoppingRule):
        evaluate_stopped(put_game(1), StoppingRule.never_early(2), StoppingRule.never_early(1))
    # every game recursion names the rule whose step count disagrees with the lattice
    game, never = put_game(2), StoppingRule.never_early(2)
    for part, call in (
        ("sigma", lambda: snell_sup_for_minimizer(game, StoppingRule.never_early(3))),
        ("tau", lambda: evaluate_stopped(game, never, StoppingRule.never_early(3))),
        ("sigma", lambda: stopped_values_for_maximizer_rules(game, StoppingRule.never_early(3))),
        ("sigma", lambda: stopped_values_for_maximizer_rules(
            game, StoppingRule.from_nodes(3, [5]))),
    ):
        with pytest.raises(InvalidStoppingRule, match=f"^{part} has 3 steps, lattice has 2$"):
            call()
    # a game names its own part whose step count disagrees with its lattice when built
    game_3 = put_game(3)
    for part in ("lower", "upper", "tie", "cashflow_increments"):
        with pytest.raises(OutOfRange, match=f"^{part} has 3 steps, lattice has 2$"):
            replace(game, **{part: getattr(game_3, part)})


def test_first_hit_rejects_off_lattice_up_counts():
    rule = StoppingRule.never_early(2)
    assert rule.first_hit([0, 1, 1]) == 2
    for bad in ([0, 2, 2], [0, -1, 0], [0, 1]):  # j > k, j < 0, too short
        with pytest.raises(InvalidStoppingRule):
            rule.first_hit(bad)


def test_from_nodes_takes_flat_indices():
    n = 3
    for nodes in ([], (), np.array([], dtype=np.int64), [tri(1, 1), tri(2, 0)],
                  np.array([tri(0, 0), tri(3, 3)], dtype=np.uint8)):
        rule = StoppingRule.from_nodes(n, nodes)
        want = np.zeros(tri(n + 1), dtype=bool)
        want[tri(n):] = True
        want[np.asarray(nodes, dtype=np.int64)] = True
        assert rule.flat.tolist() == want.tolist()
    assert StoppingRule.from_nodes(n, []).flat.tolist() == StoppingRule.never_early(n).flat.tolist()
    for bad in ([-1], [tri(n + 1)], [0, 2, 99]):  # outside 0..tri(n + 1) - 1
        with pytest.raises(InvalidStoppingRule, match="outside"):
            StoppingRule.from_nodes(n, bad)
    # a (step, up_count) pair list is 2-D, never read as two flat indices
    for bad in ([(0, 0)], [(1, 0), (2, 1)], np.zeros((0, 2), dtype=np.int64), [[1]]):
        with pytest.raises(InvalidStoppingRule, match="1-D"):
            StoppingRule.from_nodes(n, bad)
    for bad in ([0.0, 1.0], np.array([True, False])):  # not integer indices
        with pytest.raises(InvalidStoppingRule, match="1-D"):
            StoppingRule.from_nodes(n, bad)


def test_unmarked_terminal_rejected():
    flat = np.array([False, True, False])  # rows [False], [True, False]
    with pytest.raises(InvalidStoppingRule):
        StoppingRule(flat)


def sigma_lattice(s0, n, sigma=0.2):
    u = math.exp(sigma * math.sqrt(1.0 / n))
    return build_lattice(s0, u, 1.0 / u, TimeGrid(horizon=1.0, n_steps=n))


def put_quote(s0, gen, side):
    lat = sigma_lattice(s0, 200)
    contract = builtin_israeli_put(lat, strike=s0, penalty=0.05 * s0)
    view = PartyView(side=side, endowment=0.0, acct=BenchmarkAccount(0.02, 0.10))
    return acceptable_price(contract, view, gen, lat)


@pytest.mark.parametrize("s0,gen", [
    (1e5, DifferentialRates(0.02, 0.10)),
    (1e4, DifferentialRates(0.02, 0.10)),
    (1e5, DifferentialRates(0.10, 0.10)),
])
@pytest.mark.parametrize("side", ["hedger", "counterparty"])
def test_large_prices_converge(s0, gen, side):
    # above |v| = 8192 one ulp exceeds the absolute 1e-12 exit tolerance; the
    # 1e5 two-rate hedger put used to raise NonConvergence at last change 1.82e-12
    quote = put_quote(s0, gen, side)
    base = put_quote(100.0, gen, side)
    assert quote.solution.iterations_max <= 2
    assert abs(quote.price - base.price * s0 / 100.0) <= 1e-12 * s0


def european_call(n):
    """An at-the-money call as a custom contract whose stop payoffs sit 1e3 away, so no
    stop binds, on its lattice."""
    lat = sigma_lattice(100.0, n)
    pay = -np.maximum(lat.spot.flat - 100.0, 0.0)
    contract = ContractSpec(Xh=NodeProcess(pay - 1e3), Xc=NodeProcess(pay + 1e3),
                            Xbar=NodeProcess(pay), dA=NodeProcess.zeros(n))
    return contract, lat


def call_view(side):
    return PartyView(side=side, endowment=0.0, acct=BenchmarkAccount(0.0, 0.0))


def european_call_quote(gen, side, n=2000):
    contract, lat = european_call(n)
    return acceptable_price(contract, call_view(side), gen, lat)


@pytest.mark.parametrize("side,rate", [("hedger", 0.10), ("counterparty", 0.02)])
def test_european_call_at_n2000_converges_under_two_rates(side, rate):
    # the top spot is about 7.7e5, where the absolute exit test could never pass
    quote = european_call_quote(DifferentialRates(0.02, 0.10), side)
    assert not (len(quote.region_sigma) or len(quote.region_tau))
    n = quote.inputs.lat.n_steps
    sol = quote.solution
    cash = (sol.Y.flat - sol.Z.flat * quote.inputs.lat.spot.flat)[:tri(n)]
    # one cash sign throughout: the hedger borrows, the counterparty lends,
    # so the two-rate solve is the one-rate solve at the rate that sign picks
    assert (cash <= 0.0).all() if side == "hedger" else (cash >= 0.0).all()
    one_rate = european_call_quote(DifferentialRates(rate, rate), side).price
    assert abs(quote.price - one_rate) <= 1e-12 * abs(one_rate)
    # and that one-rate solve is the binomial sum of the terminal row under
    # the rate-adjusted weight q_r, discounted by (1 + r*dt)^N
    lat = quote.inputs.lat
    q_r = (1.0 + rate * lat.dt - lat.d) / (lat.u - lat.d)
    log_w = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
             + j * math.log(q_r) + (n - j) * math.log1p(-q_r) - n * math.log1p(rate * lat.dt)
             for j in range(n + 1)]
    closed = math.fsum(math.exp(w) * x for w, x in zip(log_w, quote.inputs.tie.row(n)))
    assert abs(quote.y0 - closed) <= 1e-11 * abs(closed)


def black_scholes_call(rate, s0=100.0, strike=100.0, vol=0.2, horizon=1.0):
    d1 = (math.log(s0 / strike) + (rate + 0.5 * vol * vol) * horizon) / (vol * math.sqrt(horizon))
    d2 = d1 - vol * math.sqrt(horizon)
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    return s0 * cdf(d1) - strike * math.exp(-rate * horizon) * cdf(d2)


def test_two_rate_call_converges_to_black_scholes_at_first_order():
    # one cash sign per side (Bergman 1995): the hedger's call converges to Black-Scholes
    # at the borrowing rate, the counterparty's at the lending rate, with a gap N*(p - BS)
    # that settles on a constant, so Richardson's 2p(2N) - p(N) cancels it
    sizes = (250, 500, 1000, 2000)
    prices = []
    for n in sizes:
        contract, lat = european_call(n)
        views = [call_view("hedger"), call_view("counterparty")]
        prices.append(sweep_prices(contract, views, [DifferentialRates(0.02, 0.10)], lat)[:, 0])
    for side, rate, band in ((0, 0.10, (-2.39, -2.38)), (1, 0.02, (-1.995, -1.985))):
        bs = black_scholes_call(rate)
        for n, p in zip(sizes, prices):
            assert band[0] <= n * (p[side] - bs) <= band[1], (side, n)
        rich = [abs(2.0 * fine[side] - coarse[side] - bs)
                for coarse, fine in zip(prices, prices[1:])]
        assert rich[0] >= 3.0 * rich[1] and rich[1] >= 3.0 * rich[2], (side, rich)
        assert rich[2] <= 3e-7, (side, rich)


@pytest.mark.parametrize("penalty", [5.0, 12.0])
@pytest.mark.parametrize("side", ["hedger", "counterparty"])
def test_first_push_rules_are_an_exact_saddle_point(side, penalty):
    # Dynkin game and doubly reflected solve (Dumitrescu, Quenez and Sulem): the
    # first-push rules are optimal for both players, so at pricing scale each
    # one-sided root under them equals y0 bit for bit, where the tolerance-based
    # equality-set rules drift with N
    lat = sigma_lattice(100.0, 200)
    gen = DifferentialRates(0.02, 0.10)
    contract = builtin_israeli_put(lat, strike=100.0, penalty=penalty)
    view = PartyView(side=side, endowment=0.0, acct=BenchmarkAccount(0.02, 0.10))
    quote = acceptable_price(contract, view, gen, lat)
    pushes = (quote.region_bar_sigma, quote.region_bar_tau)
    if side == "counterparty":  # its own exercise takes the minimizer seat
        pushes = pushes[::-1]
    sigma, tau = (StoppingRule.from_nodes(200, nodes) for nodes in pushes)
    game = side_obstacles(contract, view, gen, lat)
    assert evaluate_stopped(game, sigma, tau) == quote.y0
    assert snell_sup_for_minimizer(game, sigma) == quote.y0
    assert _game_root(game, _inf_node, tau=tau) == quote.y0


def american_put_two_rate(lat, strike, rate):
    """CRR induction for the American put with one-signed cash funded at ``rate``.

    One step solves v = e - r*(v - z*s)*dt for v, with z*s = (v_up - v_dn)/(u - d),
    written here from that equation, not from the solver.
    """
    n, dt, u, d = lat.n_steps, lat.dt, lat.u, lat.d
    q = (1.0 - d) / (u - d)
    v = np.maximum(strike - lat.spot.row(n), 0.0)
    for k in range(n - 1, -1, -1):
        e = q * v[1:] + (1.0 - q) * v[:-1]
        cont = (e + rate * dt * (v[1:] - v[:-1]) / (u - d)) / (1.0 + rate * dt)
        v = np.maximum(strike - lat.spot.row(k), cont)
    return float(v[0])


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("side,rate,sign", [("hedger", 0.02, 1.0), ("counterparty", 0.10, -1.0)])
def test_two_rate_put_degenerates_to_american_at_one_rate(n, side, rate, sign):
    # check 2 under two rates: with the penalty at the strike no one cancels, and the
    # cash Y - Z*S keeps one sign before maturity (the hedger lends, the counterparty
    # borrows), so each price is the one-rate American put at that side's rate
    lat = sigma_lattice(100.0, n)
    contract = builtin_israeli_put(lat, strike=100.0, penalty=100.0)
    view = PartyView(side=side, endowment=0.0, acct=BenchmarkAccount(0.0, 0.0))
    quote = acceptable_price(contract, view, DifferentialRates(0.02, 0.10), lat)
    m = tri(n)
    cash = quote.solution.Y.flat[:m] - quote.solution.Z.flat[:m] * lat.spot.flat[:m]
    assert (sign * cash >= 0.0).all(), (side, float(np.min(sign * cash)))
    gap = abs(quote.price - american_put_two_rate(lat, 100.0, rate))
    assert gap <= 5e-12, (side, n, gap)
