"""Funding drivers: values, Lipschitz declarations, contraction gate."""

import math

import numpy as np
import pytest

import gamehedge.drbsde
from gamehedge import (
    BenchmarkAccount,
    CustomGenerator,
    DifferentialRates,
    InvalidParameters,
    NonFiniteInput,
    OutOfRange,
    PartyView,
    TimeGrid,
    acceptable_price,
    build_lattice,
    builtin_game_bond,
    builtin_israeli_put,
    contraction_ok,
    eval_g,
)
from gamehedge.generators import _check_finite, implicit_start


def test_zero_generator():
    gen = DifferentialRates(0.0, 0.0)
    assert eval_g(gen, 0.3, 5.0, -0.5, 100.0) == 0.0
    assert gen.lipschitz_y == 0.0 and gen.lipschitz_z == 0.0


def test_differential_rates_value():
    gen = DifferentialRates(0.02, 0.10)
    # cash = y - z*s = 5 + 50 = 55 is positive, so it earns the lending rate
    assert eval_g(gen, 0.0, 5.0, -0.5, 100.0) == pytest.approx(-1.1)
    # negative cash pays the borrowing rate
    assert eval_g(gen, 0.0, -5.0, 0.5, 100.0) == pytest.approx(0.10 * 55.0)


# The one-rate and flat generators had their own arithmetic before both became
# the two-rate generator with equal rates.  Kept literally, it checks that
# whole solves under equal rates did not change bit for bit.
def one_rate_eval_g(gen, t, y, z, s):
    for name, value in (("t", t), ("y", y), ("z", z), ("s", s)):
        _check_finite(name, value)
    r = gen.r_lend
    if r == 0.0:
        if any(isinstance(v, np.ndarray) for v in (y, z, s)):
            return np.zeros(np.broadcast(y, z, s).shape)
        return 0.0
    return -r * (y - z * s)


def one_rate_implicit_start(gen, t, rhs, z, s, dt):
    r = gen.r_lend
    if r == 0.0:
        return rhs if isinstance(rhs, np.ndarray) else float(rhs)
    return (rhs + r * z * s * dt) / (1.0 + r * dt)


def reference_quotes():
    """(lattice, generator, contract, views): the sigma put and the game bond per size and rate."""
    for n in (9, 200):
        u = math.exp(0.2 * math.sqrt(1.0 / n))
        lat = build_lattice(100.0, u, 1.0 / u, TimeGrid(horizon=1.0, n_steps=n))
        put = builtin_israeli_put(lat, strike=100.0, penalty=5.0)
        bond = builtin_game_bond(lat, face=100.0, coupon=1.5, call_penalty=2.0, put_discount=3.0)
        for rate in (0.0, 0.05, 0.1):
            acct = BenchmarkAccount(rate, rate)
            for contract, endowments in ((put, (0.0, 0.0)), (bond, (1.0, -2.5))):
                views = [PartyView(side, x, acct)
                         for side, x in zip(("hedger", "counterparty"), endowments)]
                yield lat, DifferentialRates(rate, rate), contract, views


def quote_bits(quote):
    sol = quote.solution
    return ([p.flat.tobytes() for p in (sol.Y, sol.Z, sol.dL, sol.dU)]
            + [r.tobytes() for r in (quote.region_sigma, quote.region_tau,
                                     quote.region_bar_sigma, quote.region_bar_tau)]
            + [quote.price.hex(), sol.iterations_max])


def test_equal_rates_solve_as_the_removed_one_rate_arithmetic(monkeypatch):
    cases = list(reference_quotes())

    def solve_all():
        return [quote_bits(acceptable_price(contract, view, gen, lat))
                for lat, gen, contract, views in cases for view in views]

    now = solve_all()
    monkeypatch.setattr(gamehedge.drbsde, "eval_g", one_rate_eval_g)
    monkeypatch.setattr(gamehedge.drbsde, "implicit_start", one_rate_implicit_start)
    before = solve_all()
    assert len(now) == 24
    for got, want in zip(now, before):
        assert got == want


def test_eval_g_vectorized_matches_scalar(rng):
    gen = DifferentialRates(0.02, 0.10)
    y = rng.uniform(-10, 10, size=7)
    z = rng.uniform(-2, 2, size=7)
    s = rng.uniform(50, 150, size=7)
    vec = eval_g(gen, 0.5, y, z, s)
    for i in range(7):
        assert vec[i] == eval_g(gen, 0.5, float(y[i]), float(z[i]), float(s[i]))


def test_lipschitz_declarations():
    gen = DifferentialRates(0.02, 0.10)
    assert gen.lipschitz_y == 0.10 and gen.lipschitz_z == 0.10
    assert DifferentialRates(0.05, 0.05).lipschitz_y == 0.05


def test_lipschitz_bounds_hold(rng):
    gen = DifferentialRates(0.02, 0.10)
    for _ in range(100):
        y1, y2 = rng.uniform(-20, 20, size=2)
        z1, z2 = rng.uniform(-2, 2, size=2)
        s = float(rng.uniform(1, 200))
        dy = abs(eval_g(gen, 0, y2, z1, s) - eval_g(gen, 0, y1, z1, s))
        assert dy <= gen.lipschitz_y * abs(y2 - y1) + 1e-12
        dz = abs(eval_g(gen, 0, y1, z2, s) - eval_g(gen, 0, y1, z1, s))
        assert dz <= gen.lipschitz_z * s * abs(z2 - z1) + 1e-12


def test_rate_validation():
    with pytest.raises(OutOfRange):
        DifferentialRates(-0.01, -0.01)
    with pytest.raises(OutOfRange):
        DifferentialRates(0.10, 0.02)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteInput):
        eval_g(DifferentialRates(0.0, 0.0), 0.0, float("nan"), 0.0, 1.0)
    gen = CustomGenerator(fn=lambda t, y, z, s: float("inf"), lipschitz_y=0.0, lipschitz_z=0.0)
    with pytest.raises(NonFiniteInput):
        eval_g(gen, 0.0, 1.0, 0.0, 1.0)


# the builtin scans only its output and names an input only when that scan fails,
# so the first non-finite input must still be the one named, wherever it sits
SCAN_GENERATORS = [DifferentialRates(0.02, 0.10), DifferentialRates(0.0, 0.0),
                   CustomGenerator(fn=lambda t, y, z, s: -0.03 * (y - z * s),
                                   lipschitz_y=0.03, lipschitz_z=0.03)]
INPUTS = ("t", "y", "z", "s")


@pytest.mark.parametrize("shape", [None, (3,)], ids=["scalars", "arrays"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("first", INPUTS)
@pytest.mark.parametrize("gen", SCAN_GENERATORS, ids=["two_rate", "zero", "custom"])
def test_first_non_finite_input_is_named(gen, first, bad, shape):
    args = {"t": 0.5, "y": 5.0, "z": 0.0, "s": 100.0}
    for name in INPUTS[INPUTS.index(first):]:  # this input and every one after it
        args[name] = bad
    if shape is not None:  # t stays a scalar; one entry of each array carries the value
        for name in ("y", "z", "s"):
            args[name] = np.array([1.0, args[name], 2.0])
    with pytest.raises(NonFiniteInput, match=rf"\A{first} must be finite\Z"):
        eval_g(gen, *args.values())


@pytest.mark.parametrize("gen", SCAN_GENERATORS[:2], ids=["two_rate", "zero"])
def test_overflow_from_finite_inputs_is_returned(gen):
    # cash y - z*s overflows to +inf: g is -inf, or nan at a zero rate, and nothing raises
    want = -math.inf if gen.r_lend else math.nan
    assert str(eval_g(gen, 0.5, 1e308, -1e308, 100.0)) == str(want)
    with np.errstate(over="ignore"):
        g = eval_g(gen, 0.5, np.array([1.0, 1e308]), np.array([0.0, -1e308]), 100.0)
    assert g[0] == -gen.r_lend * 1.0 and str(g[1]) == str(want)


def test_custom_generator_dispatch():
    gen = CustomGenerator(fn=lambda t, y, z, s: -0.03 * y, lipschitz_y=0.03, lipschitz_z=0.0)
    assert eval_g(gen, 0.0, 10.0, 0.0, 1.0) == pytest.approx(-0.3)
    out = eval_g(gen, 0.0, np.array([1.0, 2.0]), 0.0, 1.0)
    assert out.tolist() == pytest.approx([-0.03, -0.06])


def test_custom_generator_bad_bounds():
    with pytest.raises(OutOfRange):
        CustomGenerator(fn=lambda t, y, z, s: 0.0, lipschitz_y=-1.0, lipschitz_z=0.0)
    with pytest.raises(NonFiniteInput):
        CustomGenerator(fn=lambda t, y, z, s: 0.0, lipschitz_y=0.0, lipschitz_z=float("inf"))


def test_contraction_gate():
    assert contraction_ok(DifferentialRates(0.0, 0.0), 10.0)
    assert contraction_ok(DifferentialRates(0.02, 0.10), 1.0)  # 0.1 < 1
    assert not contraction_ok(DifferentialRates(0.0, 12.0), 0.1)  # 1.2 >= 1


def test_stacked_generators_match_each_column(rng):
    # column b of a stacked generator is gens[b] bit for bit, and its bounds cover every
    # column; flat, one-rate and two-rate columns stack alike
    from gamehedge.generators import _stack_generators

    y, z, s = (rng.uniform(lo, hi, size=(7, 1)) for lo, hi in ((-10, 10), (-2, 2), (50, 150)))
    for gens in ([DifferentialRates(r, r) for r in (0.03, 0.0, 0.07)],
                 [DifferentialRates(lend, borrow) for lend, borrow in ((0.0, 0.05), (0.02, 0.1),
                                                                       (0.01, 0.01))]):
        stacked = _stack_generators(gens)
        assert stacked.lipschitz_y == stacked.lipschitz_z == max(g.lipschitz_y for g in gens)
        g_all, v_all = eval_g(stacked, 0.5, y, z, s), implicit_start(stacked, 0.5, y, z, s, 0.25)
        assert g_all.shape == v_all.shape == (7, 3)
        for b, gen in enumerate(gens):
            assert g_all[:, b].tobytes() == eval_g(gen, 0.5, y[:, 0], z[:, 0], s[:, 0]).tobytes()
            v_b = implicit_start(gen, 0.5, y[:, 0], z[:, 0], s[:, 0], 0.25)
            assert v_all[:, b].tobytes() == v_b.tobytes()
    with pytest.raises(OutOfRange):
        DifferentialRates(np.array([0.0, 0.03]), np.array([0.05, 0.02]))
    with pytest.raises(NonFiniteInput):
        DifferentialRates(np.array([0.01, np.inf]), np.array([0.01, np.inf]))
    custom = CustomGenerator(fn=lambda t, y, z, s: 0.0, lipschitz_y=0.0, lipschitz_z=0.0)
    for gens in ([], [custom, custom], [DifferentialRates(0.0, 0.01), custom]):
        with pytest.raises(InvalidParameters):
            _stack_generators(gens)
