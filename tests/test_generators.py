"""Funding drivers: values, Lipschitz declarations, contraction gate."""

import numpy as np
import pytest

from gamehedge import (
    CustomGenerator,
    DifferentialRates,
    InvalidParameters,
    LinearRate,
    NonFiniteInput,
    OutOfRange,
    ZeroGenerator,
    contraction_ok,
    eval_g,
)


def test_zero_generator():
    gen = ZeroGenerator()
    assert eval_g(gen, 0.3, 5.0, -0.5, 100.0) == 0.0
    assert gen.lipschitz_y == 0.0 and gen.lipschitz_z == 0.0


def test_differential_rates_value():
    gen = DifferentialRates(0.02, 0.10)
    # cash = y - z*s = 5 + 50 = 55 is positive, so it earns the lending rate
    assert eval_g(gen, 0.0, 5.0, -0.5, 100.0) == pytest.approx(-1.1)
    # negative cash pays the borrowing rate
    assert eval_g(gen, 0.0, -5.0, 0.5, 100.0) == pytest.approx(0.10 * 55.0)


def test_differential_equals_linear_when_rates_match(rng):
    lin = LinearRate(0.07)
    diff = DifferentialRates(0.07, 0.07)
    for _ in range(50):
        y, z = rng.uniform(-20, 20, size=2)
        s = rng.uniform(1, 200)
        assert eval_g(diff, 0.1, y, z, s) == pytest.approx(eval_g(lin, 0.1, y, z, s), abs=1e-14)


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
    assert LinearRate(0.05).lipschitz_y == 0.05


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
        LinearRate(-0.01)
    with pytest.raises(OutOfRange):
        DifferentialRates(0.10, 0.02)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteInput):
        eval_g(ZeroGenerator(), 0.0, float("nan"), 0.0, 1.0)
    gen = CustomGenerator(fn=lambda t, y, z, s: float("inf"), lipschitz_y=0.0, lipschitz_z=0.0)
    with pytest.raises(NonFiniteInput):
        eval_g(gen, 0.0, 1.0, 0.0, 1.0)


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
    assert contraction_ok(ZeroGenerator(), 10.0)
    assert contraction_ok(DifferentialRates(0.02, 0.10), 1.0)  # 0.1 < 1
    assert not contraction_ok(DifferentialRates(0.0, 12.0), 0.1)  # 1.2 >= 1


def test_stacked_generators_match_each_column(rng):
    # column b of a stacked generator is gens[b] bit for bit, and its bounds cover every column
    from gamehedge.generators import _stack_generators, implicit_start

    y, z, s = (rng.uniform(lo, hi, size=(7, 1)) for lo, hi in ((-10, 10), (-2, 2), (50, 150)))
    for gens in ([LinearRate(0.03), LinearRate(0.0), LinearRate(0.07)],
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
        LinearRate(np.array([0.01, np.inf]))
    custom = CustomGenerator(fn=lambda t, y, z, s: 0.0, lipschitz_y=0.0, lipschitz_z=0.0)
    for gens in ([], [custom, custom], [LinearRate(0.01), DifferentialRates(0.0, 0.01)]):
        with pytest.raises(InvalidParameters):
            _stack_generators(gens)
