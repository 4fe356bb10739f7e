"""Shared fixtures: the one-step worked instance and coarse random instances.

Random payoffs live on coarse grids (quarter steps, gaps of at least a half)
so true value gaps are macroscopic next to the 1e-9 region tolerances and
none of the property tests can flake on arithmetic coincidences.
"""

import math
import sys

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    ContractSpec,
    CustomGenerator,
    DifferentialRates,
    DrbsdeInputs,
    Lattice,
    NodeProcess,
    PartyView,
    TimeGrid,
    build_lattice,
    builtin_israeli_put,
    rule_count,
    side_obstacles,
)
from gamehedge.drbsde import _game_root, _pair_node
from gamehedge.lattice import tri

RATE_GRID = (0.0, 0.02, 0.05, 0.1)


@pytest.fixture
def one_step_lattice() -> Lattice:
    return build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=1))


@pytest.fixture
def one_step_put(one_step_lattice) -> ContractSpec:
    return builtin_israeli_put(one_step_lattice, strike=100.0, penalty=5.0)


@pytest.fixture
def zero_account() -> BenchmarkAccount:
    return BenchmarkAccount(r_lend=0.0, r_borrow=0.0)


@pytest.fixture
def hedger_view(zero_account) -> PartyView:
    return PartyView(side="hedger", endowment=0.0, acct=zero_account)


@pytest.fixture
def counterparty_view(zero_account) -> PartyView:
    return PartyView(side="counterparty", endowment=0.0, acct=zero_account)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


def grid_values(rng, shape, lo=-10.0, hi=10.0, step=0.25):
    ticks = int(round((hi - lo) / step))
    return lo + step * rng.integers(0, ticks + 1, size=shape)


def random_lattice(rng, n_max: int, n_min: int = 1) -> Lattice:
    n = int(rng.integers(n_min, n_max + 1))
    horizon = float(rng.choice([0.25, 0.5, 1.0]))
    while True:
        u = float(rng.choice([1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35]))
        d = float(rng.choice([0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]))
        q = (1.0 - d) / (u - d)
        if 0.2 <= q <= 0.8 and u - d >= 0.2:
            s0 = float(rng.choice([80.0, 100.0, 120.0]))
            return build_lattice(s0, u, d, TimeGrid(horizon=horizon, n_steps=n))


def random_funding(rng, lat: Lattice):
    """Generator plus the matching two-rate account, redrawn until it sits
    well inside the contraction and one-step monotonicity bounds (coarse
    grids can land exactly on the boundary, e.g. dt=1, r=0.1, u-d=0.35)."""
    while True:
        kind = rng.integers(0, 3)
        if kind == 0:
            return DifferentialRates(0.0, 0.0), BenchmarkAccount(0.0, 0.0)
        if kind == 1:
            r = float(rng.choice(RATE_GRID))
            gen, acct = DifferentialRates(r, r), BenchmarkAccount(r, r)
        else:
            r_lend, r_borrow = sorted(float(rng.choice(RATE_GRID)) for _ in range(2))
            gen, acct = DifferentialRates(r_lend, r_borrow), BenchmarkAccount(r_lend, r_borrow)
        ratio = lat.dt * gen.lipschitz_z / (lat.u - lat.d)
        if ratio <= 0.9 * min(lat.q, 1.0 - lat.q):
            return gen, acct


def random_contract(rng, lat: Lattice) -> ContractSpec:
    n = lat.n_steps
    xc_rows, xh_rows, xbar_rows, da_rows = [], [], [], []
    for k in range(n + 1):
        xc = grid_values(rng, k + 1)
        gap = 0.5 + 0.5 * rng.integers(0, 10, size=k + 1)
        frac = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=k + 1)
        xh = xc - gap
        xc_rows.append(xc)
        xh_rows.append(xh)
        xbar_rows.append(xh + frac * gap)
        if k < n:
            da_rows.append(grid_values(rng, k + 1, lo=-1.0, hi=1.0, step=0.5))
        else:
            da_rows.append(np.zeros(k + 1))
    return ContractSpec(
        Xh=NodeProcess.from_rows(xh_rows),
        Xc=NodeProcess.from_rows(xc_rows),
        Xbar=NodeProcess.from_rows(xbar_rows),
        dA=NodeProcess.from_rows(da_rows),
    )


def random_instance(rng, n_max: int, n_min: int = 1):
    """One admissible pricing problem: lattice, funding, contract, endowments."""
    lat = random_lattice(rng, n_max, n_min)
    gen, acct = random_funding(rng, lat)
    contract = random_contract(rng, lat)
    x1 = float(rng.choice([-5.0, -2.5, 0.0, 2.5, 5.0]))
    x2 = float(rng.choice([-5.0, -2.5, 0.0, 2.5, 5.0]))
    views = {
        "hedger": PartyView(side="hedger", endowment=x1, acct=acct),
        "counterparty": PartyView(side="counterparty", endowment=x2, acct=acct),
    }
    return lat, gen, contract, views


# A smooth nonlinear generator: its fixed-point solve starts at rhs and needs
# several sweeps, unlike the builtins whose start point is exact.
SMOOTH_CUSTOM = CustomGenerator(
    fn=lambda t, y, z, s: -0.04 * y + 0.01 * math.tanh(y - z * s) + 0.02 * math.sin(z * s),
    lipschitz_y=0.05,
    lipschitz_z=0.05,
)

GAME_GENERATORS = {
    "zero": DifferentialRates(0.0, 0.0),
    "linear": DifferentialRates(0.05, 0.05),
    "differential": DifferentialRates(0.02, 0.1),
    "custom": SMOOTH_CUSTOM,
}


def game_lattice(rng, n: int, gen) -> Lattice:
    """A random n-step lattice inside the generator's contraction bound."""
    while True:
        lat = random_lattice(rng, n, n)
        if lat.dt * gen.lipschitz_z / (lat.u - lat.d) <= 0.9 * min(lat.q, 1.0 - lat.q):
            return lat


def game_instance(rng, n: int, gen, side: str = "hedger"):
    """A random n-step stopping game for a given generator."""
    lat = game_lattice(rng, n, gen)
    contract = random_contract(rng, lat)
    endowment = float(rng.choice([-2.5, 0.0, 2.5]))
    view = PartyView(side=side, endowment=endowment, acct=BenchmarkAccount(0.02, 0.05))
    return side_obstacles(contract, view, gen, lat)


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


def pair_matrix(game, sigma=None, tau=None):
    """Root values per (minimizer rule, maximizer rule) pair; a fixed rule's axis has length 1.

    Both seats are enumerated on the oracle's row sweep at once; the package
    itself never needs the n_rules x n_rules table, so it lives here.
    """
    n_rules = rule_count(game.lat.n_steps)
    shape = tuple(n_rules if rule is None else 1 for rule in (sigma, tau))
    return np.reshape(_game_root(game, _pair_node, sigma=sigma, tau=tau), shape)


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance pass/fail lines where capture cannot hide them."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "SUMMARY", None) if mod else None
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)
