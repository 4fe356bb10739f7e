"""The counterparty's quote is the hedger's quote of the mirrored contract.

Mirroring maps Xh to -Xc, Xc to -Xh, Xbar to -Xbar and dA to -dA.  At the
same endowment and account the counterparty's solve of a contract and the
hedger's solve of its mirror are one computation, so everything a quote
carries must agree bit for bit: the solved field, the regions (with the
roles of sigma and tau swapped, as regions keep the hedger's names), the
verifier reports and the sweep, with the price negated.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import GAME_GENERATORS, game_lattice, random_contract  # noqa: E402
from gamehedge import (  # noqa: E402
    BenchmarkAccount,
    ContractSpec,
    DifferentialRates,
    NodeProcess,
    PartyView,
    TimeGrid,
    acceptable_price,
    build_lattice,
    stopping_time_battery,
    verify_replication,
)
from gamehedge.pricing import sweep_prices  # noqa: E402

BATTERY_MAX_STEPS = 3


def mirrored(contract: ContractSpec) -> ContractSpec:
    return ContractSpec(Xh=NodeProcess(-contract.Xc.flat), Xc=NodeProcess(-contract.Xh.flat),
                        Xbar=NodeProcess(-contract.Xbar.flat), dA=NodeProcess(-contract.dA.flat))


def bits(proc: NodeProcess) -> np.ndarray:
    return proc.flat.view(np.uint64)


@st.composite
def mirror_cases(draw):
    """A random N <= 6 game for any conftest generator, and the two views to compare."""
    n = draw(st.integers(1, 6))
    gen = GAME_GENERATORS[draw(st.sampled_from(sorted(GAME_GENERATORS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat = game_lattice(rng, n, gen)
    contract = random_contract(rng, lat)
    endowment = float(rng.choice([-2.5, 0.0, 2.5]))
    acct = BenchmarkAccount(*sorted(float(r) for r in rng.choice([0.0, 0.02, 0.05], size=2)))
    views = [PartyView(side, endowment, acct) for side in ("counterparty", "hedger")]
    return contract, views, gen, lat


@settings(max_examples=150, deadline=None)
@given(case=mirror_cases())
def test_counterparty_quote_is_the_mirrored_hedger_quote(case):
    contract, (cp_view, h_view), gen, lat = case
    mirror = mirrored(contract)
    cp = acceptable_price(contract, cp_view, gen, lat)
    h = acceptable_price(mirror, h_view, gen, lat)

    for name in ("Y", "Z", "dL", "dU"):
        assert np.array_equal(bits(getattr(cp.solution, name)), bits(getattr(h.solution, name)))
    assert cp.solution.residual_max == h.solution.residual_max
    for cp_name, h_name in (("region_sigma", "region_tau"), ("region_tau", "region_sigma"),
                            ("region_bar_sigma", "region_bar_tau"),
                            ("region_bar_tau", "region_bar_sigma")):
        assert np.array_equal(getattr(cp, cp_name), getattr(h, h_name))
    assert cp.price == -h.price

    assert verify_replication(cp) == verify_replication(h)
    if lat.n_steps <= BATTERY_MAX_STEPS:
        assert stopping_time_battery(cp) == stopping_time_battery(h)
    if isinstance(gen, DifferentialRates):  # sweep_prices stacks builtin generators only
        swept_cp, swept_h = (sweep_prices(c, [v], [gen], lat)
                             for c, v in ((contract, cp_view), (mirror, h_view)))
        assert np.array_equal(swept_cp, -swept_h)


def test_zero_counterparty_price_is_positive_zero():
    """x - y0, not -(y0 - x): a zero price prints as 0, never -0."""
    lat = build_lattice(100.0, 1.2, 0.8, TimeGrid(horizon=1.0, n_steps=2))
    contract = ContractSpec(Xh=NodeProcess.constant(2, -1.0), Xc=NodeProcess.zeros(2),
                            Xbar=NodeProcess.zeros(2), dA=NodeProcess.zeros(2))
    view = PartyView("counterparty", 0.0, BenchmarkAccount(0.0, 0.0))
    quote = acceptable_price(contract, view, DifferentialRates(0.0, 0.0), lat)
    assert quote.price == 0.0 and math.copysign(1.0, quote.price) == 1.0
    swept = sweep_prices(contract, [view], [DifferentialRates(0.0, 0.0)], lat)
    assert math.copysign(1.0, swept[0, 0]) == 1.0
