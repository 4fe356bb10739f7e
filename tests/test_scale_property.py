"""Property test: every builtin generator is positively homogeneous, so quotes scale with units.

Scaling the spot, strike, penalty and endowment by lambda scales Y, dL and
dU by lambda and leaves the hedge slope Z unchanged, whatever the price
units, on both sides.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamehedge import (  # noqa: E402
    BenchmarkAccount,
    DifferentialRates,
    PartyView,
    TimeGrid,
    acceptable_price,
    build_lattice,
    builtin_israeli_put,
)

GENERATORS = {
    "zero": (DifferentialRates(0.0, 0.0), BenchmarkAccount(0.0, 0.0)),
    "linear": (DifferentialRates(0.05, 0.05), BenchmarkAccount(0.05, 0.05)),
    "differential": (DifferentialRates(0.02, 0.10), BenchmarkAccount(0.02, 0.10)),
}


def put_solution(scale, n, strike, penalty, endowment, name, side):
    u = math.exp(0.2 * math.sqrt(1.0 / n))
    lat = build_lattice(100.0 * scale, u, 1.0 / u, TimeGrid(horizon=1.0, n_steps=n))
    contract = builtin_israeli_put(lat, strike=strike * scale, penalty=penalty * scale)
    gen, acct = GENERATORS[name]
    view = PartyView(side=side, endowment=endowment * scale, acct=acct)
    return acceptable_price(contract, view, gen, lat)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e),
    n=st.integers(1, 40),
    strike=st.sampled_from([80.0, 100.0, 120.0]),
    penalty=st.sampled_from([1.0, 5.0, 30.0]),
    endowment=st.sampled_from([-5.0, 0.0, 5.0]),
    name=st.sampled_from(sorted(GENERATORS)),
    side=st.sampled_from(["hedger", "counterparty"]),
)
def test_quotes_scale_with_price_units(scale, n, strike, penalty, endowment, name, side):
    base = put_solution(1.0, n, strike, penalty, endowment, name, side)
    scaled = put_solution(scale, n, strike, penalty, endowment, name, side)
    y_tol = 1e-12 * scale * float(np.max(np.abs(base.solution.Y.flat)))
    assert abs(scaled.price - scale * base.price) <= y_tol
    for field in ("Y", "dL", "dU"):
        got, want = getattr(scaled.solution, field).flat, getattr(base.solution, field).flat
        assert float(np.max(np.abs(got - scale * want))) <= y_tol, field
    z_base = base.solution.Z.flat
    z_gap = float(np.max(np.abs(scaled.solution.Z.flat - z_base)))
    assert z_gap <= 1e-12 * (1.0 + float(np.max(np.abs(z_base))))
