"""An independent reference solve in 50-digit decimal arithmetic.

The oracle and the battery step with the solver's own ``backward_step`` and
node rules, so an error in the scheme itself (branch weights, slope, rate
pick) cannot show there.  The reference here is written from the scheme's
formulas alone: slope, expectation, the two-rate implicit step in closed
form with the rate picked by the sign of e - z*s, then projection into the
band.  Every input is the exact ``Decimal`` of its float (q, dt, rates,
spot, obstacles and cash flow), so the gap measures the solver's rounding
only.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gamehedge import (
    BenchmarkAccount,
    DifferentialRates,
    PartyView,
    TimeGrid,
    acceptable_price,
    build_lattice,
    builtin_game_bond,
    builtin_israeli_put,
)


def exact(row):
    return [Decimal(float(x)) for x in row]


def reference_y(inputs):
    """Y at every node, flat, from a 50-digit backward solve of ``inputs``."""
    lat, gen = inputs.lat, inputs.gen
    n, one = lat.n_steps, Decimal(1)
    q, dt = Decimal(lat.q), Decimal(lat.dt)
    r_lend, r_borrow = Decimal(gen.r_lend), Decimal(gen.r_borrow)
    rows = [exact(inputs.tie.row(n))]
    with localcontext() as ctx:
        ctx.prec = 50
        for k in range(n - 1, -1, -1):
            y, s_next, s = rows[0], exact(lat.spot.row(k + 1)), exact(lat.spot.row(k))
            lo, hi, cash = (exact(p.row(k)) for p in
                            (inputs.lower, inputs.upper, inputs.cashflow_increments))
            row = []
            for j in range(k + 1):
                zs = (y[j + 1] - y[j]) / (s_next[j + 1] - s_next[j]) * s[j]
                e = q * y[j + 1] + (one - q) * y[j] - cash[j]
                r = r_lend if e - zs >= 0 else r_borrow
                row.append(min(hi[j], max(lo[j], (e + r * zs * dt) / (one + r * dt))))
            rows.insert(0, row)
    return np.array([float(v) for row in rows for v in row])


CONTRACTS = {
    "put": lambda lat: builtin_israeli_put(lat, strike=100.0, penalty=12.0),
    "bond": lambda lat: builtin_game_bond(lat, 100.0, 2.0, 5.0, 3.0),
}


@pytest.mark.parametrize("side", ["hedger", "counterparty"])
@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_solver_matches_decimal_reference_at_every_node(name, side):
    # measured worst node error at N=200: put 7.1e-14 (relative 7.3e-15), bond 2.0e-14
    n = 200
    u = math.exp(0.2 * math.sqrt(1.0 / n))
    lat = build_lattice(100.0, u, 1.0 / u, TimeGrid(horizon=1.0, n_steps=n))
    view = PartyView(side=side, endowment=0.0, acct=BenchmarkAccount(0.02, 0.10))
    quote = acceptable_price(CONTRACTS[name](lat), view, DifferentialRates(0.02, 0.10), lat)
    ref = reference_y(quote.inputs)
    err = np.abs(quote.solution.Y.flat - ref)
    bound = 5e-14 * (1.0 + np.abs(ref))
    assert (err <= bound).all(), (name, side, float(np.max(err / (1.0 + np.abs(ref)))))
