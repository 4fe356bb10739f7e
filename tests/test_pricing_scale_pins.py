"""Bit pins of the two-rate solve at pricing scale.

The goldens and recursion pins stop at small N.  These pin the bytes of the
N=2000 two-rate put (strike 100, penalty 5, funding 0.02/0.10, both sides)
and of an N=200 ``sweep_prices`` pass over 8 borrowing rates, so a change to
the implicit step's arithmetic shows at the size pricing runs at.  The
values were recorded before the builtin generator's one-step solve was fused
into one pass.
"""

import hashlib

import pytest

from gamehedge.config import build_bundle
from gamehedge.drbsde import solve_drbsde
from gamehedge.generators import DifferentialRates
from gamehedge.pricing import SIDES, side_obstacles, sweep_prices

SWEEP_RATES = (0.1, 0.02, 0.15, 0.05, 0.2, 0.08, 0.12, 0.03)


def put_bundle(n):
    return build_bundle({
        "lattice": {"s0": 100.0, "sigma": 0.2, "N": n, "T": 1.0},
        "generator": {"type": "differential", "r_lend": 0.02, "r_borrow": 0.1},
        "benchmark": {"r_lend": 0.02, "r_borrow": 0.1},
        "contract": {"type": "israeli_put", "strike": 100.0, "penalty": 5.0},
        "party": {"side": "both", "endowment": 0.0},
    })


# side -> (y0 hex, residual_max hex, iterations_max, sha256 of Y, Z, dL and dU flat bytes)
SOLVE_PINS = {
    "hedger": ("0x1.4000000000000p+2", "0x1.0000000000000p-48", 1,
               "51707269771dcb19d15f77979cb3c772ca617ae0aae780f320633867727c79ff"),
    "counterparty": ("-0x1.34383d445f784p+2", "0x1.0000000000000p-50", 1,
                     "8be90e6612e1f57d9b0ac044ae2ddf8cd180f735677ff08490ae81854b6e6b9f"),
}
# each side's prices, one per rate in SWEEP_RATES' order
SWEEP_PINS = {
    "hedger": ("0x1.4000000000000p+2",) * 8,
    "counterparty": ("0x1.34064cbeb720bp+2", "0x1.4000000000000p+2", "0x1.f2647e2624774p+1",
                     "0x1.4000000000000p+2", "0x1.9b7a7ae8e8df6p+1", "0x1.4000000000000p+2",
                     "0x1.1a49271093ee0p+2", "0x1.4000000000000p+2"),
}


@pytest.mark.parametrize("side", SIDES)
def test_two_rate_put_solve_at_n2000_keeps_its_bits(side):
    bundle = put_bundle(2000)
    sol = solve_drbsde(side_obstacles(bundle.contract, bundle.views[side], bundle.gen, bundle.lat))
    digest = hashlib.sha256()
    for proc in (sol.Y, sol.Z, sol.dL, sol.dU):
        digest.update(proc.flat.tobytes())
    got = (float(sol.Y.flat[0]).hex(), sol.residual_max.hex(), sol.iterations_max,
           digest.hexdigest())
    assert got == SOLVE_PINS[side]


def test_sweep_roots_at_n200_keep_their_bits():
    bundle = put_bundle(200)
    views = [bundle.views[side] for side in SIDES]
    gens = (DifferentialRates(0.02, r) for r in SWEEP_RATES)
    prices = sweep_prices(bundle.contract, views, gens, bundle.lat)
    assert prices.shape == (2, len(SWEEP_RATES))
    for side, row in zip(SIDES, prices.tolist()):
        assert tuple(x.hex() for x in row) == SWEEP_PINS[side]
