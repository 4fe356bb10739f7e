"""Pins of every pathwise verifier report on a fixed pool of quotes.

The pool is seeded random instances with N <= 8 on both sides, plus, where
N <= 5, the corrupted variants of ``test_battery_reference.corrupted`` (bad
pushes, hedge, obstacle or regions), so the reports cover failing verdicts
and named witness paths as well as clean ones.  Each report kind has one
sha256 over every field of every report, floats written by ``float.hex()``;
the digests were recorded before the verifiers shared one path fold.
"""

import hashlib
from dataclasses import fields

import numpy as np

from gamehedge import (
    StoppingRule,
    acceptable_price,
    classify_quadruplet,
    stopping_time_battery,
    verify_break_even,
    verify_rational_cancellation,
    verify_replication,
)
from conftest import random_instance
from test_battery_reference import corrupted, random_region

POOL_SEED = 1
POOL_SIZE = 14
PRICE_BUMPS = (-0.25, 0.0, 1e-6, 0.25)


def field_text(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{field_text(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(field_text(v) for v in value) + ")"
    return repr(value)


def report_text(report) -> str:
    return type(report).__name__ + ";".join(
        f"{f.name}={field_text(getattr(report, f.name))}" for f in fields(report)
    )


def pool_reports():
    """Report texts by verifier over the whole pool."""
    rng = np.random.default_rng(POOL_SEED)
    out = {name: [] for name in ("classify", "replication", "rational", "break_even", "battery")}
    for _ in range(POOL_SIZE):
        lat, gen, contract, views = random_instance(rng, 8)
        n = lat.n_steps
        for side, view in views.items():
            quote = acceptable_price(contract, view, gen, lat)
            variants = corrupted(quote, rng) if n <= 5 else {"clean": quote}
            for variant in variants.values():
                sigma = StoppingRule.from_nodes(n, variant.region_sigma)
                tau = StoppingRule.from_nodes(n, variant.region_tau)
                bar_sigma = StoppingRule.from_nodes(n, variant.region_bar_sigma)
                bar_tau = StoppingRule.from_nodes(n, variant.region_bar_tau)
                own, other = ((sigma, bar_sigma), (tau, bar_tau)) if side == "hedger" else (
                    (tau, bar_tau), (sigma, bar_sigma))
                extra = (StoppingRule.never_early(n),
                         StoppingRule.from_nodes(n, random_region(rng, n)))
                args = (contract, view, gen, lat)
                out["classify"] += [
                    classify_quadruplet(variant.price + bump, variant.solution.Z, sigma, tau, *args)
                    for bump in PRICE_BUMPS
                ]
                out["replication"].append(verify_replication(variant, *args))
                out["rational"] += [verify_rational_cancellation(rule, variant, *args)
                                    for rule in own + extra]
                out["break_even"] += [verify_break_even(rule, variant, *args)
                                      for rule in other + extra]
                if n <= 5:
                    out["battery"].append(stopping_time_battery(variant, *args))
    return {name: [report_text(r) for r in reports] for name, reports in out.items()}


PINS = {
    "classify": "fb92ef7e0e00512b63ef6377c08c284b97c36576d9c7167ebed5e2f1492c1243",
    "replication": "77a3dc896c273d1a31c54d8d04ddb473cddb6dc32aca1c13dfe5dbb8702fa446",
    "rational": "427c1f69d55c137b71c65cef2063f0a8d9e62456a9894c6c5168be52fa3f5272",
    "break_even": "2dff31708593d568c4d0e0b708bb1443eec93e435143cad7e47be2a9153da25d",
    "battery": "d29754899787fb7df69cbb1d343d2119e0a7d58bfc2a34acfbdc7897fc1b4c90",
}


def test_verifier_reports_match_pinned_digests():
    texts = pool_reports()
    digests = {name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
               for name, lines in texts.items()}
    assert digests == PINS
