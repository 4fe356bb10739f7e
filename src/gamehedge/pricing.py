"""Contracts, party views and acceptable prices.

A contract is three hedger-signed payoff processes plus a cumulative flow:

* ``Xh``  received by the hedger if the hedger cancels first (it pays the
  counterparty a premium, so typically the most negative),
* ``Xc``  received if the counterparty exercises first,
* ``Xbar`` received on a simultaneous stop, squeezed between the other two,
* ``dA``  hedger-signed flow accrued over each step.

The hedger's acceptable price is the extra initial wealth that lets it stay
benchmark-safe whatever the counterparty does.  With Vb the benchmark wealth
of its endowment x, it solves the doubly reflected system with lower =
Vb - Xc, upper = Vb - Xh, tie = Vb - Xbar and cash flow dA, and quotes
y0 - x; the tie's last row is the terminal data, and the same problem is
the side's stopped game.  A counterparty quote is the hedger's solve of the
mirrored contract (Xh -> -Xc, Xc -> -Xh, Xbar -> -Xbar, dA -> -dA), priced
x - y0: the largest premium it can pay and stay benchmark-safe.

Stopping regions are reported as raw equality sets of the solved value
against the obstacles (region_sigma, region_tau) and as strict-positivity
sets of the reflection pushes (region_bar_sigma, region_bar_tau), named in
the hedger's order on either side: sigma the hedger's cancellation, tau the
counterparty's exercise.
Each region is the sorted array of its flat node indices, node (k, j) at
``tri(k, j)``; ``node_coords`` maps them back to steps and up-counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .drbsde import (
    DrbsdeInputs,
    DrbsdeSolution,
    _reflected_roots,
    require_contraction,
    solve_drbsde,
)
from .errors import (
    ContractInvariantViolated,
    InvalidParameters,
    InvalidPenalty,
    NonFiniteInput,
)
from .generators import Generator, _check_positive, _stack_generators
from .lattice import (
    BenchmarkAccount,
    Lattice,
    NodeProcess,
    benchmark_profile,
    first_node,
    node_coords,
    tri,
)

__all__ = [
    "ContractSpec",
    "PartyView",
    "QuoteResult",
    "side_obstacles",
    "acceptable_price",
    "sweep_prices",
    "builtin_israeli_put",
    "builtin_game_bond",
]

SIDES = ("hedger", "counterparty")


@dataclass(frozen=True, eq=False)
class ContractSpec:
    """Game contract payoffs; construction enforces the admissibility inequalities.

    The tie band at the terminal row is deliberately left to the backward
    solver's terminal check, which sees exactly the same inequality after
    the benchmark shift.
    """

    Xh: NodeProcess
    Xc: NodeProcess
    Xbar: NodeProcess
    dA: NodeProcess

    def __post_init__(self) -> None:
        n = self.Xh.n_steps
        for name, proc in (("Xc", self.Xc), ("Xbar", self.Xbar), ("dA", self.dA)):
            if proc.n_steps != n:
                raise ContractInvariantViolated(f"{name} has {proc.n_steps} steps, Xh has {n}")
        xh, xc, xm = self.Xh.flat, self.Xc.flat, self.Xbar.flat
        bad = first_node(~(xh < xc))
        if bad:
            i, k, j = bad
            raise ContractInvariantViolated(
                f"cancellation payoff must stay strictly below exercise payoff; "
                f"at node ({k}, {j}): Xh={xh[i]!r}, Xc={xc[i]!r}"
            )
        inner = slice(0, tri(n))  # interior tie band; terminal row checked at solve time
        bad = first_node((xm[inner] < xh[inner]) | (xm[inner] > xc[inner]))
        if bad:
            i, k, j = bad
            raise ContractInvariantViolated(
                f"tie payoff must lie between Xh and Xc; at node ({k}, {j}): "
                f"Xh={xh[i]!r}, Xbar={xm[i]!r}, Xc={xc[i]!r}"
            )
        if np.any(self.dA.row(n) != 0.0):
            raise ContractInvariantViolated("dA terminal row must be zero (flows accrue per step)")

    @property
    def n_steps(self) -> int:
        return self.Xh.n_steps


@dataclass(frozen=True)
class PartyView:
    """Which side is being priced, with its endowment and benchmark account."""

    side: str
    endowment: float
    acct: BenchmarkAccount

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise InvalidParameters(f"side must be one of {SIDES}, got {self.side!r}")
        if not math.isfinite(self.endowment):
            raise NonFiniteInput("endowment must be finite")


class _Side:
    """The view side's problem as the hedger's problem on the mirrored contract.

    The counterparty's problem is the hedger's on Xh -> -Xc, Xc -> -Xh,
    Xbar -> -Xbar, dA -> -dA; every side decision is read from here.
    ``order`` maps between the hedger-named order (sigma, tau; Xh, Xc) and
    the side's (own, other) order, and is its own inverse.
    """

    def __init__(self, view: PartyView):
        self.mirrored, self.endowment = view.side != "hedger", view.endowment

    def order(self, first, second):
        return (second, first) if self.mirrored else (first, second)

    def settlements(self, contract: ContractSpec):
        """The side's signed settlement rows on an own, other and joint stop (the mirrored
        Xh, Xc and Xbar), one at a time: shifting them into obstacles at pricing scale never
        holds all three negated rows at once."""
        own, other = self.order(contract.Xh.flat, contract.Xc.flat)
        for row in (own, other, contract.Xbar.flat):
            yield -row if self.mirrored else row

    def cash(self, contract: ContractSpec) -> NodeProcess:
        """The side's cash flow, the mirrored dA."""
        return NodeProcess(-contract.dA.flat) if self.mirrored else contract.dA

    def price(self, y0):
        """y0 - x, or x - y0 mirrored (not -(y0 - x), which makes a zero price -0)."""
        first, second = self.order(y0, self.endowment)
        return first - second

    def initial_wealth(self, price):
        """The y0 whose ``price`` is ``price``."""
        return self.endowment - price if self.mirrored else self.endowment + price


def side_obstacles(
    contract: ContractSpec, view: PartyView, gen: Generator, lat: Lattice
) -> DrbsdeInputs:
    """The view side's problem: benchmark-shifted lower, upper and tie rows and its cash flow.

    Each row is Vb minus the side's settlement row: upper on its own stop,
    lower on the other's, tie on a joint one.  Its reflected solve and its
    stopped game agree, as interior ties never help the stopping player (the
    tie row sits inside the band); that is itself a test.
    """
    if contract.n_steps != lat.n_steps:
        raise InvalidParameters(f"contract has {contract.n_steps} steps, lattice has {lat.n_steps}")
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)[node_coords(lat.n_steps)[0]]
    side = _Side(view)
    upper, lower, tie = (NodeProcess(vb - row) for row in side.settlements(contract))
    return DrbsdeInputs(lower=lower, upper=upper, tie=tie, cashflow_increments=side.cash(contract),
                        gen=gen, lat=lat)


@dataclass(frozen=True, eq=False)
class QuoteResult:
    """Price with the problem it solves, the solved field and the stopping regions backing it.

    Regions are node sets, each a read-only, strictly increasing int64 array
    of flat node indices (node (k, j) at ``tri(k, j)``): region_sigma /
    region_tau are obstacle-equality sets, within ``region_tol``, for the
    cancel / exercise times, region_bar_sigma / region_bar_tau
    the strict-push sets behind the corresponding barred times.  The
    contract, the view and ``inputs`` (generator, lattice, lower, upper and
    tie rows and cash flow) are retained so verifiers replay exactly what
    was solved, and the oracle plays the game of that same problem.
    """

    contract: ContractSpec
    view: PartyView
    price: float
    solution: DrbsdeSolution
    inputs: DrbsdeInputs
    region_tol: float
    region_sigma: np.ndarray
    region_tau: np.ndarray
    region_bar_sigma: np.ndarray
    region_bar_tau: np.ndarray

    @property
    def y0(self) -> float:
        return self.solution.Y.at(0, 0)


def _nodes(mask: np.ndarray) -> np.ndarray:
    """Flat indices of a flat node mask, read-only."""
    nodes = np.flatnonzero(mask)
    nodes.flags.writeable = False
    return nodes


def acceptable_price(
    contract: ContractSpec,
    view: PartyView,
    gen: Generator,
    lat: Lattice,
    region_tol: float = 1e-9,
) -> QuoteResult:
    """Solve the side's reflected system and report price plus stopping regions.

    ``region_tol`` is the relative band of obstacle equality, for the regions
    here and for every verifier of the quote.
    """
    _check_positive("region_tol", region_tol)
    inputs = side_obstacles(contract, view, gen, lat)
    sol = solve_drbsde(inputs)
    y0 = sol.Y.at(0, 0)
    y = sol.Y.flat
    band = region_tol * (1.0 + np.abs(y))
    eq_upper = _nodes(np.abs(y - inputs.upper.flat) <= band)
    eq_lower = _nodes(np.abs(y - inputs.lower.flat) <= band)
    pos_du = _nodes(sol.dU.flat > 0.0)
    pos_dl = _nodes(sol.dL.flat > 0.0)
    # the side's own stop presses the upper obstacle, the other's the lower
    side = _Side(view)
    region_sigma, region_tau = side.order(eq_upper, eq_lower)
    region_bar_sigma, region_bar_tau = side.order(pos_du, pos_dl)
    return QuoteResult(
        contract=contract,
        view=view,
        price=side.price(y0),
        solution=sol,
        inputs=inputs,
        region_tol=region_tol,
        region_sigma=region_sigma,
        region_tau=region_tau,
        region_bar_sigma=region_bar_sigma,
        region_bar_tau=region_bar_tau,
    )


def sweep_prices(
    contract: ContractSpec, views: list[PartyView], gens: Iterable[Generator], lat: Lattice
) -> np.ndarray:
    """Each view's acceptable prices, one row per view and column per generator, from one pass.

    ``gens`` is read in order, each generator only after the checks of the
    ones before it, so the first failing one raises, as solo quotes taken in
    turn would; it may build them on demand.  The first gets every entry
    check of ``acceptable_price`` and the obstacles it builds serve the
    pass, as they do not depend on the generator; each later one gets its
    contraction check.  The pass runs the generators stacked into one whose
    columns share it: every price is bit-identical to ``acceptable_price``'s,
    and no field or region is kept.
    """
    sides, stack = None, []
    for gen in gens:
        if sides is None:
            sides = [side_obstacles(contract, view, gen, lat) for view in views]
        else:
            require_contraction(gen, lat)
        stack.append(gen)
    y0 = _reflected_roots(sides, _stack_generators(stack), len(stack))
    return np.array([_Side(view).price(y) for view, y in zip(views, y0)])


def builtin_israeli_put(lat: Lattice, strike: float, penalty: float) -> ContractSpec:
    """Cancellable put: exercise pays intrinsic, cancellation adds a penalty, tie pays intrinsic."""
    _check_positive("strike", strike)
    if not math.isfinite(penalty) or penalty <= 0.0:
        raise InvalidPenalty(f"penalty must be strictly positive, got {penalty!r}")
    xc = NodeProcess(-np.maximum(strike - lat.spot.flat, 0.0))
    return ContractSpec(Xh=NodeProcess(xc.flat - penalty), Xc=xc, Xbar=xc,
                        dA=NodeProcess.zeros(lat.n_steps))


def builtin_game_bond(
    lat: Lattice, face: float, coupon: float, call_penalty: float, put_discount: float
) -> ContractSpec:
    """Callable/puttable bond: issuer calls at face plus penalty, holder puts at a discount."""
    _check_positive("face", face)
    if not math.isfinite(coupon) or coupon < 0.0:
        raise InvalidParameters(f"coupon must be nonnegative and finite, got {coupon!r}")
    if not math.isfinite(call_penalty) or call_penalty <= 0.0:
        raise InvalidPenalty(f"call penalty must be strictly positive, got {call_penalty!r}")
    if not math.isfinite(put_discount) or not 0.0 <= put_discount < face:
        raise InvalidParameters(
            f"put discount must satisfy 0 <= discount < face, got {put_discount!r}"
        )
    n = lat.n_steps
    xh = NodeProcess.constant(n, -(face + call_penalty))
    xc = NodeProcess.constant(n, -(face - put_discount))
    xbar = NodeProcess.constant(n, -face)
    da = np.full(tri(n + 1), -coupon)
    da[tri(n):] = 0.0
    return ContractSpec(Xh=xh, Xc=xc, Xbar=xbar, dA=NodeProcess(da))
