"""Forward verification of quotes: replication, classification, stopping batteries.

Everything here re-derives claims made by the backward solve from the other
direction: wealth is rolled forward path by path with the solved hedge, the
candidate price is classified by comparing stopped wealth plus settlement
against the benchmark on every path, and stopping-rule claims are checked
against exhaustive rule enumeration.

Path convention: a path is a 0/1 up-move sequence; path ids pack the moves
little-endian (bit i = move at step i).  All pathwise quantities are
vectorized across chunks of path ids so full enumeration stays affordable
up to the hard cap of 2**24 paths.

Side convention: reports work in solution coordinates, where the quote
side's own stopping presses the upper obstacle (recording dU) and the
counterpart's the lower (recording dL).  That makes hedger and counterparty
batteries the same computation with the region roles swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .drbsde import GamePayoff, evaluate_stopped
from .dynkin import (
    _require_enumerable,
    rule_from_id,
    rule_to_id,
    snell_sup_for_minimizer,
    stopped_values_for_maximizer_rules,
    sup_values_by_minimizer_rule,
)
from .errors import NonFiniteState, OutOfRange, TooManyPaths
from .generators import Generator, eval_g
from .lattice import Lattice, NodeProcess, benchmark_profile
from .pricing import ContractSpec, PartyView, QuoteResult, game_payoff
from .stopping import StoppingRule, path_moves, path_up_counts

__all__ = [
    "MAX_PATH_STEPS",
    "WealthPath",
    "ConditionReport",
    "ReplicationReport",
    "RationalStopReport",
    "BreakEvenReport",
    "BatteryReport",
    "forward_wealth",
    "solution_path",
    "classify_quadruplet",
    "verify_replication",
    "verify_rational_cancellation",
    "verify_break_even",
    "stopping_time_battery",
    "rule_from_region",
]

MAX_PATH_STEPS = 24
_CHUNK = 1 << 16
_MAX_WITNESSES = 8


@dataclass(frozen=True, eq=False)
class WealthPath:
    """Wealth trajectories with cumulative reflection pushed before each step.

    ``path`` holds 0/1 moves, (N,) for one path or (P, N) for P; others are (N + 1,) or (P, N + 1).
    """

    path: np.ndarray
    values: np.ndarray
    L_cum: np.ndarray
    U_cum: np.ndarray

    def __post_init__(self) -> None:
        moves = np.array(self.path, dtype=np.int64)
        moves.flags.writeable = False
        object.__setattr__(self, "path", moves)
        shape = moves.shape[:-1] + (moves.shape[-1] + 1,)
        for name, arr in (("values", self.values), ("L_cum", self.L_cum), ("U_cum", self.U_cum)):
            a = np.asarray(arr, dtype=np.float64)
            if a.shape != shape:
                raise OutOfRange(f"{name} must have shape {shape}")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not np.isfinite(self.values).all():
            raise NonFiniteState("wealth trajectory contains non-finite values")
        for name, arr in (("L_cum", self.L_cum), ("U_cum", self.U_cum)):
            if np.any(arr[..., 0] != 0.0) or np.any(np.diff(arr, axis=-1) < 0.0):
                raise OutOfRange(f"{name} must be nondecreasing from 0")


@dataclass(frozen=True)
class ConditionReport:
    """Pathwise classification of a price/hedge/stop quadruplet.

    sh: stopped wealth plus settlement never falls below the benchmark.
    ao: sh holds and beats the benchmark on at least one path.
    be: exact benchmark equality on every path.
    na: no strict shortfall is possible (equality or the gain is elsewhere).
    """

    sh: bool
    ao: bool
    be: bool
    na: bool
    witness_paths: dict[str, tuple[int, ...]]


def _require_paths(n_steps: int) -> int:
    if n_steps > MAX_PATH_STEPS:
        raise TooManyPaths(
            f"{1 << n_steps} paths exceed the {1 << MAX_PATH_STEPS} enumeration cap"
        )
    return 1 << n_steps


def _path_chunks(n_steps: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Path ids with their up-counts and flat node indices, _CHUNK paths at a time."""
    for start in range(0, 1 << n_steps, _CHUNK):
        pids = np.arange(start, min(start + _CHUNK, 1 << n_steps), dtype=np.int64)
        js = path_up_counts(path_moves(pids, n_steps))
        yield pids, js, _flat_idx(js)


def _flat(proc: NodeProcess) -> np.ndarray:
    return np.concatenate(proc.rows)


def _flat_idx(js: np.ndarray) -> np.ndarray:
    ks = np.arange(js.shape[-1], dtype=np.int64)
    return (ks * (ks + 1)) // 2 + js


def _rule_hits(rule: StoppingRule, js: np.ndarray) -> np.ndarray:
    marked = np.column_stack([rule.row(k)[js[:, k]] for k in range(js.shape[1])])
    return np.argmax(marked, axis=1)


def _forward_matrix(
    y0, hedge: NodeProcess, gen: Generator, cashflow: NodeProcess, lat: Lattice,
    js: np.ndarray,
) -> np.ndarray:
    """Wealth at every step of every path (no stopping; prefixes are what matter)."""
    n, dt = lat.n_steps, lat.dt
    out = np.empty((js.shape[0], n + 1))
    out[:, 0] = y0
    for k in range(n):
        s_now = lat.spot.row(k)[js[:, k]]
        s_nxt = lat.spot.row(k + 1)[js[:, k + 1]]
        xi = hedge.row(k)[js[:, k]]
        cash = cashflow.row(k)[js[:, k]]
        v = out[:, k]
        out[:, k + 1] = v - eval_g(gen, k * dt, v, xi, s_now) * dt + xi * (s_nxt - s_now) + cash
        if not np.isfinite(out[:, k + 1]).all():
            raise NonFiniteState(f"wealth became non-finite advancing to step {k + 1}")
    return out


def forward_wealth(
    y0: float,
    hedge: NodeProcess,
    gen: Generator,
    cashflow_increments: NodeProcess,
    lat: Lattice,
    path,
) -> WealthPath:
    """Roll initial wealth forward along one path, or every row of a move matrix,
    with the given hedge and flows (one batched pass)."""
    js = path_up_counts(path)
    if js.shape[-1] != lat.n_steps + 1:
        raise OutOfRange(f"path must have {lat.n_steps} moves, got {js.shape[-1] - 1}")
    values = _forward_matrix(float(y0), hedge, gen, cashflow_increments, lat,
                             js.reshape(-1, js.shape[-1])).reshape(js.shape)
    zeros = np.zeros(js.shape)
    return WealthPath(path=path, values=values, L_cum=zeros, U_cum=zeros)


def _before_cumsum(flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Cumulative node values along each path counting strictly earlier steps."""
    along = flat[idx]
    out = np.zeros_like(along)
    np.cumsum(along[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _cum_at_stop(flat, idx, rows, stops, include_stop_node: bool):
    """Cumulative push at the stop.  Stopping preempts the stop node's own
    projection push by default; including it is a sensitivity knob."""
    total = _before_cumsum(flat, idx)[rows, stops]
    if include_stop_node:
        total = total + flat[idx[rows, stops]]
    return total


def solution_path(quote: QuoteResult, path) -> WealthPath:
    """The solved value along one path, or every row of a move matrix, with its
    cumulative reflection pushes."""
    idx = _flat_idx(path_up_counts(path))
    sol = quote.solution
    return WealthPath(
        path=path,
        values=_flat(sol.Y)[idx],
        L_cum=_before_cumsum(_flat(sol.dL), idx),
        U_cum=_before_cumsum(_flat(sol.dU), idx),
    )


def _settlement_flats(contract: ContractSpec, view: PartyView, lat: Lattice):
    """Hedger-signed settlement rows flattened, plus the sign applied to wealth."""
    xh, xc, xm = _flat(contract.Xh), _flat(contract.Xc), _flat(contract.Xbar)
    sign = 1.0 if view.side == "hedger" else -1.0
    return xh, xc, xm, sign


def _stop_comparison(
    v_full: np.ndarray,
    hits_sigma: np.ndarray,
    hits_tau: np.ndarray,
    idx: np.ndarray,
    settlements,
    vb: np.ndarray,
    eq_tol: float,
):
    """Per-path comparison of stopped wealth plus settlement against the benchmark."""
    xh, xc, xm, sign = settlements
    k_stop = np.minimum(hits_sigma, hits_tau)
    rows = np.arange(v_full.shape[0])
    node = idx[rows, k_stop]
    settle = np.where(hits_sigma < hits_tau, xh[node],
                      np.where(hits_tau < hits_sigma, xc[node], xm[node]))
    lhs = v_full[rows, k_stop] + sign * settle
    rhs = vb[k_stop]
    diff = lhs - rhs
    tol = eq_tol * (1.0 + np.abs(rhs))
    return diff, tol, k_stop


def classify_quadruplet(
    price: float,
    hedge: NodeProcess,
    sigma: StoppingRule,
    tau: StoppingRule,
    contract: ContractSpec,
    view: PartyView,
    gen: Generator,
    lat: Lattice,
    eq_tol: float = 1e-9,
) -> ConditionReport:
    """Classify a candidate quadruplet by exhausting every path of the lattice."""
    n = lat.n_steps
    _require_paths(n)
    settlements = _settlement_flats(contract, view, lat)
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)
    y0 = view.endowment + price if view.side == "hedger" else view.endowment - price
    cash = contract.dA if view.side == "hedger" else NodeProcess.from_rows(
        [-contract.dA.row(k) for k in range(n + 1)]
    )
    all_ge = True
    all_eq = True
    any_gt = False
    any_lt = False
    witnesses: dict[str, list[int]] = {"strict_gain": [], "shortfall": [], "off_equal": []}
    for pids, js, idx in _path_chunks(n):
        v_full = _forward_matrix(y0, hedge, gen, cash, lat, js)
        diff, tol, _ = _stop_comparison(
            v_full, _rule_hits(sigma, js), _rule_hits(tau, js), idx, settlements, vb, eq_tol
        )
        ge = diff >= -tol
        eq = np.abs(diff) <= tol
        gt = diff > tol
        lt = diff < -tol
        all_ge &= bool(ge.all())
        all_eq &= bool(eq.all())
        any_gt |= bool(gt.any())
        any_lt |= bool(lt.any())
        for name, mask in (("strict_gain", gt), ("shortfall", lt), ("off_equal", ~eq)):
            room = _MAX_WITNESSES - len(witnesses[name])
            if room > 0:
                witnesses[name].extend(int(p) for p in pids[mask][:room])
    sh = all_ge
    ao = sh and any_gt
    be = all_eq
    na = be or any_lt
    return ConditionReport(
        sh=sh, ao=ao, be=be, na=na,
        witness_paths={k: tuple(v) for k, v in witnesses.items()},
    )


def rule_from_region(n_steps: int, region) -> StoppingRule:
    """First-hit rule of a node region; stopping at T when the region is missed."""
    return StoppingRule.from_nodes(n_steps, region)


def _own_regions(quote: QuoteResult):
    """(own equality, own push, other equality, other push) in solution coordinates."""
    if quote.side == "hedger":
        return (quote.region_sigma, quote.region_bar_sigma,
                quote.region_tau, quote.region_bar_tau)
    return (quote.region_tau, quote.region_bar_tau,
            quote.region_sigma, quote.region_bar_sigma)


@dataclass(frozen=True)
class ReplicationReport:
    """Forward check that the solved field replicates the quote up to the first stop."""

    replicates: bool
    max_gap: float
    n_paths: int
    first_failing_path: int | None
    be: bool
    ao_at_plus: bool
    sh_fails_at_minus: bool

    @property
    def ok(self) -> bool:
        return self.replicates and self.be and self.ao_at_plus and self.sh_fails_at_minus


def verify_replication(
    quote: QuoteResult,
    contract: ContractSpec,
    view: PartyView,
    gen: Generator,
    lat: Lattice,
    gap_tol: float = 1e-10,
    probe_scale: float = 1e-6,
    eq_tol: float = 1e-9,
) -> ReplicationReport:
    """Wealth from the quoted price must track the solved value until someone stops.

    Also classifies the quoted price exactly (break-even) and probes one
    epsilon in each direction so the price is pinned from both sides.  "Plus"
    is the direction that grows the party's hedging capital: a higher price
    for the hedger (who collects it), a lower one for the counterparty (who
    pays it).  There the strict-gain condition must appear; on the opposite
    side the benchmark-safety condition must fail.
    """
    n = lat.n_steps
    n_paths = _require_paths(n)
    own_eq, _, other_eq, _ = _own_regions(quote)
    own_rule = rule_from_region(n, own_eq)
    other_rule = rule_from_region(n, other_eq)
    sigma, tau = (own_rule, other_rule) if quote.side == "hedger" else (other_rule, own_rule)
    y0 = quote.solution.Y.at(0, 0)
    y_flat = _flat(quote.solution.Y)
    cash = quote.inputs.cashflow_increments
    max_gap = 0.0
    first_fail: int | None = None
    for pids, js, idx in _path_chunks(n):
        v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
        k_stop = np.minimum(_rule_hits(sigma, js), _rule_hits(tau, js))
        live = np.arange(n + 1)[None, :] <= k_stop[:, None]
        gaps = np.where(live, np.abs(v_full - y_flat[idx]), 0.0)
        path_gap = gaps.max(axis=1)
        max_gap = max(max_gap, float(path_gap.max()))
        bad = np.nonzero(path_gap > gap_tol)[0]
        if bad.size and first_fail is None:
            first_fail = int(pids[bad[0]])
    probe = probe_scale * (1.0 + abs(quote.price))
    if quote.side == "counterparty":
        probe = -probe  # the counterparty pays the price, so less is more
    exact = classify_quadruplet(
        quote.price, quote.solution.Z, sigma, tau, contract, view, gen, lat, eq_tol
    )
    up = classify_quadruplet(
        quote.price + probe, quote.solution.Z, sigma, tau, contract, view, gen, lat, eq_tol
    )
    down = classify_quadruplet(
        quote.price - probe, quote.solution.Z, sigma, tau, contract, view, gen, lat, eq_tol
    )
    return ReplicationReport(
        replicates=max_gap <= gap_tol,
        max_gap=max_gap,
        n_paths=n_paths,
        first_failing_path=first_fail,
        be=exact.be,
        ao_at_plus=up.ao,
        sh_fails_at_minus=not down.sh,
    )


@dataclass(frozen=True)
class RationalStopReport:
    """Rationality diagnosis of one stopping rule for the quote side's own stop."""

    rational: bool
    snell_value: float
    y0: float
    stops_on_upper: bool
    push_before_stop_max: float
    sufficient: bool
    push_at_join_max: float

    @property
    def consistent(self) -> bool:
        """Sufficiency implies rationality; a positive pre-join push forbids it."""
        ok = (not self.sufficient) or self.rational
        return ok and (not self.push_at_join_max > 0.0 or not self.rational)


def _own_payoff_and_cash(
    quote: QuoteResult, contract: ContractSpec, view: PartyView, lat: Lattice
) -> tuple[GamePayoff, NodeProcess]:
    """Game payoff oriented so the quote side sits in the minimizer seat."""
    payoff = game_payoff(contract, view, lat)
    return payoff, quote.inputs.cashflow_increments


def verify_rational_cancellation(
    sigma_rule: StoppingRule,
    quote: QuoteResult,
    contract: ContractSpec,
    view: PartyView,
    gen: Generator,
    lat: Lattice,
    eq_tol: float = 1e-9,
    include_stop_node_push: bool = False,
) -> RationalStopReport:
    """Decide whether stopping by sigma_rule keeps the quote side benchmark-safe.

    The decision is exact on the tree: the rule is rational iff the
    opponent's best response against it costs no more than the solved root
    value.  The report also carries the sufficiency evidence (stopping only
    where the value presses the upper obstacle, no earlier push) and the
    necessity probe (push accumulated before the rule meets the
    counterpart's exercise region).  Cumulative pushes count strictly earlier
    steps; set include_stop_node_push to also count the stop node's own
    increment (sensitivity analysis, not the convention the theory needs).
    """
    n = lat.n_steps
    _require_paths(n)
    payoff, cash = _own_payoff_and_cash(quote, contract, view, lat)
    snell = snell_sup_for_minimizer(lat, gen, cash, payoff, sigma_rule)
    y0 = quote.solution.Y.at(0, 0)
    rational = snell <= y0 + eq_tol * (1.0 + abs(y0))

    own_eq, _, other_eq, _ = _own_regions(quote)
    other_rule = rule_from_region(n, other_eq)
    y_flat = _flat(quote.solution.Y)
    upper_flat = _flat(quote.inputs.upper)
    du_flat = _flat(quote.solution.dU)
    stops_on_upper = True
    push_before = 0.0
    push_join = 0.0
    for pids, js, idx in _path_chunks(n):
        hits = _rule_hits(sigma_rule, js)
        rows = np.arange(js.shape[0])
        at_hit = idx[rows, hits]
        interior = hits < n  # stopping at T needs no obstacle contact
        on_upper = np.abs(y_flat[at_hit] - upper_flat[at_hit]) <= eq_tol * (
            1.0 + np.abs(y_flat[at_hit])
        )
        stops_on_upper &= bool(np.logical_or(~interior, on_upper).all())
        at_stop = _cum_at_stop(du_flat, idx, rows, hits, include_stop_node_push)
        push_before = max(push_before, float(at_stop.max()))
        joins = np.minimum(hits, _rule_hits(other_rule, js))
        at_join = _cum_at_stop(du_flat, idx, rows, joins, include_stop_node_push)
        push_join = max(push_join, float(at_join.max()))
    return RationalStopReport(
        rational=rational,
        snell_value=snell,
        y0=y0,
        stops_on_upper=stops_on_upper,
        push_before_stop_max=push_before,
        sufficient=stops_on_upper and push_before == 0.0,
        push_at_join_max=push_join,
    )


@dataclass(frozen=True)
class BreakEvenReport:
    """Five independent readings of whether a counterpart rule breaks even."""

    be_classified: bool
    na_classified: bool
    wealth_matches_game: bool
    solution_matches_game: bool
    attains_supremum: bool

    @property
    def flags(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.be_classified,
            self.na_classified,
            self.wealth_matches_game,
            self.solution_matches_game,
            self.attains_supremum,
        )

    @property
    def equivalent(self) -> bool:
        return len(set(self.flags)) == 1


def _game_value_at_stops(
    payoff_flats, hits_own: np.ndarray, hits_other: np.ndarray, idx: np.ndarray
):
    """Stopped game value per path; own rule pays the upper row, other the lower."""
    lo, hi, tie = payoff_flats
    k_stop = np.minimum(hits_own, hits_other)
    rows = np.arange(idx.shape[0])
    node = idx[rows, k_stop]
    val = np.where(hits_own < hits_other, hi[node],
                   np.where(hits_other < hits_own, lo[node], tie[node]))
    return val, k_stop


def verify_break_even(
    tau_rule: StoppingRule,
    quote: QuoteResult,
    contract: ContractSpec,
    view: PartyView,
    gen: Generator,
    lat: Lattice,
    eq_tol: float = 1e-9,
    include_stop_node_push: bool = False,
) -> BreakEvenReport:
    """Check one counterpart rule against all five break-even characterizations.

    (1) exact benchmark classification of the quadruplet, (2) its
    no-arbitrage reading, (3) forward wealth equal to the stopped game value
    path by path, (4) the solved value equal to the stopped game value with
    no lower push before the join and no upper push before the own stop,
    and (5) the rule attaining the best response against the own rule.
    They agree in theory; disagreement is a finding.  include_stop_node_push
    switches characterization (4) to count the stop node's own projection
    increment (sensitivity analysis only).
    """
    n = lat.n_steps
    _require_paths(n)
    own_eq, _, _, _ = _own_regions(quote)
    own_rule = rule_from_region(n, own_eq)
    sigma, tau = (own_rule, tau_rule) if quote.side == "hedger" else (tau_rule, own_rule)
    exact = classify_quadruplet(
        quote.price, quote.solution.Z, sigma, tau, contract, view, gen, lat, eq_tol
    )

    payoff, cash = _own_payoff_and_cash(quote, contract, view, lat)
    payoff_flats = (_flat(payoff.on_lower), _flat(payoff.on_upper), _flat(payoff.on_tie))
    y0 = quote.solution.Y.at(0, 0)
    y_flat = _flat(quote.solution.Y)
    dl_flat = _flat(quote.solution.dL)
    du_flat = _flat(quote.solution.dU)
    wealth_matches = True
    solution_matches = True
    for pids, js, idx in _path_chunks(n):
        rows = np.arange(js.shape[0])
        hits_own = _rule_hits(own_rule, js)
        hits_other = _rule_hits(tau_rule, js)
        game_val, k_stop = _game_value_at_stops(payoff_flats, hits_own, hits_other, idx)
        tol = eq_tol * (1.0 + np.abs(game_val))
        v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
        wealth_matches &= bool((np.abs(v_full[rows, k_stop] - game_val) <= tol).all())
        y_stop = y_flat[idx[rows, k_stop]]
        l_before = _cum_at_stop(dl_flat, idx, rows, k_stop, include_stop_node_push)
        u_before = _cum_at_stop(du_flat, idx, rows, hits_own, include_stop_node_push)
        solution_matches &= bool(
            ((np.abs(y_stop - game_val) <= tol) & (l_before == 0.0) & (u_before == 0.0)).all()
        )
    stopped_val = evaluate_stopped(lat, gen, cash, payoff, own_rule, tau_rule)
    snell = snell_sup_for_minimizer(lat, gen, cash, payoff, own_rule)
    attains = abs(stopped_val - snell) <= eq_tol * (1.0 + abs(snell))
    return BreakEvenReport(
        be_classified=exact.be,
        na_classified=exact.na,
        wealth_matches_game=wealth_matches,
        solution_matches_game=solution_matches,
        attains_supremum=attains,
    )


@dataclass(frozen=True)
class BatteryReport:
    """Exhaustive stopping-rule audit of one quote.

    Counterexample tuples hold rule ids (bitmask order); every one should
    be empty.  canonical_rational covers the first-contact and first-push
    rules on the quote side; the earliest/latest checks are conditional on
    their pathwise premises as reported.
    """

    n_rules: int
    n_paths: int
    rational_count: int
    canonical_rational: bool
    sufficiency_counterexamples: tuple[int, ...]
    necessity_counterexamples: tuple[int, ...]
    earliest_counterexamples: tuple[int, ...]
    latest_counterexamples: tuple[int, ...]
    breakeven_count: int
    breakeven_disagreements: tuple[int, ...]
    counterpart_earliest_premise: bool
    counterpart_earliest_counterexamples: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.canonical_rational and not (
            self.sufficiency_counterexamples
            or self.necessity_counterexamples
            or self.earliest_counterexamples
            or self.latest_counterexamples
            or self.breakeven_disagreements
            or self.counterpart_earliest_counterexamples
        )


def stopping_time_battery(
    quote: QuoteResult,
    contract: ContractSpec,
    view: PartyView,
    gen: Generator,
    lat: Lattice,
    eq_tol: float = 1e-9,
) -> BatteryReport:
    """Audit every enumerable stopping rule against the quote's claims.

    Own-side sweep: rationality per rule (exact best-response test),
    sufficiency implies rationality, positive pre-join push forbids it, and
    the conditional earliest/latest pins against the canonical rules.
    Counterpart sweep: the five break-even characterizations must agree for
    every rule, and when the own rule never precedes the counterpart's
    first-contact rule, no break-even rule may beat that contact time.
    """
    n = lat.n_steps
    m = _require_enumerable(n)
    n_rules = 1 << m
    n_paths = _require_paths(n)
    if n_paths > 1 << 12:
        raise TooManyPaths(f"battery caps at {1 << 12} paths, lattice has {n_paths}")

    payoff, cash = _own_payoff_and_cash(quote, contract, view, lat)
    payoff_flats = (_flat(payoff.on_lower), _flat(payoff.on_upper), _flat(payoff.on_tie))
    y0 = quote.solution.Y.at(0, 0)
    val_tol = eq_tol * (1.0 + abs(y0))

    own_eq, own_bar, other_eq, other_bar = _own_regions(quote)
    own_rule = rule_from_region(n, own_eq)
    own_bar_rule = rule_from_region(n, own_bar)
    other_rule = rule_from_region(n, other_eq)
    other_bar_rule = rule_from_region(n, other_bar)

    pids = np.arange(n_paths, dtype=np.int64)
    js = path_up_counts(path_moves(pids, n))
    idx = _flat_idx(js)
    rows = np.arange(n_paths)
    v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
    y_flat = _flat(quote.solution.Y)
    upper_flat = _flat(quote.inputs.upper)
    u_before = _before_cumsum(_flat(quote.solution.dU), idx)
    l_before = _before_cumsum(_flat(quote.solution.dL), idx)
    settlements = _settlement_flats(contract, view, lat)
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)

    hits_own_canon = _rule_hits(own_rule, js)
    hits_own_bar = _rule_hits(own_bar_rule, js)
    hits_other_canon = _rule_hits(other_rule, js)
    hits_other_bar = _rule_hits(other_bar_rule, js)

    all_hits = np.empty((n_rules, n_paths), dtype=np.int64)
    for rid in range(n_rules):
        all_hits[rid] = _rule_hits(rule_from_id(n, rid), js)

    # own-side sweep: rationality is one vectorized best-response pass
    sup_vals = sup_values_by_minimizer_rule(lat, gen, cash, payoff)
    rational = sup_vals <= y0 + val_tol
    canonical_rational = bool(
        rational[rule_to_id(own_rule)] and rational[rule_to_id(own_bar_rule)]
    )

    sufficiency_bad: list[int] = []
    necessity_bad: list[int] = []
    earliest_bad: list[int] = []
    latest_bad: list[int] = []
    early_event = hits_own_canon <= hits_other_bar
    late_event = hits_own_bar < hits_other_bar
    for rid in range(n_rules):
        hits = all_hits[rid]
        at_hit = idx[rows, hits]
        interior = hits < n
        on_upper = np.abs(y_flat[at_hit] - upper_flat[at_hit]) <= eq_tol * (
            1.0 + np.abs(y_flat[at_hit])
        )
        sufficient = bool(
            np.logical_or(~interior, on_upper).all() and u_before[rows, hits].max() == 0.0
        )
        if sufficient and not rational[rid]:
            sufficiency_bad.append(rid)
        joins = np.minimum(hits, hits_other_canon)
        if rational[rid] and u_before[rows, joins].max() > 0.0:
            necessity_bad.append(rid)
        if rational[rid]:
            if early_event.any() and (hits[early_event] <= hits_own_canon[early_event]).all():
                if not (hits[early_event] == hits_own_canon[early_event]).all():
                    earliest_bad.append(rid)
            if late_event.any() and (hits[late_event] >= hits_own_bar[late_event]).all():
                if not (hits[late_event] == hits_own_bar[late_event]).all():
                    latest_bad.append(rid)

    # counterpart sweep: five break-even readings per rule
    pair_vals = stopped_values_for_maximizer_rules(lat, gen, cash, payoff, own_rule)
    snell = snell_sup_for_minimizer(lat, gen, cash, payoff, own_rule)
    attains = np.abs(pair_vals - snell) <= eq_tol * (1.0 + abs(snell))
    breakeven_bad: list[int] = []
    breakeven_ids: list[int] = []
    premise = bool((hits_own_canon >= hits_other_canon).all())
    counterpart_early_bad: list[int] = []
    for rid in range(n_rules):
        hits = all_hits[rid]
        game_val, k_stop = _game_value_at_stops(payoff_flats, hits_own_canon, hits, idx)
        tol = eq_tol * (1.0 + np.abs(game_val))
        settle_diff, settle_tol, _ = _stop_comparison(
            v_full, *_orient_hits(quote.side, hits_own_canon, hits), idx, settlements, vb, eq_tol
        )
        be_flag = bool((np.abs(settle_diff) <= settle_tol).all())
        na_flag = be_flag or bool((settle_diff < -settle_tol).any())
        wealth_flag = bool((np.abs(v_full[rows, k_stop] - game_val) <= tol).all())
        y_stop = y_flat[idx[rows, k_stop]]
        sol_flag = bool(
            (
                (np.abs(y_stop - game_val) <= tol)
                & (l_before[rows, k_stop] == 0.0)
                & (u_before[rows, hits_own_canon] == 0.0)
            ).all()
        )
        flags = (be_flag, na_flag, wealth_flag, sol_flag, bool(attains[rid]))
        if len(set(flags)) != 1:
            breakeven_bad.append(rid)
        if be_flag:
            breakeven_ids.append(rid)
            if premise and not (np.minimum(hits, hits_own_canon) >= hits_other_canon).all():
                counterpart_early_bad.append(rid)

    return BatteryReport(
        n_rules=n_rules,
        n_paths=n_paths,
        rational_count=int(rational.sum()),
        canonical_rational=canonical_rational,
        sufficiency_counterexamples=tuple(sufficiency_bad),
        necessity_counterexamples=tuple(necessity_bad),
        earliest_counterexamples=tuple(earliest_bad),
        latest_counterexamples=tuple(latest_bad),
        breakeven_count=len(breakeven_ids),
        breakeven_disagreements=tuple(breakeven_bad),
        counterpart_earliest_premise=premise,
        counterpart_earliest_counterexamples=tuple(counterpart_early_bad),
    )


def _orient_hits(side: str, hits_own: np.ndarray, hits_other: np.ndarray):
    """Map own/other hits back to (sigma, tau) order for settlement selection."""
    if side == "hedger":
        return hits_own, hits_other
    return hits_other, hits_own
