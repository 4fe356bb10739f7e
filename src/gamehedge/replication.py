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

from .drbsde import evaluate_stopped, snell_sup_for_minimizer
from .dynkin import (
    _require_enumerable,
    rule_to_id,
    stopped_values_for_maximizer_rules,
    sup_values_by_minimizer_rule,
)
from .errors import NonFiniteState, OutOfRange, TooManyPaths
from .generators import Generator, eval_g
from .lattice import Lattice, NodeProcess, benchmark_profile, tri
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
        yield pids, js, _node_idx(js)


def _node_idx(js: np.ndarray) -> np.ndarray:
    """Flat node index at every step of paths given by their up-counts."""
    return tri(np.arange(js.shape[-1]), js)


def _rule_hits(rule: StoppingRule, idx: np.ndarray) -> np.ndarray:
    """First marked step of every path, given the paths' flat node indices."""
    return np.argmax(rule.flat[idx], axis=1)


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


def _cum_at_stop(flat, idx, stops, include_stop_node: bool):
    """Cumulative push at the stop.  Stopping preempts the stop node's own
    projection push by default; including it is a sensitivity knob."""
    rows = np.arange(idx.shape[0])
    total = _before_cumsum(flat, idx)[rows, stops]
    if include_stop_node:
        total = total + flat[idx[rows, stops]]
    return total


def solution_path(quote: QuoteResult, path) -> WealthPath:
    """The solved value along one path, or every row of a move matrix, with its
    cumulative reflection pushes."""
    idx = _node_idx(path_up_counts(path))
    sol = quote.solution
    return WealthPath(
        path=path,
        values=sol.Y.flat[idx],
        L_cum=_before_cumsum(sol.dL.flat, idx),
        U_cum=_before_cumsum(sol.dU.flat, idx),
    )


def _stop_comparison(
    v_full: np.ndarray,
    hits_sigma: np.ndarray,
    hits_tau: np.ndarray,
    idx: np.ndarray,
    contract: ContractSpec,
    view: PartyView,
    vb: np.ndarray,
    eq_tol: float,
):
    """Per-path comparison of stopped wealth plus settlement against the benchmark.

    Settlements are hedger-signed, so the counterparty's wealth adds them negated.
    """
    xh, xc, xm = contract.Xh.flat, contract.Xc.flat, contract.Xbar.flat
    sign = 1.0 if view.side == "hedger" else -1.0
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
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)
    y0 = view.endowment + price if view.side == "hedger" else view.endowment - price
    cash = contract.dA if view.side == "hedger" else NodeProcess(-contract.dA.flat)
    all_ge = True
    all_eq = True
    any_gt = False
    any_lt = False
    witnesses: dict[str, list[int]] = {"strict_gain": [], "shortfall": [], "off_equal": []}
    for pids, js, idx in _path_chunks(n):
        v_full = _forward_matrix(y0, hedge, gen, cash, lat, js)
        diff, tol, _ = _stop_comparison(
            v_full, _rule_hits(sigma, idx), _rule_hits(tau, idx), idx, contract, view, vb, eq_tol
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
    own_rule = StoppingRule.from_nodes(n, own_eq)
    other_rule = StoppingRule.from_nodes(n, other_eq)
    sigma, tau = (own_rule, other_rule) if quote.side == "hedger" else (other_rule, own_rule)
    y0 = quote.solution.Y.at(0, 0)
    y_flat = quote.solution.Y.flat
    cash = quote.inputs.cashflow_increments
    max_gap = 0.0
    first_fail: int | None = None
    for pids, js, idx in _path_chunks(n):
        v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
        k_stop = np.minimum(_rule_hits(sigma, idx), _rule_hits(tau, idx))
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
    exact, up, down = (
        classify_quadruplet(price, quote.solution.Z, sigma, tau, contract, view, gen, lat, eq_tol)
        for price in (quote.price, quote.price + probe, quote.price - probe)
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


def _own_stop_evidence(quote, hits, hits_other, idx, eq_tol, include_stop_node_push):
    """Per rule (rows of ``hits``, one column per path): whether every interior stop presses
    the upper obstacle, and the largest upper push before the stop and before the join."""
    at_hit = idx[np.arange(idx.shape[0]), hits]
    y_hit, upper_hit = quote.solution.Y.flat[at_hit], quote.inputs.upper.flat[at_hit]
    on_upper = np.abs(y_hit - upper_hit) <= eq_tol * (1.0 + np.abs(y_hit))
    du_flat = quote.solution.dU.flat
    stops_at_t = hits >= idx.shape[1] - 1  # stopping at T needs no obstacle contact
    joins = np.minimum(hits, hits_other)
    return (
        (stops_at_t | on_upper).all(axis=-1),
        _cum_at_stop(du_flat, idx, hits, include_stop_node_push).max(axis=-1),
        _cum_at_stop(du_flat, idx, joins, include_stop_node_push).max(axis=-1),
    )


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
    payoff, cash = game_payoff(contract, view, lat), quote.inputs.cashflow_increments
    snell = snell_sup_for_minimizer(lat, gen, cash, payoff, sigma_rule)
    y0 = quote.solution.Y.at(0, 0)
    rational = snell <= y0 + eq_tol * (1.0 + abs(y0))

    own_eq, _, other_eq, _ = _own_regions(quote)
    other_rule = StoppingRule.from_nodes(n, other_eq)
    stops_on_upper = True
    push_before = 0.0
    push_join = 0.0
    for _, _, idx in _path_chunks(n):
        on_upper, before, join = _own_stop_evidence(
            quote, _rule_hits(sigma_rule, idx), _rule_hits(other_rule, idx), idx, eq_tol,
            include_stop_node_push,
        )
        stops_on_upper &= bool(on_upper)
        push_before = max(push_before, float(before))
        push_join = max(push_join, float(join))
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


def _game_readings(quote, payoff, hits_own, hits_other, idx, v_full, eq_tol,
                   include_stop_node_push):
    """Per rule (rows of ``hits_other``): forward wealth equals the stopped game value on
    every path, and so does the solved value with no lower push before the join and no
    upper push before the own stop.  The own rule's stop pays the upper row, the other's
    the lower and a joint stop the tie row."""
    k_stop = np.minimum(hits_own, hits_other)
    rows = np.arange(idx.shape[0])
    node = idx[rows, k_stop]
    game_val = np.where(hits_own < hits_other, payoff.on_upper.flat[node],
                        np.where(hits_other < hits_own, payoff.on_lower.flat[node],
                                 payoff.on_tie.flat[node]))
    tol = eq_tol * (1.0 + np.abs(game_val))
    y_stop = quote.solution.Y.flat[node]
    l_before = _cum_at_stop(quote.solution.dL.flat, idx, k_stop, include_stop_node_push)
    u_before = _cum_at_stop(quote.solution.dU.flat, idx, hits_own, include_stop_node_push)
    return (
        (np.abs(v_full[rows, k_stop] - game_val) <= tol).all(axis=-1),
        ((np.abs(y_stop - game_val) <= tol) & (l_before == 0.0) & (u_before == 0.0)).all(axis=-1),
    )


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
    own_rule = StoppingRule.from_nodes(n, own_eq)
    sigma, tau = (own_rule, tau_rule) if quote.side == "hedger" else (tau_rule, own_rule)
    exact = classify_quadruplet(
        quote.price, quote.solution.Z, sigma, tau, contract, view, gen, lat, eq_tol
    )

    payoff, cash = game_payoff(contract, view, lat), quote.inputs.cashflow_increments
    y0 = quote.solution.Y.at(0, 0)
    wealth_matches = True
    solution_matches = True
    for _, js, idx in _path_chunks(n):
        v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
        wealth, solution = _game_readings(
            quote, payoff, _rule_hits(own_rule, idx), _rule_hits(tau_rule, idx), idx,
            v_full, eq_tol, include_stop_node_push,
        )
        wealth_matches &= bool(wealth)
        solution_matches &= bool(solution)
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

    payoff, cash = game_payoff(contract, view, lat), quote.inputs.cashflow_increments
    y0 = quote.solution.Y.at(0, 0)
    val_tol = eq_tol * (1.0 + abs(y0))

    own_eq, own_bar, other_eq, other_bar = _own_regions(quote)
    own_rule = StoppingRule.from_nodes(n, own_eq)
    own_bar_rule = StoppingRule.from_nodes(n, own_bar)
    other_rule = StoppingRule.from_nodes(n, other_eq)
    other_bar_rule = StoppingRule.from_nodes(n, other_bar)

    js = path_up_counts(path_moves(np.arange(n_paths, dtype=np.int64), n))
    idx = _node_idx(js)
    v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)

    hits_own_canon = _rule_hits(own_rule, idx)
    hits_own_bar = _rule_hits(own_bar_rule, idx)
    hits_other_canon = _rule_hits(other_rule, idx)
    hits_other_bar = _rule_hits(other_bar_rule, idx)

    # first hits of every rule id at once: bit i marks flat node i, the terminal row always
    ids = np.arange(n_rules)[:, None, None]
    all_hits = np.argmax((idx >= m) | (((ids >> idx) & 1) == 1), axis=2)

    # own-side sweep: rationality is one vectorized best-response pass, the
    # pathwise evidence one array with a row per rule id and a column per path
    sup_vals = sup_values_by_minimizer_rule(lat, gen, cash, payoff)
    rational = sup_vals <= y0 + val_tol
    canonical_rational = bool(
        rational[rule_to_id(own_rule)] and rational[rule_to_id(own_bar_rule)]
    )
    on_upper, push_before, push_join = _own_stop_evidence(
        quote, all_hits, hits_other_canon, idx, eq_tol, False
    )
    sufficient = on_upper & (push_before == 0.0)

    def pinned_elsewhere(event, hits_canon, compare):
        """Rational rules that compare true to the canonical hits on the event, yet differ."""
        hits, canon = all_hits[:, event], hits_canon[event]
        if not event.any():
            return np.zeros(n_rules, dtype=bool)
        return rational & compare(hits, canon).all(axis=1) & ~(hits == canon).all(axis=1)

    earliest_bad = pinned_elsewhere(hits_own_canon <= hits_other_bar, hits_own_canon, np.less_equal)
    latest_bad = pinned_elsewhere(hits_own_bar < hits_other_bar, hits_own_bar, np.greater_equal)

    # counterpart sweep: five break-even readings per rule
    pair_vals = stopped_values_for_maximizer_rules(lat, gen, cash, payoff, own_rule)
    snell = snell_sup_for_minimizer(lat, gen, cash, payoff, own_rule)
    attains = np.abs(pair_vals - snell) <= eq_tol * (1.0 + abs(snell))
    premise = bool((hits_own_canon >= hits_other_canon).all())
    sigma_tau = (hits_own_canon, all_hits) if quote.side == "hedger" else (all_hits, hits_own_canon)
    settle_diff, settle_tol, _ = _stop_comparison(
        v_full, *sigma_tau, idx, contract, view, vb, eq_tol
    )
    be = (np.abs(settle_diff) <= settle_tol).all(axis=1)
    na = be | (settle_diff < -settle_tol).any(axis=1)
    wealth, solution = _game_readings(
        quote, payoff, hits_own_canon, all_hits, idx, v_full, eq_tol, False
    )
    flags = np.stack([be, na, wealth, solution, attains])
    counterpart_early = premise & be & ~(
        np.minimum(all_hits, hits_own_canon) >= hits_other_canon
    ).all(axis=1)

    ids_where = lambda mask: tuple(np.flatnonzero(mask).tolist())  # noqa: E731
    return BatteryReport(
        n_rules=n_rules,
        n_paths=n_paths,
        rational_count=int(rational.sum()),
        canonical_rational=canonical_rational,
        sufficiency_counterexamples=ids_where(sufficient & ~rational),
        necessity_counterexamples=ids_where(rational & (push_join > 0.0)),
        earliest_counterexamples=ids_where(earliest_bad),
        latest_counterexamples=ids_where(latest_bad),
        breakeven_count=int(be.sum()),
        breakeven_disagreements=ids_where(flags.any(axis=0) != flags.all(axis=0)),
        counterpart_earliest_premise=premise,
        counterpart_earliest_counterexamples=ids_where(counterpart_early),
    )
