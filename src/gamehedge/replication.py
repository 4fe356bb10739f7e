"""Forward verification of quotes: replication, classification, stopping batteries.

Everything here re-derives claims made by the backward solve from the other
direction: wealth is rolled forward path by path with the solved hedge, the
candidate price is classified by comparing stopped wealth plus settlement
against the benchmark on every path, and stopping-rule claims are checked
against exhaustive rule enumeration.

Path convention: a path is a 0/1 up-move sequence; path ids pack the moves
little-endian (bit i = move at step i).  Each pathwise check is written once
over rule rows (one row for a fixed rule, one per rule id in the battery)
and folded over blocks of rule rows × paths, so full enumeration stays
affordable up to the hard cap of 2**24 paths and the battery's memory does
not grow with the number of paths.  Each verifier runs one fold.  Wealth and
solved paths are plain arrays, (N + 1,) for one path or (P, N + 1) for P.

Side convention: reports work in solution coordinates, where the quote
side's own stopping presses the upper obstacle (recording dU) and the
counterpart's the lower (recording dL); stops and signed settlements are
read as (own, other).  That makes hedger and counterparty batteries the
same computation with the region roles swapped.

A quote's verifiers take its problem from the quote itself (contract, view,
and the generator, lattice and cash flow of ``quote.inputs``) and judge every
equality at the quote's ``region_tol``; the game they judge against is
rebuilt from the contract and view, not read from the stored rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drbsde import DrbsdeInputs, _check_steps, evaluate_stopped, snell_sup_for_minimizer
from .dynkin import (
    _require_enumerable,
    rule_to_id,
    stopped_values_for_maximizer_rules,
    sup_values_by_minimizer_rule,
)
from .errors import InvalidParameters, InvalidStoppingRule, NonFiniteState, OutOfRange, TooLarge
from .generators import Generator, _check_positive, eval_g
from .lattice import Lattice, NodeProcess, benchmark_profile, tri
from .pricing import (ContractSpec, PartyView, QuoteResult, _initial_wealth, _side_cash,
                      side_obstacles)
from .stopping import StoppingRule, path_moves, path_up_counts

__all__ = [
    "MAX_PATH_STEPS",
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
_BLOCK = 1 << 20  # rule rows × paths × steps that one block of the path fold holds
_MAX_WITNESSES = 8
_PROBE = 1e-6  # replication's price probe, relative to 1 + |price|


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


def _fold(n_steps: int, n_rows: int, block) -> dict:
    """Run ``block(pids, js, idx)`` over every path, at most _BLOCK rule rows × paths × steps
    at a time (path ids, their up-counts and flat node indices), and fold its named results
    across blocks: flags by all, maxima by max, path ids in order up to _MAX_WITNESSES."""
    if n_steps > MAX_PATH_STEPS:
        raise TooLarge(f"{1 << n_steps} paths exceed the {1 << MAX_PATH_STEPS} enumeration cap")
    n_paths, size = 1 << n_steps, max(1, _BLOCK // (n_rows * (n_steps + 1)))
    out: dict = {}
    for start in range(0, n_paths, size):
        pids = np.arange(start, min(start + size, n_paths), dtype=np.int64)
        js = path_up_counts(path_moves(pids, n_steps))
        for name, value in block(pids, js, _node_idx(js)).items():
            if value.dtype.kind == "i":
                value = np.concatenate([out.get(name, value[:0]), value])[:_MAX_WITNESSES]
            elif name in out:
                value = (np.logical_and if value.dtype == bool else np.maximum)(out[name], value)
            out[name] = value
    return out


def _node_idx(js: np.ndarray) -> np.ndarray:
    """Flat node index at every step of paths given by their up-counts."""
    return tri(np.arange(js.shape[-1]), js)


def _hits(rule: StoppingRule | None, idx: np.ndarray) -> np.ndarray:
    """First stop step on every path of ``idx``: one row for a fixed rule, or (``None``) a row
    per rule id, whose bit i marks flat node i; the terminal row always stops."""
    if rule is not None:
        return np.argmax(rule.flat[idx], axis=-1)
    # node indices grow along a path, so a rule's first marked node there is the lowest set
    # bit of (rule id & the path's interior-node mask); with no bit set it stops at step n
    n = idx.shape[-1] - 1
    m = tri(n)
    first = np.arange(1 << m)[:, None] & np.bitwise_or.reduce(1 << idx[:, :n], axis=-1)
    first &= -first
    step = np.full(1 << m, n)  # indexed by the lowest set bit, 1 << tri(k, j) -> k
    step[1 << np.arange(m)] = np.repeat(np.arange(n), np.arange(1, n + 1))
    return step[first]


def _forward_matrix(
    y0, hedge: NodeProcess, gen: Generator, cashflow: NodeProcess, lat: Lattice,
    js: np.ndarray,
) -> np.ndarray:
    """Wealth at every step of every path (no stopping); a 1-D y0 adds a leading row axis."""
    _check_steps(lat, OutOfRange, hedge=hedge, cashflow_increments=cashflow)
    n, dt = lat.n_steps, lat.dt
    y0 = np.asarray(y0, dtype=np.float64)
    out = np.empty(y0.shape + (js.shape[0], n + 1))
    out[..., 0] = y0[..., None]
    for k in range(n):
        s_now = lat.spot.row(k)[js[:, k]]
        s_nxt = lat.spot.row(k + 1)[js[:, k + 1]]
        xi = hedge.row(k)[js[:, k]]
        cash = cashflow.row(k)[js[:, k]]
        v = out[..., k]
        out[..., k + 1] = v - eval_g(gen, k * dt, v, xi, s_now) * dt + xi * (s_nxt - s_now) + cash
        if not np.isfinite(out[..., k + 1]).all():
            raise NonFiniteState(f"wealth became non-finite advancing to step {k + 1}")
    return out


def _path_up_counts(path, n_steps: int) -> np.ndarray:
    """Up-counts of one path or every row of a move matrix, which must have n_steps moves."""
    js = path_up_counts(path)
    if js.shape[-1] != n_steps + 1:
        raise OutOfRange(f"path must have {n_steps} moves, got {js.shape[-1] - 1}")
    return js


def forward_wealth(
    y0: float,
    hedge: NodeProcess,
    gen: Generator,
    cashflow_increments: NodeProcess,
    lat: Lattice,
    path,
) -> np.ndarray:
    """Wealth rolled forward from y0 along one path, (N + 1,), or every row of a move matrix,
    (P, N + 1), with the given hedge and flows (one batched pass)."""
    js = _path_up_counts(path, lat.n_steps)
    return _forward_matrix(float(y0), hedge, gen, cashflow_increments, lat,
                           js.reshape(-1, js.shape[-1])).reshape(js.shape)


def _before_cumsum(flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Cumulative node values along each path counting strictly earlier steps."""
    along = flat[idx]
    out = np.zeros_like(along)
    np.cumsum(along[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _cum_at_stop(flat: np.ndarray, idx: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Cumulative push at each path's stop; stopping preempts the stop node's own push."""
    return _before_cumsum(flat, idx)[np.arange(idx.shape[0]), stops]


def solution_path(quote: QuoteResult, path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solved value along one path, or every row of a move matrix, and its cumulative
    lower and upper pushes before each step: (Y, L_cum, U_cum), shaped as the wealth."""
    idx = _node_idx(_path_up_counts(path, quote.inputs.lat.n_steps))
    sol = quote.solution
    return sol.Y.flat[idx], _before_cumsum(sol.dL.flat, idx), _before_cumsum(sol.dU.flat, idx)


def _stop_pay(first, second, idx, first_pays, second_pays, tie_pays):
    """Stop step, node and payment per row and path when two rules race: the earlier stop
    pays its own row, a joint stop pays the tie row."""
    k_stop = np.minimum(first, second)
    node = idx[np.arange(idx.shape[0]), k_stop]
    pay = np.where(first < second, first_pays[node],
                   np.where(second < first, second_pays[node], tie_pays[node]))
    return k_stop, node, pay


def _settlements(contract: ContractSpec, view: PartyView):
    """The side's signed settlement rows (own stop first, other stop first, joint stop):
    (Xh, Xc, Xbar) for the hedger, (-Xc, -Xh, -Xbar) for the counterparty, who pays them."""
    xh, xc, xm = contract.Xh.flat, contract.Xc.flat, contract.Xbar.flat
    return (xh, xc, xm) if view.side == "hedger" else (-xc, -xh, -xm)


def _benchmark_rows(v_full, hits_own, hits_other, idx, settle, vb, eq_tol):
    """Stopped wealth plus the side's settlement minus the benchmark per row and path, its
    tolerance, and each row's flags over the paths: no shortfall (sh), equality (be), no
    strict gain.  Wealth rows may carry a leading axis, one entry per initial wealth."""
    k_stop, _, pay = _stop_pay(hits_own, hits_other, idx, *settle)
    rhs = vb[k_stop]
    diff = v_full[..., np.arange(idx.shape[0]), k_stop] + pay - rhs
    tol = eq_tol * (1.0 + np.abs(rhs))
    flags = {"sh": (diff >= -tol).all(axis=-1), "be": (np.abs(diff) <= tol).all(axis=-1),
             "no_gain": (diff <= tol).all(axis=-1)}
    return diff, tol, flags


def _own_rows(quote, hits, hits_other, idx):
    """Per own rule row, over the paths: every interior stop presses the upper obstacle, and
    the largest upper push before the stop and before the join with the counterpart."""
    at_hit = idx[np.arange(idx.shape[0]), hits]
    y_hit, upper_hit = quote.solution.Y.flat[at_hit], quote.inputs.upper.flat[at_hit]
    on_upper = np.abs(y_hit - upper_hit) <= quote.region_tol * (1.0 + np.abs(y_hit))
    du_flat = quote.solution.dU.flat
    stops_at_t = hits >= idx.shape[1] - 1  # stopping at T needs no obstacle contact
    return {
        "on_upper": (stops_at_t | on_upper).all(axis=-1),
        "push_before": _cum_at_stop(du_flat, idx, hits).max(axis=-1),
        "push_join": _cum_at_stop(du_flat, idx, np.minimum(hits, hits_other)).max(axis=-1),
    }


def _counterpart_rows(quote, game, settle, vb, v_full, hits_own, hits, idx):
    """Per counterpart rule row, over the paths: the benchmark flags of wealth stopped against
    the own rule; forward wealth equal to the stopped game value; and the solved value equal
    to it with no lower push before the join and no upper push before the own stop."""
    _, _, flags = _benchmark_rows(v_full, hits_own, hits, idx, settle, vb, quote.region_tol)
    k_stop, node, game_val = _stop_pay(hits_own, hits, idx, game.upper.flat, game.lower.flat,
                                       game.tie.flat)
    tol = quote.region_tol * (1.0 + np.abs(game_val))
    sol = quote.solution
    l_before = _cum_at_stop(sol.dL.flat, idx, k_stop)
    u_before = _cum_at_stop(sol.dU.flat, idx, hits_own)
    wealth = np.abs(v_full[np.arange(idx.shape[0]), k_stop] - game_val) <= tol
    solution = (np.abs(sol.Y.flat[node] - game_val) <= tol) & (l_before == 0.0) & (u_before == 0.0)
    return {**flags, "wealth": wealth.all(axis=-1), "solution": solution.all(axis=-1)}


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
    _check_positive("eq_tol", eq_tol)
    _check_steps(lat, InvalidStoppingRule, sigma=sigma, tau=tau)
    _check_steps(lat, InvalidParameters, contract=contract)
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)
    y0, cash = _initial_wealth(view, price), _side_cash(contract, view)
    own, other = (sigma, tau) if view.side == "hedger" else (tau, sigma)
    settle = _settlements(contract, view)

    def block(pids, js, idx):
        v_full = _forward_matrix(y0, hedge, gen, cash, lat, js)
        diff, tol, flags = _benchmark_rows(
            v_full, _hits(own, idx), _hits(other, idx), idx, settle, vb, eq_tol
        )
        return {**flags, "strict_gain": pids[diff > tol], "shortfall": pids[diff < -tol],
                "off_equal": pids[np.abs(diff) > tol]}

    out = _fold(lat.n_steps, 1, block)
    sh, be = bool(out["sh"]), bool(out["be"])
    return ConditionReport(
        sh=sh, ao=sh and not out["no_gain"], be=be, na=be or not sh,
        witness_paths={k: tuple(out[k].tolist())
                       for k in ("strict_gain", "shortfall", "off_equal")},
    )


def _own_rules(quote: QuoteResult, n_steps: int):
    """(own, own push, other, other push) stopping rules in solution coordinates."""
    regions = (quote.region_sigma, quote.region_bar_sigma, quote.region_tau, quote.region_bar_tau)
    if quote.view.side != "hedger":
        regions = regions[2:] + regions[:2]
    return tuple(StoppingRule.from_nodes(n_steps, region) for region in regions)


def _game(quote: QuoteResult) -> DrbsdeInputs:
    """The stopped game of the quote's problem, rebuilt from its contract and view so that a
    wrong stored row of ``quote.inputs`` cannot also corrupt the game judged against."""
    return side_obstacles(quote.contract, quote.view, quote.inputs.gen, quote.inputs.lat)


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


def verify_replication(quote: QuoteResult, gap_tol: float = 1e-10) -> ReplicationReport:
    """Wealth from the quoted price must track the solved value until someone stops.

    Also classifies the quoted price exactly (break-even) and probes one
    epsilon in each direction so the price is pinned from both sides.  "Plus"
    is the direction that grows the party's hedging capital: a higher price
    for the hedger (who collects it), a lower one for the counterparty (who
    pays it).  There the strict-gain condition must appear; on the opposite
    side the benchmark-safety condition must fail.
    """
    _check_positive("gap_tol", gap_tol)
    lat, gen, cash = quote.inputs.lat, quote.inputs.gen, quote.inputs.cashflow_increments
    n, view, price = lat.n_steps, quote.view, quote.price
    own_rule, _, other_rule, _ = _own_rules(quote, n)
    probe = _PROBE * (1.0 + abs(price))
    if view.side == "counterparty":
        probe = -probe  # the counterparty pays the price, so less is more
    # row 0 tracks the solved value; rows 1 to 3 are classified at price, plus and minus
    y0 = [quote.y0] + [_initial_wealth(view, p) for p in (price, price + probe, price - probe)]
    settle, y_flat = _settlements(quote.contract, view), quote.solution.Y.flat
    vb = benchmark_profile(view.acct, view.endowment, lat.grid)

    def block(pids, js, idx):
        v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
        h_own, h_other = _hits(own_rule, idx), _hits(other_rule, idx)
        live = np.arange(n + 1)[None, :] <= np.minimum(h_own, h_other)[:, None]
        path_gap = np.where(live, np.abs(v_full[0] - y_flat[idx]), 0.0).max(axis=1)
        _, _, flags = _benchmark_rows(v_full[1:], h_own, h_other, idx, settle, vb,
                                      quote.region_tol)
        return {**flags, "max_gap": path_gap.max(), "failing": pids[path_gap > gap_tol]}

    out = _fold(n, len(y0), block)
    max_gap = float(out["max_gap"])
    return ReplicationReport(
        replicates=max_gap <= gap_tol,
        max_gap=max_gap,
        n_paths=1 << n,
        first_failing_path=int(out["failing"][0]) if out["failing"].size else None,
        be=bool(out["be"][0]),
        ao_at_plus=bool(out["sh"][1] and not out["no_gain"][1]),
        sh_fails_at_minus=not out["sh"][2],
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


def verify_rational_cancellation(sigma_rule: StoppingRule,
                                 quote: QuoteResult) -> RationalStopReport:
    """Decide whether stopping by sigma_rule keeps the quote side benchmark-safe.

    The decision is exact on the tree: the rule is rational iff the
    opponent's best response against it costs no more than the solved root
    value.  The report also carries the sufficiency evidence (stopping only
    where the value presses the upper obstacle, no earlier push) and the
    necessity probe (push accumulated before the rule meets the
    counterpart's exercise region).  Cumulative pushes count strictly earlier
    steps.
    """
    game = _game(quote)
    n = game.lat.n_steps
    snell = snell_sup_for_minimizer(game, sigma_rule)
    y0 = quote.y0
    rational = snell <= y0 + quote.region_tol * (1.0 + abs(y0))
    other_rule = _own_rules(quote, n)[2]
    out = _fold(n, 1, lambda pids, js, idx: _own_rows(
        quote, _hits(sigma_rule, idx), _hits(other_rule, idx), idx))
    stops_on_upper, push_before = bool(out["on_upper"]), float(out["push_before"])
    return RationalStopReport(
        rational=rational,
        snell_value=snell,
        y0=y0,
        stops_on_upper=stops_on_upper,
        push_before_stop_max=push_before,
        sufficient=stops_on_upper and push_before == 0.0,
        push_at_join_max=float(out["push_join"]),
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


def verify_break_even(tau_rule: StoppingRule, quote: QuoteResult) -> BreakEvenReport:
    """Check one counterpart rule against all five break-even characterizations.

    (1) exact benchmark classification of the quadruplet, (2) its
    no-arbitrage reading, (3) forward wealth equal to the stopped game value
    path by path, (4) the solved value equal to the stopped game value with
    no lower push before the join and no upper push before the own stop,
    and (5) the rule attaining the best response against the own rule.
    They agree in theory; disagreement is a finding.  Readings (1) to (3)
    share one forward pass from the solved root value.
    """
    game = _game(quote)
    lat, gen, cash = game.lat, game.gen, game.cashflow_increments
    n = lat.n_steps
    own_rule = _own_rules(quote, n)[0]
    stopped_val = evaluate_stopped(game, own_rule, tau_rule)
    snell = snell_sup_for_minimizer(game, own_rule)
    vb = benchmark_profile(quote.view.acct, quote.view.endowment, lat.grid)
    settle, y0 = _settlements(quote.contract, quote.view), quote.y0
    out = _fold(n, 1, lambda pids, js, idx: _counterpart_rows(
        quote, game, settle, vb, _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js),
        _hits(own_rule, idx), _hits(tau_rule, idx), idx))
    be = bool(out["be"])
    return BreakEvenReport(
        be_classified=be,
        na_classified=be or not out["sh"],
        wealth_matches_game=bool(out["wealth"]),
        solution_matches_game=bool(out["solution"]),
        attains_supremum=abs(stopped_val - snell) <= quote.region_tol * (1.0 + abs(snell)),
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


def stopping_time_battery(quote: QuoteResult) -> BatteryReport:
    """Audit every enumerable stopping rule against the quote's claims.

    Own-side sweep: rationality per rule (exact best-response test),
    sufficiency implies rationality, positive pre-join push forbids it, and
    the conditional earliest/latest pins against the canonical rules.
    Counterpart sweep: the five break-even characterizations must agree for
    every rule, and when the own rule never precedes the counterpart's
    first-contact rule, no break-even rule may beat that contact time.
    Both sweeps run the single-rule verifiers' rows with a row per rule id.
    """
    game = _game(quote)
    lat, gen, cash = game.lat, game.gen, game.cashflow_increments
    n, eq_tol = lat.n_steps, quote.region_tol
    n_rules = 1 << _require_enumerable(n)
    y0, settle = quote.y0, _settlements(quote.contract, quote.view)
    vb = benchmark_profile(quote.view.acct, quote.view.endowment, lat.grid)
    own_rule, own_bar_rule, other_rule, other_bar_rule = _own_rules(quote, n)

    def block(pids, js, idx):
        hits = _hits(None, idx)
        h_own, h_own_bar, h_other, h_other_bar = (
            _hits(rule, idx) for rule in (own_rule, own_bar_rule, other_rule, other_bar_rule)
        )
        v_full = _forward_matrix(y0, quote.solution.Z, gen, cash, lat, js)
        # the earliest (latest) pins compare every rule with the canonical one on its event
        early, late = h_own <= h_other_bar, h_own_bar < h_other_bar
        return {
            **_own_rows(quote, hits, h_other, idx),
            **_counterpart_rows(quote, game, settle, vb, v_full, h_own, hits, idx),
            "never_later": (~early | (hits <= h_own)).all(axis=-1),
            "same_early": (~early | (hits == h_own)).all(axis=-1),
            "never_earlier": (~late | (hits >= h_own_bar)).all(axis=-1),
            "same_late": (~late | (hits == h_own_bar)).all(axis=-1),
            "premise": (h_own >= h_other).all(),
            "no_early_join": (np.minimum(hits, h_own) >= h_other).all(axis=-1),
        }

    out = _fold(n, n_rules, block)
    # rationality is one vectorized best-response pass, attainment one pair-matrix row
    rational = sup_values_by_minimizer_rule(game) <= y0 + eq_tol * (1.0 + abs(y0))
    pair_vals = stopped_values_for_maximizer_rules(game, own_rule)
    snell = snell_sup_for_minimizer(game, own_rule)
    attains = np.abs(pair_vals - snell) <= eq_tol * (1.0 + abs(snell))
    be, premise = out["be"], bool(out["premise"])
    flags = np.stack([be, be | ~out["sh"], out["wealth"], out["solution"], attains])
    sufficient = out["on_upper"] & (out["push_before"] == 0.0)

    ids_where = lambda mask: tuple(np.flatnonzero(mask).tolist())  # noqa: E731
    return BatteryReport(
        n_rules=n_rules,
        n_paths=1 << n,
        rational_count=int(rational.sum()),
        canonical_rational=bool(rational[rule_to_id(own_rule)]
                                and rational[rule_to_id(own_bar_rule)]),
        sufficiency_counterexamples=ids_where(sufficient & ~rational),
        necessity_counterexamples=ids_where(rational & (out["push_join"] > 0.0)),
        earliest_counterexamples=ids_where(rational & out["never_later"] & ~out["same_early"]),
        latest_counterexamples=ids_where(rational & out["never_earlier"] & ~out["same_late"]),
        breakeven_count=int(be.sum()),
        breakeven_disagreements=ids_where(flags.any(axis=0) != flags.all(axis=0)),
        counterpart_earliest_premise=premise,
        counterpart_earliest_counterexamples=ids_where(premise & be & ~out["no_early_join"]),
    )
