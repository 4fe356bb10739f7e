"""Brute-force stopped-game oracle over enumerated stopping rules.

Rules are enumerated as bitmasks over interior nodes sorted by
(step, up_count); the terminal row is always marked.  The interior nodes
in that order are the first m = N(N+1)/2 entries of the flat node layout,
so rule bit i is flat node i (``tri(k, j)``).  The oracle computes

    upper_value = min over minimizer rules of max over maximizer rules
    lower_value = max over maximizer rules of min over minimizer rules

by two independent routes: the pair matrix, the root value of every rule
pair (used whenever the pair count fits the cap), and one per-rule dynamic
program per player, where the opponent plays optimally node by node.  Both
step with the solvers' ``backward_step`` and node rules, so agreement with the
reflected backward solve is a genuine cross-check, not a tautology.

Both routes run on one cone engine.  A node's stopped value depends only on
the rule bits in its forward cone, so each node keeps a table with one axis
per enumerated player (two for the pair matrix, one for a dynamic program)
and one entry per combination of those players' cone bits.  The implicit
step runs once per combination of the children's cone bits; a node rule
then maps the node's own bits, its payoffs and that continuation to the
node's values.  Per node that is 2**(|cone| - 1) continuation entries for a
dynamic program (2**14 at the root for N=5) and 4**(|cone| - 1) for the
pair matrix (4**9 at the root for N=4).  The root table, n_rules entries
along each axis, is the only full-size array; pair_limit bounds the pair
matrix's, so the cap still counts rule pairs.  Every entry goes through the
same elementwise arithmetic as broadcasting every node over all rule ids,
and the fixed-point exit test sees the same set of values, so the results
are identical bit for bit to that broadcast.

Naming follows the hedger orientation (sigma = minimizer, tau = maximizer);
for counterparty games the same engine applies with the counterparty's
exercise in the minimizer seat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drbsde import GamePayoff, _check_entry, _inf_node, _pair_node, _sup_node, backward_step
from .errors import InvalidStoppingRule, TooLarge
from .generators import Generator
from .lattice import Lattice, NodeProcess, tri
from .stopping import StoppingRule

__all__ = [
    "MAX_INTERIOR_NODES",
    "DEFAULT_PAIR_LIMIT",
    "GameValueReport",
    "SaddleDiagnosis",
    "rule_count",
    "rule_from_id",
    "rule_to_id",
    "game_value_brute",
    "saddle_check",
    "sup_values_by_minimizer_rule",
    "inf_values_by_maximizer_rule",
    "stopped_values_for_maximizer_rules",
]

MAX_INTERIOR_NODES = 15
DEFAULT_PAIR_LIMIT = 10_000_000


def rule_count(n_steps: int) -> int:
    """Number of stopping rules per player."""
    return 1 << tri(n_steps)


def _require_enumerable(n_steps: int) -> int:
    m = tri(n_steps)
    if m > MAX_INTERIOR_NODES:
        raise TooLarge(
            f"{1 << m} stopping rules per player ({m} interior nodes) exceed the "
            f"{1 << MAX_INTERIOR_NODES} cap"
        )
    return m


def rule_from_id(n_steps: int, rid: int) -> StoppingRule:
    """Decode a rule bitmask; bit i marks flat node i, the i-th interior node."""
    m = tri(n_steps)
    if not 0 <= rid < 1 << m:
        raise InvalidStoppingRule(f"rule id {rid} outside 0..{(1 << m) - 1}")
    flat = np.ones(tri(n_steps + 1), dtype=bool)
    flat[:m] = (rid >> np.arange(m, dtype=object)) & 1  # Python ints: ids past 2**63 too
    return StoppingRule(flat)


def rule_to_id(rule: StoppingRule) -> int:
    return sum(1 << int(i) for i in np.flatnonzero(rule.flat[:tri(rule.n_steps)]))


@dataclass(frozen=True, eq=False)
class GameValueReport:
    """Both one-sided game values and canonical optimizers over enumerated rules."""

    upper_value: float
    lower_value: float
    argmin_sigma: StoppingRule
    argmax_tau: StoppingRule
    rule_count: int


@dataclass(frozen=True)
class SaddleDiagnosis:
    """Comparison of a backward-solve value against the brute-force game values."""

    matches_upper: bool
    has_value: bool
    gap_to_solution: float
    value_gap: float


def _node_bits(ids: np.ndarray, bit_index: int) -> np.ndarray:
    return ((ids >> bit_index) & 1).astype(bool)


@dataclass(frozen=True, eq=False)
class _ConeTable:
    """A node's stopped values indexed by the rule bits in its forward cone.

    One axis per enumerated player: ``values[index[0][a], index[1][b]]`` is the
    value under the ids (ids[0][a], ids[1][b]); ``mask`` holds the cone's bits.
    """

    values: np.ndarray
    index: tuple[np.ndarray, ...]
    mask: int


def _cone_classes(ids: np.ndarray, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """First position of each distinct ``ids & mask``, and each id's class index."""
    _, first, inverse = np.unique(ids & mask, return_index=True, return_inverse=True)
    return first, inverse


def _cone_values(lat: Lattice, gen: Generator, cashflow_increments: NodeProcess,
                 payoff: GamePayoff, ids: tuple[np.ndarray, ...], node_rule) -> np.ndarray:
    """Root values on the grid of the players' rule ids, from cone-indexed node tables.

    ``ids`` holds one array of rule ids per enumerated player, each on its
    own axis.  ``node_rule(lo, hi, tie, bits, cont)`` gives a node's values
    from its payoffs, each player's own bit there (along that player's axis)
    and the continuation.
    """
    _check_entry(lat, gen, InvalidStoppingRule, payoff=payoff,
                 cashflow_increments=cashflow_increments)
    n = lat.n_steps
    no_index = tuple(np.zeros(a.shape[0], dtype=np.intp) for a in ids)
    tie_t = payoff.on_tie.row(n)
    tables = [_ConeTable(np.full((1,) * len(ids), tie_t[j]), no_index, 0) for j in range(n + 1)]
    for k in range(n - 1, -1, -1):
        new_tables = []
        for j in range(k + 1):
            # continuation: one entry per combination of the children's cone bits
            dn, up = tables[j], tables[j + 1]
            below = dn.mask | up.mask
            c_first, c_of = zip(*(_cone_classes(a, below) for a in ids))
            v_dn, v_up = (t.values[np.ix_(*(i[f] for i, f in zip(t.index, c_first)))]
                          for t in (dn, up))
            cont = backward_step(lat, gen, k, (v_dn, v_up), cashflow_increments.at(k, j), j)[0]

            # the node rule turns the node's own bits and that continuation into its values
            bit = tri(k, j)
            mask = below | (1 << bit)
            n_first, index = zip(*(_cone_classes(a, mask) for a in ids))
            bits = [_node_bits(b, bit) for b in np.ix_(*(a[f] for a, f in zip(ids, n_first)))]
            cont = cont[np.ix_(*(of[f] for of, f in zip(c_of, n_first)))]
            lo, hi, tie = (p.at(k, j) for p in (payoff.on_lower, payoff.on_upper, payoff.on_tie))
            new_tables.append(_ConeTable(node_rule(lo, hi, tie, bits, cont), index, mask))
        tables = new_tables
    root = tables[0]
    return root.values[np.ix_(*root.index)]


def _all_ids(n_steps: int) -> np.ndarray:
    return np.arange(1 << _require_enumerable(n_steps), dtype=np.int64)


def sup_values_by_minimizer_rule(
    lat: Lattice, gen: Generator, cashflow_increments: NodeProcess, payoff: GamePayoff
) -> np.ndarray:
    """sup over maximizer behaviour of the stopped value, per minimizer rule id."""
    ids = (_all_ids(lat.n_steps),)
    return _cone_values(lat, gen, cashflow_increments, payoff, ids, _sup_node)


def inf_values_by_maximizer_rule(
    lat: Lattice, gen: Generator, cashflow_increments: NodeProcess, payoff: GamePayoff
) -> np.ndarray:
    """inf over minimizer behaviour of the stopped value, per maximizer rule id."""
    ids = (_all_ids(lat.n_steps),)
    return _cone_values(lat, gen, cashflow_increments, payoff, ids, _inf_node)


def _pair_matrix(lat: Lattice, gen: Generator, cashflow_increments: NodeProcess,
                 payoff: GamePayoff, sigma_ids: np.ndarray, tau_ids: np.ndarray) -> np.ndarray:
    """Root values for every (minimizer rule, maximizer rule) pair."""
    return _cone_values(lat, gen, cashflow_increments, payoff, (sigma_ids, tau_ids), _pair_node)


def stopped_values_for_maximizer_rules(
    lat: Lattice, gen: Generator, cashflow_increments: NodeProcess,
    payoff: GamePayoff, sigma: StoppingRule,
) -> np.ndarray:
    """Stopped value against a fixed minimizer rule, for every maximizer rule id."""
    sigma_ids = np.array([rule_to_id(sigma)], dtype=np.int64)
    return _pair_matrix(lat, gen, cashflow_increments, payoff, sigma_ids, _all_ids(lat.n_steps))[0]


def _canonical_optimizer(values: np.ndarray, target: float, n_steps: int) -> StoppingRule:
    """Among rules attaining target exactly, pick fewest marks then lexicographic node list."""
    cands = np.nonzero(values == target)[0]
    pops = _bit_counts(cands)
    cands = cands[pops == pops.min()]
    best = min(cands, key=lambda rid: _bit_tuple(int(rid)))
    return rule_from_id(n_steps, int(best))


def _bit_counts(ids: np.ndarray) -> np.ndarray:
    """Marks per rule id, summed over the at most MAX_INTERIOR_NODES rule bits."""
    return sum(((ids >> i) & 1 for i in range(MAX_INTERIOR_NODES)), np.zeros_like(ids))


def _bit_tuple(rid: int) -> tuple[int, ...]:
    return tuple(i for i in range(rid.bit_length()) if (rid >> i) & 1)


def game_value_brute(
    lat: Lattice,
    gen: Generator,
    cashflow_increments: NodeProcess,
    payoff: GamePayoff,
    pair_limit: int = DEFAULT_PAIR_LIMIT,
) -> GameValueReport:
    """Both game values over all enumerated rule pairs, with canonical optimizers.

    Uses joint pair enumeration when the pair count fits pair_limit and the
    per-rule dynamic program otherwise; when both run their results are
    cross-checked before reporting.
    """
    n = lat.n_steps
    m = _require_enumerable(n)
    n_rules = 1 << m

    sup_dp = sup_values_by_minimizer_rule(lat, gen, cashflow_increments, payoff)
    inf_dp = inf_values_by_maximizer_rule(lat, gen, cashflow_increments, payoff)
    sup_vals, inf_vals = sup_dp, inf_dp

    if n_rules * n_rules <= pair_limit:
        ids = _all_ids(n)
        pairs = _pair_matrix(lat, gen, cashflow_increments, payoff, ids, ids)
        sup_pairs = pairs.max(axis=1)
        inf_pairs = pairs.min(axis=0)
        scale = 1.0 + float(np.max(np.abs(sup_pairs)))
        for by_pairs, by_dp in ((sup_pairs, sup_dp), (inf_pairs, inf_dp)):
            if not float(np.max(np.abs(by_pairs - by_dp))) <= 1e-10 * scale:
                raise AssertionError("pair enumeration and per-rule dynamic program disagree")
        sup_vals, inf_vals = sup_pairs, inf_pairs

    upper_value = float(sup_vals.min())
    lower_value = float(inf_vals.max())
    return GameValueReport(
        upper_value=upper_value,
        lower_value=lower_value,
        argmin_sigma=_canonical_optimizer(sup_vals, upper_value, n),
        argmax_tau=_canonical_optimizer(inf_vals, lower_value, n),
        rule_count=n_rules,
    )


def saddle_check(report: GameValueReport, y0: float, tol: float = 1e-10) -> SaddleDiagnosis:
    """Flags for value existence and agreement of the backward solve with the game."""
    gap = abs(y0 - report.upper_value)
    value_gap = abs(report.upper_value - report.lower_value)
    return SaddleDiagnosis(
        matches_upper=gap <= tol,
        has_value=value_gap <= tol,
        gap_to_solution=gap,
        value_gap=value_gap,
    )
