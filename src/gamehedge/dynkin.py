"""Brute-force stopped-game oracle over enumerated stopping rules.

Rules are enumerated as bitmasks over interior nodes sorted by
(step, up_count); the terminal row is always marked.  The interior nodes
in that order are the first m = N(N+1)/2 entries of the flat node layout,
so rule bit i is flat node i (``tri(k, j)``).  The oracle computes

    upper_value = min over minimizer rules of max over maximizer rules
    lower_value = max over maximizer rules of min over minimizer rules

by two independent routes: one per-rule dynamic program per player, where
the opponent plays optimally node by node, and the pair matrix, the root
value of every rule pair, run as a cross-check whenever n_rules**2 <=
DEFAULT_PAIR_LIMIT (N <= 4; at N = 5 the dynamic programs run alone).  Both
step with the solvers' ``backward_step`` and node rules, so agreement with the
reflected backward solve is a genuine cross-check, not a tautology.  A game
is the solve's own problem, a ``DrbsdeInputs`` such as a quote's ``inputs``.

Both routes run on one cone engine.  A node's stopped value depends only on
the rule bits in its forward cone, so each node keeps a table with one axis
per player seat.  A seat is either a fixed rule (axis length 1) or every
rule; an enumerated axis is indexed by the player's cone bits packed
lowest-first, so at the root, whose cone is every interior node, the index
is the rule id.  The implicit step runs once per packed combination of the
children's cone bits.  A child's table is gathered onto them one enumerated
axis at a time (``ndarray.take``) through a packed index that depends only on
the two cone masks, so it is built once per (child mask, combined mask) pair
and kept, read-only; a fixed rule's axis has length 1 and is not gathered.
The node's own bit ``tri(k, j)`` is its cone's lowest, so it is the fastest
sub-axis of the node's table.  The table is allocated once and filled one
slot per combination of the players' own bits (both bits of an enumerated
seat, the one of a fixed rule: at most 4 slots); in a slot each mark is a
single boolean, so the node rule picks whole operands from the node's
payoffs and that continuation instead of masking.  Nothing is sorted.  Per
node that is 2**(|cone| - 1) continuation entries for a dynamic program
(2**14 at the root for N=5) and 4**(|cone| - 1) for the pair matrix (4**9
at the root for N=4).  The root table, n_rules entries along each
enumerated axis, is the only full-size array; DEFAULT_PAIR_LIMIT bounds the
pair matrix's.  Packed order is the sorted order of the masked rule ids, so
every entry goes through the same elementwise arithmetic as broadcasting every
node over all rule ids, and the fixed-point exit test sees the same set of
values: the results are identical bit for bit to that broadcast.

Naming follows the hedger orientation (sigma = minimizer, tau = maximizer);
for counterparty games the same engine applies with the counterparty's
exercise in the minimizer seat.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .drbsde import DrbsdeInputs, _check_steps, _inf_node, _pair_node, _sup_node, backward_step
from .errors import InvalidStoppingRule, TooLarge
from .generators import _check_positive
from .lattice import tri
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


@dataclass(frozen=True)
class GameValueReport:
    """Both one-sided game values over enumerated rules."""

    upper_value: float
    lower_value: float
    rule_count: int


@dataclass(frozen=True)
class SaddleDiagnosis:
    """Comparison of a backward-solve value against the brute-force game values."""

    matches_upper: bool
    has_value: bool


@functools.lru_cache(maxsize=128)  # N <= 5 has 41 (mask, below) pairs in all
def _packed_index(mask: int, below: int) -> np.ndarray:
    """Read-only index into a table with cone bits ``mask``, per packed ``below`` combination.

    Combination c sets the q-th lowest ``below`` bit where c has bit q; the
    entry is that combination's ``mask`` bits, packed lowest-first.
    """
    pos, bits = {b: q for q, b in enumerate(_bit_tuple(mask))}, _bit_tuple(below)
    combos = np.arange(1 << len(bits), dtype=np.intp)
    at = np.zeros_like(combos)
    for q, b in enumerate(bits):
        if b in pos:
            at |= (combos >> q & 1) << pos[b]
    at.flags.writeable = False
    return at


def _gather(values: np.ndarray, mask: int, below: int,
            rules: list[StoppingRule | None]) -> np.ndarray:
    """A child's table, cone bits ``mask``, on every packed combination of the ``below`` bits.

    Each enumerated axis is gathered on its own; a fixed rule's axis has length 1 as it is.
    """
    at = _packed_index(mask, below)
    for axis, rule in enumerate(rules):
        if rule is None:
            values = values.take(at, axis=axis)
    return values


def _cone_values(game: DrbsdeInputs, node_rule, **seats: StoppingRule | None) -> np.ndarray:
    """Root values over the enumerated players' rule ids, from cone-indexed node tables.

    Each seat (``sigma``, ``tau``) holds a fixed rule, an axis of length 1,
    or None, every rule on its own axis indexed by rule id.  A node's table
    is (values, the bit mask of its cone); along an enumerated axis the index
    is the player's cone bits packed lowest-first.  ``node_rule(lo, hi, tie,
    marks, cont)`` gives a node's values from its payoffs, each player's own
    bit there and the continuation; it runs once per combination of own bits.
    """
    lat = game.lat
    _require_enumerable(lat.n_steps)
    rules = list(seats.values())
    _check_steps(lat, InvalidStoppingRule,
                 **{name: rule for name, rule in seats.items() if rule is not None})
    n = lat.n_steps
    tie_t = game.tie.row(n)
    tables = [(np.full((1,) * len(rules), tie_t[j]), 0) for j in range(n + 1)]
    for k in range(n - 1, -1, -1):
        new_tables = []
        for j in range(k + 1):
            # continuation: one entry per packed combination of the children's cone bits
            below = tables[j][1] | tables[j + 1][1]
            v_next = [_gather(*table, below, rules) for table in tables[j:j + 2]]
            cont = backward_step(lat, game.gen, k, v_next, game.cashflow_increments.at(k, j), j,
                                 residual=False)[0]

            # the node's own bit tri(k, j) is its cone's lowest, so each player's axis splits
            # into (packed bits below, own bit): an enumerated seat has both own bits, a
            # fixed rule its one; each combination of own bits fills one slot of the table
            bit = tri(k, j)
            own = [(False, True) if r is None else (r.flat[bit],) for r in rules]
            values = np.empty([w for c, o in zip(cont.shape, own) for w in (c, len(o))])
            lo, hi, tie = (p.at(k, j) for p in (game.lower, game.upper, game.tie))
            for pos in np.ndindex(*map(len, own)):
                slot = tuple(x for i in pos for x in (slice(None), i))
                values[slot] = node_rule(lo, hi, tie, [o[i] for o, i in zip(own, pos)], cont)
            shape = [c * len(o) for c, o in zip(cont.shape, own)]
            new_tables.append((values.reshape(shape), below | 1 << bit))
        tables = new_tables
    return tables[0][0]


def sup_values_by_minimizer_rule(game: DrbsdeInputs) -> np.ndarray:
    """sup over maximizer behaviour of the stopped value, per minimizer rule id."""
    return _cone_values(game, _sup_node, sigma=None)


def inf_values_by_maximizer_rule(game: DrbsdeInputs) -> np.ndarray:
    """inf over minimizer behaviour of the stopped value, per maximizer rule id."""
    return _cone_values(game, _inf_node, tau=None)


def _pair_matrix(game: DrbsdeInputs, sigma: StoppingRule | None = None,
                 tau: StoppingRule | None = None) -> np.ndarray:
    """Root values per (minimizer rule, maximizer rule) pair; a fixed rule's axis has length 1."""
    return _cone_values(game, _pair_node, sigma=sigma, tau=tau)


def stopped_values_for_maximizer_rules(game: DrbsdeInputs, sigma: StoppingRule) -> np.ndarray:
    """Stopped value against a fixed minimizer rule, for every maximizer rule id."""
    return _pair_matrix(game, sigma)[0]


def _bit_tuple(rid: int) -> tuple[int, ...]:
    return tuple(i for i in range(rid.bit_length()) if (rid >> i) & 1)


def game_value_brute(game: DrbsdeInputs) -> GameValueReport:
    """Both game values over all enumerated rule pairs.

    Runs the per-rule dynamic programs always, and the pair matrix too when
    n_rules**2 <= DEFAULT_PAIR_LIMIT; then the two routes are cross-checked
    and the pair matrix's values reported.
    """
    m = _require_enumerable(game.lat.n_steps)
    n_rules = 1 << m

    sup_vals = sup_values_by_minimizer_rule(game)
    inf_vals = inf_values_by_maximizer_rule(game)

    if n_rules * n_rules <= DEFAULT_PAIR_LIMIT:
        pairs = _pair_matrix(game)
        sup_pairs = pairs.max(axis=1)
        inf_pairs = pairs.min(axis=0)
        scale = 1.0 + float(np.max(np.abs(sup_pairs)))
        for by_pairs, by_dp in ((sup_pairs, sup_vals), (inf_pairs, inf_vals)):
            if not float(np.max(np.abs(by_pairs - by_dp))) <= 1e-10 * scale:
                raise AssertionError("pair enumeration and per-rule dynamic program disagree")
        sup_vals, inf_vals = sup_pairs, inf_pairs

    return GameValueReport(
        upper_value=float(sup_vals.min()),
        lower_value=float(inf_vals.max()),
        rule_count=n_rules,
    )


def saddle_check(report: GameValueReport, y0: float, tol: float = 1e-10) -> SaddleDiagnosis:
    """Flags for value existence and agreement of the backward solve with the game."""
    _check_positive("tol", tol)
    return SaddleDiagnosis(
        matches_upper=abs(y0 - report.upper_value) <= tol,
        has_value=abs(report.upper_value - report.lower_value) <= tol,
    )
