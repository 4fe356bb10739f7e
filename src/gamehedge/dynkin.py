"""Brute-force stopped-game oracle over enumerated stopping rules.

Rules are enumerated as bitmasks over interior nodes sorted by
(step, up_count); the terminal row is always marked.  The interior nodes
in that order are the first m = N(N+1)/2 entries of the flat node layout,
so rule bit i is flat node i (``tri(k, j)``).  The oracle computes

    upper_value = min over minimizer rules of max over maximizer rules
    lower_value = max over maximizer rules of min over minimizer rules

by two independent routes: one per-rule dynamic program per player, where
the opponent plays optimally node by node, and the pair route, the row
maxima and column minima of the pair matrix (the root value of every rule
pair), run as a cross-check whenever n_rules**2 <= DEFAULT_PAIR_LIMIT
(N <= 4; at N = 5 the dynamic programs run alone).  Both
step with the solvers' ``backward_step`` and node rules, so agreement with the
reflected backward solve is a genuine cross-check, not a tautology.  A game
is the solve's own problem, a ``DrbsdeInputs`` such as a quote's ``inputs``.

Both routes run on one cone engine.  A node's stopped value depends only on
the rule bits in its forward cone, so each node keeps a table with one axis
per player seat.  A seat is either a fixed rule (axis length 1) or every
rule; an enumerated axis is indexed by the player's cone bits packed
lowest-first, so at the root, whose cone is every interior node, the index
is the rule id.  The node's own bit ``tri(k, j)`` is its cone's lowest, so
the table splits into slots, one per combination of the players' own bits
(both bits of an enumerated seat, the one of a fixed rule: at most 4).  In a
slot each mark is a single boolean, so the node rule picks a whole operand
from the node's payoffs and the continuation instead of masking: a slot is a
payoff, one number, or a table over the node's cone bits below its own.
Nothing is sorted.

A node's continuation is one implicit step over every combination of its
two children's slots.  Two tables are gathered onto the union of the
children's bits below their own (``ndarray.take`` through a packed index
that depends only on the two masks, built once and kept, read-only); a
table against a payoff keeps its own bits, and two payoffs are one entry.
All combinations go through one ``backward_step`` on their concatenated
operands, so a node steps one entry per distinct operand pair: at the N=4
pair route's root 4**7 + 6 * 4**5 + 9 = 22,537 entries, against the 4**9
packed combinations of the children's cone bits, and 2**12 + 2 * 2**9 + 1
= 5,121 against 2**14 at a dynamic program's root for N=5.  Below the root
the step's output is gathered into the node's continuation table; the
layout of both gathers depends only on the children's masks and slot kinds
and is kept.  A dynamic program assembles its root table of n_rules entries.
The pair route never assembles its n_rules**2 root entries, nor the root
continuation: it reduces each combination's rows and columns, so its largest
array is the root step (22,537 entries at N=4).  A zero extreme takes its
sign from the order of reduction, so its row or column is rebuilt and reduced
in the assembled table's order.  Packed order is the sorted order of the
masked rule ids, so every entry goes through the same elementwise arithmetic
as broadcasting every node over all rule ids, and the fixed-point exit test
sees the same set of values: the results are identical bit for bit to that
broadcast.

Naming follows the hedger orientation (sigma = minimizer, tau = maximizer);
for counterparty games the same engine applies with the counterparty's
exercise in the minimizer seat.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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


@functools.lru_cache(maxsize=256)  # N <= 5 reads about 90 (mask, below) pairs in all
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


def _widths(mask: int, enum: tuple[bool, ...]) -> tuple[int, ...]:
    """The shape of a table over cone bits ``mask``: 2**|mask| per enumerated seat, else 1."""
    return tuple(1 << len(_bit_tuple(mask)) if e else 1 for e in enum)


def _grid_index(at, widths) -> np.ndarray:
    """Flat indices into a C-ordered array of shape ``widths`` over the grid of per-axis ``at``."""
    flat = np.zeros((), dtype=np.intp)
    for a, (i, w) in enumerate(zip(at, widths)):
        flat = flat * w + np.reshape(i, [-1 if b == a else 1 for b in range(len(widths))])
    return flat


class _Slots(NamedTuple):
    """How a parent reads a node's slots, which it keeps raveled one after another in
    ``np.ndindex(*opts)`` order: ``opts`` counts each seat's own-bit slots, ``tables`` marks the
    slots that are tables over the ``below`` bits (the rest are payoffs, one entry each), and
    ``cone`` is ``below`` with the node's own bit."""

    below: int
    cone: int
    opts: tuple[int, ...]
    tables: tuple[bool, ...]


class _Layout:
    """A node's implicit step over every combination of its children's slots.

    Combination c = i_d * (up child's slot count) + i_u pairs slot i_d of the
    down child with slot i_u of the up child.  Its piece of the step spans
    ``union``, the children's ``below`` bits, when both slots are tables
    (kind 0), the table's own bits when one is (kind 1 down, 2 up), and one
    entry when both are payoffs (kind 3).  ``down`` and ``up`` gather the
    pieces' operands, in combination order, from the children's raveled
    slots.  The node's continuation table spans ``below``, the children's
    cones, whose two lowest bits are the children's own bits, down first: so
    along an enumerated seat its packed index is (r * up opts + up own bit) *
    down opts + down own bit, with r the packed ``union`` bits.  ``term`` maps
    each seat's packed index to its share of the combination id, and
    ``spans`` to its packed bits of each kind's span.
    """

    def __init__(self, d: _Slots, u: _Slots, enum: tuple[bool, ...]):
        union, self.below = d.below | u.below, d.cone | u.cone
        self.shape = _widths(self.below, enum)
        starts = [np.cumsum([0] + [np.prod(_widths(c.below, enum)) if t else 1
                                   for t in c.tables[:-1]]) for c in (d, u)]
        operands, kinds, self.pieces = ([], []), [], []
        for i_d, t_d in enumerate(d.tables):
            for i_u, t_u in enumerate(u.tables):
                kind = 0 if t_d and t_u else 1 if t_d else 2 if t_u else 3
                span = (union, d.below, u.below, 0)[kind]
                shape = _widths(span, enum)
                for out, c, start, table in zip(operands, (d, u),
                                                (starts[0][i_d], starts[1][i_u]), (t_d, t_u)):
                    at = _grid_index([_packed_index(c.below, span) if e else [0] for e in enum],
                                     _widths(c.below, enum)) if table else 0
                    out.append(np.broadcast_to(start + at, shape).ravel())
                kinds.append(kind)
                self.pieces.append(shape)
        self.down, self.up = (np.concatenate(o) for o in operands)
        self.kind = np.array(kinds)
        self.sizes = [int(np.prod(s)) for s in self.pieces]
        self.offset = np.cumsum([0] + self.sizes[:-1])
        self.stride = [np.array([int(np.prod(s[a + 1:])) for s in self.pieces])
                       for a in range(len(enum))]
        self.patterns = [d.opts[a] * u.opts[a] for a in range(len(enum))]
        self.term, self.spans = [], []
        for a, (e, w) in enumerate(zip(enum, self.shape)):
            c, nd, nu = np.arange(w), d.opts[a], u.opts[a]
            self.term.append(c % nd * (int(np.prod(d.opts[a + 1:])) * len(u.tables))
                             + c // nd % nu * int(np.prod(u.opts[a + 1:])))
            self.spans.append(np.stack([_packed_index(m, self.below) if e else np.zeros(1, np.intp)
                                        for m in (union, d.below, u.below, 0)]))

    def index(self, sels, offset=None, stride=None) -> np.ndarray:
        """Where the step's output holds the continuation table's entries over the grid of
        per-seat packed indices ``sels``; pieces laid out at ``offset`` with per-seat
        ``stride`` in place of the step's own layout, if given."""
        offset = self.offset if offset is None else offset
        stride = self.stride if stride is None else stride
        grid = [np.reshape(s, [-1 if b == a else 1 for b in range(len(sels))])
                for a, s in enumerate(sels)]
        comb = sum(t[g] for t, g in zip(self.term, grid))
        kind = self.kind[comb]
        return offset[comb] + sum(p[kind, g] * st[comb]
                                  for p, g, st in zip(self.spans, grid, stride))

    @functools.cached_property
    def assembly(self) -> np.ndarray:
        """The step's output gathered into the node's continuation table."""
        return self.index([np.arange(w) for w in self.shape])

    @functools.cached_property
    def folds(self) -> list[tuple]:
        """How ``reduced`` folds a two-seat continuation over each seat: the step's output
        reordered so that each piece's runs along the seat lie end to end (None: they do),
        where each run starts, and where its result lies per index of the other seat and
        combination along the seat, whose own bits its first packed indices cover."""
        folds = []
        for axis in (0, 1):
            runs = [np.moveaxis(np.arange(o, o + n).reshape(s), axis, -1)
                    for o, n, s in zip(self.offset, self.sizes, self.pieces)]
            count = np.array([r.shape[0] for r in runs])
            length = np.repeat([r.shape[1] for r in runs], count)
            sels = [np.arange(w) for w in self.shape]
            sels[axis] = np.arange(self.patterns[axis])
            at = self.index(sels, np.cumsum(count) - count,
                            [np.full(count.size, int(a != axis)) for a in range(2)])
            folds.append((np.concatenate([r.ravel() for r in runs]) if axis == 0 else None,
                          np.cumsum(length) - length, at))
        return folds

    def reduced(self, cont: np.ndarray, ufunc, axis: int) -> np.ndarray:
        """``ufunc`` reduced over seat ``axis`` of the two-seat continuation table, whose
        pieces are reduced run by run, never assembled."""
        order, starts, at = self.folds[axis]
        runs = cont if order is None else cont.take(order)
        return ufunc.reduce(ufunc.reduceat(runs, starts)[at], axis=axis)


@functools.lru_cache(maxsize=512)  # N <= 5: 35 nodes, at most 10 layouts each
def _layout(d: _Slots, u: _Slots, enum: tuple[bool, ...]) -> _Layout:
    return _Layout(d, u, enum)


def _assemble(slots: dict, own: list[tuple[bool, ...]], shape: tuple[int, ...]) -> np.ndarray:
    """A node's table from its slots; each seat's own bit is the fastest sub-axis of its axis."""
    values = np.empty([w for c, o in zip(shape, own) for w in (c, len(o))])
    for pos, slot in slots.items():
        values[tuple(x for i in pos for x in (slice(None), i))] = slot
    return values.reshape([c * len(o) for c, o in zip(shape, own)])


def _root_block(slots: dict, lay: _Layout, cont: np.ndarray, rows, cols) -> np.ndarray:
    """The root pair table's entries at ``rows`` and ``cols``, each index 2 * packed + own bit."""
    block = np.empty((rows.size, cols.size))
    for (s, t), slot in slots.items():
        r, c = rows % 2 == s, cols % 2 == t
        if np.ndim(slot):
            slot = cont[lay.index([rows[r] // 2, cols[c] // 2])]
        block[np.ix_(r, c)] = slot
    return block


def _pair_extremes_at_root(slots: dict, lay: _Layout, cont: np.ndarray):
    """The root pair table's row maxima and column minima from its slots, never assembled.

    Both seats are enumerated, so slot (s, t) holds the entries with minimizer
    own bit s and maximizer own bit t: a payoff, which reduces to itself, or
    the continuation, here the step's output, reduced piece by piece.  Table
    row 2 * packed + s spans the slots (s, 0) and (s, 1), so its maximum is
    the larger of theirs; columns likewise.  A zero extreme takes its sign
    from the order of the reduction, so those rows and columns are rebuilt,
    in blocks no larger than the step's output, and reduced as the assembled
    table's: a row by one contiguous maximum, a column by the in-order fold of
    minima down its rows.
    """
    rows, cols = lay.reduced(cont, np.maximum, 1), lay.reduced(cont, np.minimum, 0)
    sup, inf = np.empty((rows.size, 2)), np.empty((cols.size, 2))
    for b in (0, 1):
        sup[:, b] = np.maximum(*(rows if np.ndim(v) else v for v in (slots[b, 0], slots[b, 1])))
        inf[:, b] = np.minimum(*(cols if np.ndim(v) else v for v in (slots[0, b], slots[1, b])))
    sup, inf = sup.reshape(-1), inf.reshape(-1)
    every, step = np.arange(sup.size), max(1, cont.size // sup.size)  # blocks within the step's size
    zero = np.flatnonzero(sup == 0)
    for at in (zero[i:i + step] for i in range(0, zero.size, step)):
        sup[at] = _root_block(slots, lay, cont, at, every).max(axis=1)
    zero = np.flatnonzero(inf == 0)
    for at in (zero[i:i + step] for i in range(0, zero.size, step)):
        inf[at] = np.minimum.accumulate(_root_block(slots, lay, cont, every, at), axis=0)[-1]
    return sup, inf


def _cone_values(game: DrbsdeInputs, node_rule, at_root=None, **seats: StoppingRule | None):
    """Root values over the enumerated players' rule ids, from cone-indexed node slots.

    Each seat (``sigma``, ``tau``) holds a fixed rule, an axis of length 1,
    or None, every rule on its own axis indexed by rule id.  ``node_rule(lo,
    hi, tie, marks, cont)`` gives a node's values from its payoffs, each
    player's own bit there and the continuation; it runs once per combination
    of own bits, and each result, a payoff or a table over the node's cone
    bits below its own, is a slot of the node.  A node keeps its slots
    raveled for its parent, whose one implicit step covers every combination
    of the two children's slots (``_Layout``); the step's output is gathered
    into the node's continuation table.  The root's table is assembled from
    its slots, unless ``at_root(slots, layout, output)`` makes the result
    from the root's slots with the continuation left as the step's output.
    """
    lat = game.lat
    _require_enumerable(lat.n_steps)
    rules = list(seats.values())
    _check_steps(lat, InvalidStoppingRule,
                 **{name: rule for name, rule in seats.items() if rule is not None})
    enum = tuple(r is None for r in rules)
    n = lat.n_steps
    leaf = _Slots(0, 0, (1,) * len(rules), (False,))
    nodes = [(game.tie.row(n)[j:j + 1], leaf) for j in range(n + 1)]
    for k in range(n - 1, -1, -1):
        new_nodes = []
        for j in range(k + 1):
            (down, d), (up, u) = nodes[j:j + 2]
            lay = _layout(d, u, enum)
            cont = backward_step(lat, game.gen, k, [down.take(lay.down), up.take(lay.up)],
                                 game.cashflow_increments.at(k, j), j, residual=False)[0]
            if k or at_root is None:
                cont = cont.take(lay.assembly)

            # the node's own bit tri(k, j) is its cone's lowest: an enumerated seat has both own
            # bits, a fixed rule its one, and each combination of own bits makes one slot
            bit = tri(k, j)
            own = [(False, True) if r is None else (r.flat[bit],) for r in rules]
            lo, hi, tie = (p.at(k, j) for p in (game.lower, game.upper, game.tie))
            slots = {pos: node_rule(lo, hi, tie, [o[i] for o, i in zip(own, pos)], cont)
                     for pos in np.ndindex(*map(len, own))}
            if not k:
                if at_root is None:
                    return _assemble(slots, own, cont.shape)
                return at_root(slots, lay, cont)
            new_nodes.append((np.concatenate([np.ravel(v) for v in slots.values()]),
                              _Slots(lay.below, lay.below | 1 << bit, tuple(map(len, own)),
                                     tuple(np.ndim(v) > 0 for v in slots.values()))))
        nodes = new_nodes


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


def _pair_extremes(game: DrbsdeInputs) -> tuple[np.ndarray, np.ndarray]:
    """The pair matrix's row maxima (sup over tau per sigma id) and column minima (inf over sigma)."""
    return _cone_values(game, _pair_node, _pair_extremes_at_root, sigma=None, tau=None)


def stopped_values_for_maximizer_rules(game: DrbsdeInputs, sigma: StoppingRule) -> np.ndarray:
    """Stopped value against a fixed minimizer rule, for every maximizer rule id."""
    return _pair_matrix(game, sigma)[0]


def _bit_tuple(rid: int) -> tuple[int, ...]:
    return tuple(i for i in range(rid.bit_length()) if (rid >> i) & 1)


def game_value_brute(game: DrbsdeInputs) -> GameValueReport:
    """Both game values over all enumerated rule pairs.

    Runs the per-rule dynamic programs always, and the pair route too when
    n_rules**2 <= DEFAULT_PAIR_LIMIT; then the two routes are cross-checked
    and the pair route's values reported.
    """
    m = _require_enumerable(game.lat.n_steps)
    n_rules = 1 << m

    sup_vals = sup_values_by_minimizer_rule(game)
    inf_vals = inf_values_by_maximizer_rule(game)

    if n_rules * n_rules <= DEFAULT_PAIR_LIMIT:
        sup_pairs, inf_pairs = _pair_extremes(game)
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
