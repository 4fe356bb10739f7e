"""Brute-force stopped-game oracle over enumerated stopping rules.

Rules are enumerated as bitmasks over interior nodes sorted by
(step, up_count); the terminal row is always marked.  The interior nodes
in that order are the first m = N(N+1)/2 entries of the flat node layout,
so rule bit i is flat node i (``tri(k, j)``).  The oracle computes

    upper_value = min over minimizer rules of max over maximizer rules
    lower_value = max over maximizer rules of min over minimizer rules

by one per-rule dynamic program per player, where the opponent plays
optimally node by node.  Each program is the solvers' own row sweep
(``drbsde._game_root``) with the player's seat left open: row k carries one
batch column per combination of the rule's bits on rows k..N-1, and the root
one per rule id.  The sweep steps with the solvers' ``backward_step`` and
node rules, and each column equals the sweep under that one rule bit for bit,
so agreement with the reflected backward solve is a genuine cross-check, not
a tautology.  A game is the solve's own problem, a ``DrbsdeInputs`` such as
a quote's ``inputs``.  The stopped values against a fixed minimizer rule run
the same way.

Naming follows the hedger orientation (sigma = minimizer, tau = maximizer);
for counterparty games the same programs apply with the counterparty's
exercise in the minimizer seat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drbsde import DrbsdeInputs, _game_root, _inf_node, _pair_node, _sup_node
from .errors import InvalidStoppingRule, TooLarge
from .generators import _check_positive
from .lattice import tri
from .stopping import StoppingRule

__all__ = [
    "MAX_INTERIOR_NODES",
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
DEFAULT_PAIR_LIMIT = 10_000_000  # read only by bench/spans.py::_game_counts


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


def sup_values_by_minimizer_rule(game: DrbsdeInputs) -> np.ndarray:
    """sup over maximizer behaviour of the stopped value, per minimizer rule id."""
    _require_enumerable(game.lat.n_steps)
    return _game_root(game, _sup_node, sigma=None)


def inf_values_by_maximizer_rule(game: DrbsdeInputs) -> np.ndarray:
    """inf over minimizer behaviour of the stopped value, per maximizer rule id."""
    _require_enumerable(game.lat.n_steps)
    return _game_root(game, _inf_node, tau=None)


def stopped_values_for_maximizer_rules(game: DrbsdeInputs, sigma: StoppingRule) -> np.ndarray:
    """Stopped value against a fixed minimizer rule, for every maximizer rule id."""
    _require_enumerable(game.lat.n_steps)
    return _game_root(game, _pair_node, sigma=sigma, tau=None)


def game_value_brute(game: DrbsdeInputs) -> GameValueReport:
    """Both game values over all enumerated rule pairs, from the per-rule dynamic programs.

    The upper value is the least sup over minimizer rules, the lower the
    greatest inf over maximizer rules; each program runs once, at every N.
    """
    return GameValueReport(
        upper_value=float(sup_values_by_minimizer_rule(game).min()),
        lower_value=float(inf_values_by_maximizer_rule(game).max()),
        rule_count=rule_count(game.lat.n_steps),
    )


def saddle_check(report: GameValueReport, y0: float, tol: float = 1e-10) -> SaddleDiagnosis:
    """Flags for value existence and agreement of the backward solve with the game."""
    _check_positive("tol", tol)
    return SaddleDiagnosis(
        matches_upper=abs(y0 - report.upper_value) <= tol,
        has_value=abs(report.upper_value - report.lower_value) <= tol,
    )
