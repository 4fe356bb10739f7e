"""Backward solvers on the lattice: plain and doubly reflected value recursions.

``backward_step`` is the one-step scheme every recursion in the package
uses (the solvers here, the fixed-rule evaluations and the game oracle).  From
row k+1 to row k it does, per node:

1. hedge slope  z = (y_up - y_dn) / (s_up - s_dn)
2. expectation  e = q*y_up + (1-q)*y_dn
3. implicit solve of  v = e - cashflow_k + g(t_k, v, z, s_k)*dt

A step covers a whole row or one node; either may carry trailing batch
axes (one value per stopping rule, say).

The implicit solve is a pure fixed-point iteration; for builtin generators
the start point already solves the piecewise-linear equation exactly, so one
confirming sweep suffices.  Its exit test accepts a change of at most
FIXED_POINT_TOL or 4*eps*max|v|, whichever is larger, so quotes converge in
any price units.  It looks at every value of the step at once, so results of
a slowly converging custom generator depend on what one step covers: row
solvers step whole rows, the oracle one node at a time.

Every row recursion is one backward sweep behind one entry check (each
part spans the lattice's steps, and the step contracts); only the node rule
that turns a row's continuation into its values differs.  ``solve_bsde``
keeps the continuation.  ``solve_drbsde`` projects it into [lower_k,
upper_k] and records the one-sided pushes dL = (lower - v)^+ and
dU = ((v v lower) - upper)^+, with dL * dU = 0 node by node because the
obstacles never touch.  ``evaluate_stopped`` prices the stream under
externally imposed stopping rules (first marked node wins, simultaneous
marks pay the tie row), and ``snell_sup_for_minimizer`` keeps one rule and
lets the other party stop wherever it pays most.  The game oracle's cone
engine applies the same pair, sup and inf node rules, so their values are
directly comparable with the reflected solution.  Solutions are written
straight into flat node arrays (node (k, j) at ``tri(k, j)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractionViolated,
    InvalidStoppingRule,
    NonConvergence,
    NonFiniteInput,
    ObstacleOrderViolated,
    OutOfRange,
    TerminalOutOfBand,
)
from .generators import Generator, contraction_ok, eval_g, implicit_start
from .lattice import Lattice, NodeProcess, first_node, tri
from .stopping import StoppingRule

__all__ = [
    "FIXED_POINT_TOL",
    "MAX_FIXED_POINT_ITER",
    "DrbsdeInputs",
    "DrbsdeSolution",
    "GamePayoff",
    "backward_step",
    "solve_bsde",
    "solve_drbsde",
    "evaluate_stopped",
    "snell_sup_for_minimizer",
]

FIXED_POINT_TOL = 1e-12
MAX_FIXED_POINT_ITER = 200
_RELATIVE_TOL = 4.0 * np.finfo(np.float64).eps  # per unit of max|v|


@dataclass(frozen=True, eq=False)
class DrbsdeInputs:
    """Validated problem data for the doubly reflected backward solve, step size included."""

    lower: NodeProcess
    upper: NodeProcess
    terminal: np.ndarray
    cashflow_increments: NodeProcess
    gen: Generator
    lat: Lattice

    def __post_init__(self) -> None:
        n = self.lat.n_steps
        _check_entry(self.lat, self.gen, OutOfRange, lower=self.lower, upper=self.upper,
                     cashflow_increments=self.cashflow_increments)
        term = np.array(_check_terminal(self.lat, self.terminal))
        term.flags.writeable = False
        object.__setattr__(self, "terminal", term)
        lo, hi = self.lower.flat, self.upper.flat
        bad = first_node(~(lo < hi))
        if bad:
            i, k, j = bad
            raise ObstacleOrderViolated(
                f"lower must stay strictly below upper; at node ({k}, {j}): "
                f"lower={lo[i]!r}, upper={hi[i]!r}"
            )
        lo_t, hi_t = self.lower.row(n), self.upper.row(n)
        bad = np.nonzero((term < lo_t) | (term > hi_t))[0]
        if bad.size:
            j = int(bad[0])
            raise TerminalOutOfBand(
                f"terminal value at node ({n}, {j}) is {term[j]!r}, "
                f"outside [{lo_t[j]!r}, {hi_t[j]!r}]"
            )

    @property
    def n_steps(self) -> int:
        return self.lat.n_steps


@dataclass(frozen=True, eq=False)
class DrbsdeSolution:
    """Value, hedge slope and reflection increments; terminal rows of Z, dL, dU are zero."""

    Y: NodeProcess
    Z: NodeProcess
    dL: NodeProcess
    dU: NodeProcess
    residual_max: float
    iterations_max: int


def _implicit_row(gen: Generator, t: float, rhs, z, s, dt: float):
    """Solve v = rhs + g(t, v, z, s)*dt by fixed-point iteration on a whole row.

    Returns (v, residual, iterations).  The exit test bounds the true
    residual because one extra application contracts the gap by dt*L_y < 1;
    it also accepts 4*eps*max|v|, since above |v| = 8192 one ulp alone
    exceeds FIXED_POINT_TOL.
    """
    v = implicit_start(gen, t, rhs, z, s, dt)
    delta = np.inf
    for it in range(1, MAX_FIXED_POINT_ITER + 1):
        v_new = rhs + eval_g(gen, t, v, z, s) * dt
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta <= FIXED_POINT_TOL or delta <= _RELATIVE_TOL * float(np.max(np.abs(v))):
            residual = float(np.max(np.abs(v - (rhs + eval_g(gen, t, v, z, s) * dt))))
            return v, residual, it
    raise NonConvergence(
        f"implicit step did not reach {FIXED_POINT_TOL:g} (nor 4*eps*max|v|) within "
        f"{MAX_FIXED_POINT_ITER} iterations (last change {delta:g}); "
        "declared Lipschitz bounds are likely understated"
    )


def require_contraction(gen: Generator, lat: Lattice) -> None:
    """Reject step sizes for which the implicit step contracts too slowly or loses monotonicity."""
    if not contraction_ok(gen, lat.dt):
        raise ContractionViolated(
            f"dt={lat.dt:g} with Lipschitz bounds (y={gen.lipschitz_y:g}, "
            f"z={gen.lipschitz_z:g}) is not a contraction; refine the grid"
        )
    # z-sensitivity must not overturn the branch weights, else the one-step
    # map stops being monotone in the continuation values.
    spread = lat.u - lat.d
    limit = min(lat.q, 1.0 - lat.q)
    ratio = lat.dt * gen.lipschitz_z / spread
    if ratio > limit:
        raise ContractionViolated(
            f"one-step monotonicity fails: dt*L_z/(u-d) = {ratio:g} "
            f"exceeds min(q, 1-q) = {limit:g}; refine the grid"
        )


def backward_step(lat: Lattice, gen: Generator, k: int, y_next, cash, j: int | None = None):
    """One backward step into row k: hedge slope, expectation and implicit solve.

    With ``j`` None, ``y_next`` is row k+1 along axis 0 and ``cash`` row k's
    increments; with ``j`` given, ``y_next`` holds node (k, j)'s children
    (down, up) and ``cash`` that node's increment.  Any trailing axes of
    ``y_next`` are batch axes.  Returns (continuation, slope, residual,
    iterations), shaped (k+1, *batch) for a row and (*batch) for a node.
    """
    s_next, s = lat.spot.row(k + 1), lat.spot.row(k)
    if j is None:  # node data runs along axis 0, ahead of the batch axes
        tail = (1,) * (np.ndim(y_next) - 1)
        up, dn = y_next[1:], y_next[:-1]
        ds, s, cash = (np.reshape(a, (-1, *tail)) for a in (s_next[1:] - s_next[:-1], s, cash))
    else:
        up, dn = y_next[1], y_next[0]
        ds, s = s_next[j + 1] - s_next[j], s[j]
    z = (up - dn) / ds
    e = lat.q * up + (1.0 - lat.q) * dn
    v, residual, iterations = _implicit_row(gen, k * lat.dt, e - cash, z, s, lat.dt)
    return v, z, residual, iterations


def _check_terminal(lat: Lattice, terminal) -> np.ndarray:
    term = np.asarray(terminal, dtype=np.float64)
    if term.shape != (lat.n_steps + 1,):
        raise OutOfRange(f"terminal must have {lat.n_steps + 1} entries, got shape {term.shape}")
    if not np.isfinite(term).all():
        raise NonFiniteInput("terminal data contains non-finite values")
    return term


def _check_steps(lat: Lattice, error, **parts) -> None:
    """Raise ``error`` naming the first part whose step count differs from the lattice's."""
    for name, part in parts.items():
        if part.n_steps != lat.n_steps:
            raise error(f"{name} has {part.n_steps} steps, lattice has {lat.n_steps}")


def _check_entry(lat: Lattice, gen: Generator, error, **parts) -> None:
    """Entry check of every recursion: each part spans the lattice's steps, then the step contracts."""
    _check_steps(lat, error, **parts)
    require_contraction(gen, lat)


def _sweep(lat: Lattice, gen: Generator, terminal, cash: NodeProcess, node_rule):
    """The backward row loop: each row's continuation by ``backward_step``, then its node rule.

    ``node_rule(k, cont)`` maps row k's continuation to its values.  Returns
    flat value, slope and continuation arrays (terminal rows: the terminal
    data, zero, the terminal data) and the residual and iteration maxima.
    """
    n = lat.n_steps
    y, z, cont = (np.zeros(tri(n + 1)) for _ in range(3))
    y[tri(n):] = cont[tri(n):] = terminal
    residual_max, iterations_max = 0.0, 0
    for k in range(n - 1, -1, -1):
        row = slice(tri(k), tri(k + 1))
        cont[row], z[row], res, its = backward_step(lat, gen, k, y[row.stop:tri(k + 2)], cash.row(k))
        y[row] = node_rule(k, cont[row])
        residual_max, iterations_max = max(residual_max, res), max(iterations_max, its)
    return y, z, cont, residual_max, iterations_max


def solve_bsde(
    lat: Lattice, gen: Generator, terminal, cashflow_increments: NodeProcess
) -> tuple[NodeProcess, NodeProcess]:
    """Unreflected backward solve; returns the value and hedge-slope processes."""
    term = _check_terminal(lat, terminal)
    _check_entry(lat, gen, OutOfRange, cashflow_increments=cashflow_increments)
    y, z, *_ = _sweep(lat, gen, term, cashflow_increments, lambda k, cont: cont)
    return NodeProcess(y), NodeProcess(z)


def solve_drbsde(inputs: DrbsdeInputs) -> DrbsdeSolution:
    """Doubly reflected backward solve with per-node Skorokhod bookkeeping."""
    lo, hi = inputs.lower, inputs.upper
    y, z, v, residual_max, iterations_max = _sweep(
        inputs.lat, inputs.gen, inputs.terminal, inputs.cashflow_increments,
        lambda k, cont: np.minimum(hi.row(k), np.maximum(lo.row(k), cont)))
    # terminal rows are zero, as the terminal data lies in the band; dU reuses v's memory
    dl = np.maximum(lo.flat - v, 0.0)
    du = np.maximum(np.maximum(v, lo.flat, out=v) - hi.flat, 0.0, out=v)
    return DrbsdeSolution(*(NodeProcess(a) for a in (y, z, dl, du)), residual_max, iterations_max)


@dataclass(frozen=True, eq=False)
class GamePayoff:
    """Stopped-game payoff rows: minimizer stops on the upper row, maximizer on the lower, ties in between."""

    on_lower: NodeProcess
    on_upper: NodeProcess
    on_tie: NodeProcess

    def __post_init__(self) -> None:
        n = self.on_lower.n_steps
        if self.on_upper.n_steps != n or self.on_tie.n_steps != n:
            raise OutOfRange("payoff rows disagree on the number of steps")
        lo, hi, tie = self.on_lower.flat, self.on_upper.flat, self.on_tie.flat
        bad = first_node(~((lo <= tie) & (tie <= hi)))
        if bad:
            raise ObstacleOrderViolated(
                f"need on_lower <= on_tie <= on_upper at every node, violated at step {bad[1]}"
            )

    @property
    def n_steps(self) -> int:
        return self.on_lower.n_steps


# Game node rules (payoffs, stop marks, continuation -> values), for rows and cone tables alike.
def _pair_node(lo, hi, tie, bits, cont):
    sig, tau = bits
    return np.where(sig & tau, tie, np.where(sig, hi, np.where(tau, lo, cont)))


def _sup_node(lo, hi, tie, bits, cont):  # the opponent may force the tie, never gains by it
    return np.where(bits[0], np.maximum(tie, hi), np.maximum(lo, cont))


def _inf_node(lo, hi, tie, bits, cont):
    return np.where(bits[0], np.minimum(tie, lo), np.minimum(hi, cont))


def _game_root(lat: Lattice, gen: Generator, cash: NodeProcess, payoff: GamePayoff,
               node_rule, **rules: StoppingRule) -> float:
    """Root value of the sweep whose rows follow a game node rule under fixed stopping rules."""
    _check_entry(lat, gen, InvalidStoppingRule, payoff=payoff, cashflow_increments=cash, **rules)

    def row_rule(k, cont):
        lo, hi, tie = (p.row(k) for p in (payoff.on_lower, payoff.on_upper, payoff.on_tie))
        return node_rule(lo, hi, tie, [r.row(k) for r in rules.values()], cont)

    return float(_sweep(lat, gen, payoff.on_tie.row(lat.n_steps), cash, row_rule)[0][0])


def evaluate_stopped(
    lat: Lattice,
    gen: Generator,
    cashflow_increments: NodeProcess,
    payoff: GamePayoff,
    sigma: StoppingRule,
    tau: StoppingRule,
) -> float:
    """Root value of the stream stopped by the given rule pair.

    sigma is the minimizer's rule (pays the upper row when it stops alone),
    tau the maximizer's (lower row); simultaneous stops pay the tie row.
    Unstopped nodes continue by the same implicit step as the solvers.
    """
    return _game_root(lat, gen, cashflow_increments, payoff, _pair_node, sigma=sigma, tau=tau)


def snell_sup_for_minimizer(
    lat: Lattice, gen: Generator, cashflow_increments: NodeProcess,
    payoff: GamePayoff, sigma: StoppingRule,
) -> float:
    """sup over all maximizer stopping behaviour against the fixed minimizer rule."""
    return _game_root(lat, gen, cashflow_increments, payoff, _sup_node, sigma=sigma)
