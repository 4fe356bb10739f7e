"""Backward solvers on the lattice: plain and doubly reflected value recursions.

``backward_step`` is the one-step scheme every recursion in the package
uses (the solvers here, the fixed-rule evaluations and the game oracle).  From
row k+1 to row k it does, per node:

1. hedge slope  z = (y_up - y_dn) / (s_up - s_dn)
2. expectation  e = q*y_up + (1-q)*y_dn
3. implicit solve of  v = e - cashflow_k + g(t_k, v, z, s_k)*dt

A step covers a whole row or one node; either may carry trailing batch
axes (one value per stopping rule, say), and a row's node data (cash and
obstacle rows) the leading ones (one row per side), padded to the rest.

The implicit solve is a pure fixed-point iteration; for the builtin generator
the start point already solves the piecewise-linear equation exactly, so one
confirming sweep suffices.  On arrays (every row step and every oracle node
step) the builtin's start and confirming sweep run fused in one pass,
``generators.two_rate_step``, with the loop's arithmetic in the loop's order,
and its residual from the same z*s.  The general loop runs for custom
generators, scalar steps and any builtin step whose pass meets a non-finite
value or fails the exit test; it starts afresh, so values, errors and warnings
are the loop's own.  The exit test accepts a change of at most FIXED_POINT_TOL
or 4*eps*max|v|, whichever is larger, so quotes converge in any price units.
Only ``solve_drbsde`` reports a residual, so only its steps evaluate the
generator once more at the exit value; every other recursion gets None for the
residual and one finiteness check of that value instead, as an iterate that
overflows to +-inf passes the relative exit test.  A row step tests each
column (each index of its batch axes) on its own and freezes a column once it
passes, so a column's values are bit-identical to a step over that column
alone, whatever converges beside it.  A node step (the oracle's cone engine)
tests all its values jointly, so there a slowly converging custom generator's
results depend on what the step covers.

Every row recursion is one backward sweep behind one entry check (each
part spans the lattice's steps, and the step contracts); only the node rule
that turns a row's continuation into its values differs.  One problem
(``DrbsdeInputs``: lower, upper and tie rows, cash flow, generator and
lattice) serves the reflected solve and the game recursions alike and runs
that check at construction, so the game recursions check only their own
stopping rules; the tie's last row is the terminal data.  The sweep holds
only the row it steps from and hands each row to its caller: the solvers
store the full field, the stopped-game values and ``_reflected_roots`` keep
row 0 alone, so a batch of columns costs O(N x columns) memory (the
latter returns one root per side and column).
``solve_bsde`` keeps the continuation.  ``solve_drbsde`` projects it into
[lower_k, upper_k] and records the one-sided pushes dL = (lower - v)^+ and
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
from .generators import (DifferentialRates, Generator, _check_finite, contraction_ok, eval_g,
                         implicit_start, two_rate_residual, two_rate_step)
from .lattice import Lattice, NodeProcess, first_node, tri
from .stopping import StoppingRule

__all__ = [
    "FIXED_POINT_TOL",
    "MAX_FIXED_POINT_ITER",
    "DrbsdeInputs",
    "DrbsdeSolution",
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
    """Validated problem of a game and its doubly reflected solve, step size included.

    The minimizer stops on the upper row, the maximizer on the lower; a
    simultaneous stop pays the tie row, whose last row is the terminal data.
    Construction runs the entry check (each part spans the lattice's steps,
    then the step contracts), then requires lower < upper and
    lower <= tie <= upper at every node.
    """

    lower: NodeProcess
    upper: NodeProcess
    tie: NodeProcess
    cashflow_increments: NodeProcess
    gen: Generator
    lat: Lattice

    def __post_init__(self) -> None:
        _check_entry(self.lat, self.gen, OutOfRange, lower=self.lower, upper=self.upper,
                     tie=self.tie, cashflow_increments=self.cashflow_increments)
        lo, hi, tie = self.lower.flat, self.upper.flat, self.tie.flat
        bad = first_node(~(lo < hi))
        if bad:
            i, k, j = bad
            raise ObstacleOrderViolated(
                f"lower must stay strictly below upper; at node ({k}, {j}): "
                f"lower={lo[i]!r}, upper={hi[i]!r}"
            )
        bad = first_node(~((lo <= tie) & (tie <= hi)))
        if bad:
            i, k, j = bad
            if k == self.lat.n_steps:
                raise TerminalOutOfBand(
                    f"terminal value at node ({k}, {j}) is {tie[i]!r}, "
                    f"outside [{lo[i]!r}, {hi[i]!r}]"
                )
            raise ObstacleOrderViolated(
                f"need lower <= tie <= upper; at node ({k}, {j}): "
                f"lower={lo[i]!r}, tie={tie[i]!r}, upper={hi[i]!r}"
            )


@dataclass(frozen=True, eq=False)
class DrbsdeSolution:
    """Value, hedge slope and reflection increments; terminal rows of Z, dL, dU are zero."""

    Y: NodeProcess
    Z: NodeProcess
    dL: NodeProcess
    dU: NodeProcess
    residual_max: float
    iterations_max: int


def _implicit_row(gen: Generator, t: float, rhs, z, s, dt: float, axis: int | None = None,
                  residual: bool = True):
    """Solve v = rhs + g(t, v, z, s)*dt by fixed-point iteration.

    Returns (v, residual, iterations), the last two maxima over columns.  The
    exit test bounds the true residual because one extra application
    contracts the gap by dt*L_y < 1; it also accepts 4*eps*max|v|, since above
    |v| = 8192 one ulp alone exceeds FIXED_POINT_TOL.  With ``axis`` None one
    test covers every value; with ``axis=0`` each column (index of the axes
    after 0) is tested alone and keeps the value it passed with.  The residual
    costs one more generator evaluation; with ``residual`` false it is None,
    and v is checked finite instead (inf passes the relative exit test).
    A builtin step on arrays takes its first iteration from ``two_rate_step``,
    fused into one pass, and ends there if that passes the exit test;
    otherwise (a non-finite value, or a column that fails both tolerances)
    the loop runs from the start.
    """
    if isinstance(gen, DifferentialRates) and isinstance(rhs, np.ndarray):
        first = two_rate_step(gen, t, rhs, z, s, dt)
        if first is not None:
            v, change, zs, delta = first
            if delta <= FIXED_POINT_TOL or _moving(change, v, axis) is None:
                return v, two_rate_residual(gen, rhs, v, zs, dt) if residual else None, 1
    v, live = implicit_start(gen, t, rhs, z, s, dt), None
    for it in range(1, MAX_FIXED_POINT_ITER + 1):
        v_new = eval_g(gen, t, v, z, s)  # fresh, so rhs + g*dt is built in it
        v_new *= dt
        v_new += rhs
        if live is not None:
            v_new = np.where(live, v_new, v)
        change = v_new - v
        change = np.abs(change, out=change if isinstance(change, np.ndarray) else None)
        v, delta = v_new, float(np.max(change))
        if delta <= FIXED_POINT_TOL:  # every column passes
            break
        live = _moving(change, v, axis)
        if live is None:
            break
    else:
        raise NonConvergence(
            f"implicit step did not reach {FIXED_POINT_TOL:g} (nor 4*eps*max|v|) within "
            f"{MAX_FIXED_POINT_ITER} iterations (last change {delta:g}); "
            "declared Lipschitz bounds are likely understated"
        )
    if not residual:
        _check_finite("y", v)
        return v, None, it
    return v, float(np.max(np.abs(v - (rhs + eval_g(gen, t, v, z, s) * dt)))), it


def _moving(change, v, axis: int | None):
    """The columns whose change exceeds both exit tolerances, or None if there is none."""
    col = np.max(change, axis=axis)
    live = ~((col <= FIXED_POINT_TOL) | (col <= _RELATIVE_TOL * np.max(np.abs(v), axis=axis)))
    return live if live.any() else None


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


def backward_step(lat: Lattice, gen: Generator, k: int, y_next, cash, j: int | None = None,
                  residual: bool = True):
    """One backward step into row k: hedge slope, expectation and implicit solve.

    With ``j`` None, ``y_next`` is row k+1 along axis 0 and ``cash`` row k's
    increments; with ``j`` given, ``y_next`` holds node (k, j)'s children
    (down, up) and ``cash`` that node's increment.  Any trailing axes of
    ``y_next`` are batch axes; a row's ``cash`` may carry the leading ones
    (one row per side, say).  Returns (continuation, slope, residual,
    iterations), shaped (k+1, *batch) for a row and (*batch) for a node.
    The residual, the largest |v - rhs - g*dt| at the exit value, costs one
    more generator evaluation; with ``residual`` false it is None and the
    continuation is checked finite instead (``NonFiniteInput``).  The step
    builds its arithmetic in place in its own fresh arrays and never writes
    into ``y_next`` or ``cash``, so read-only tables and broadcast views serve.
    """
    if not 0 <= k < lat.n_steps:
        raise OutOfRange(f"step {k} outside 0..{lat.n_steps - 1}")
    head = tri(k + 1)  # row k ends where row k+1 starts
    s, s_next = lat.spot.flat[head - k - 1:head], lat.spot.flat[head:head + k + 2]
    if j is None:  # node data runs along axis 0, ahead of the batch axes
        up, dn = y_next[1:], y_next[:-1]
        ds = s_next[1:] - s_next[:-1]
        rank = np.ndim(y_next)
        if rank > 1:
            ds, s, cash = (_pad(a, rank) for a in (ds, s, cash))
    else:
        up, dn = y_next[1], y_next[0]
        ds, s = s_next[j + 1] - s_next[j], s[j]
    z = up - dn
    z /= ds
    e = lat.q * up
    e += (1.0 - lat.q) * dn
    e -= cash
    v, res, iterations = _implicit_row(gen, k * lat.dt, e, z, s, lat.dt,
                                       0 if j is None else None, residual)
    return v, z, res, iterations


def _pad(a, rank: int) -> np.ndarray:
    """Node data with trailing unit axes up to ``rank``, to broadcast over the rest of a batch."""
    a = np.asarray(a)
    return a.reshape(a.shape + (1,) * (rank - a.ndim))


def _check_steps(lat: Lattice, error, **parts) -> None:
    """Raise ``error`` naming the first part whose step count differs from the lattice's."""
    for name, part in parts.items():
        if part.n_steps != lat.n_steps:
            raise error(f"{name} has {part.n_steps} steps, lattice has {lat.n_steps}")


def _check_entry(lat: Lattice, gen: Generator, error, **parts) -> None:
    """Entry check of every recursion: each part spans the lattice's steps, then the step contracts."""
    _check_steps(lat, error, **parts)
    require_contraction(gen, lat)


def _sweep(lat: Lattice, gen: Generator, terminal, cash: NodeProcess, node_rule, keep=None,
           residual: bool = False):
    """The backward row loop: each row's continuation by ``backward_step``, then its node rule.

    ``node_rule(k, cont)`` maps row k's continuation to its values, and
    ``keep(k, values, slope, cont)``, if given, receives each row; the loop
    itself holds only the row it steps from.  Rows may carry batch columns
    after the node axis.  Returns row 0's values and the residual and
    iteration maxima; the residual maximum is None unless ``residual``.
    """
    y, residual_max, iterations_max = terminal, 0.0 if residual else None, 0
    for k in range(lat.n_steps - 1, -1, -1):
        cont, z, res, its = backward_step(lat, gen, k, y, cash.row(k), residual=residual)
        y = node_rule(k, cont)
        if keep is not None:
            keep(k, y, z, cont)
        if residual:
            residual_max = max(residual_max, res)
        iterations_max = max(iterations_max, its)
    return y, residual_max, iterations_max


def _field(lat: Lattice, gen: Generator, terminal, cash: NodeProcess, node_rule,
           residual: bool = False):
    """The sweep stored whole: flat value, slope and continuation arrays.

    Terminal rows hold the terminal data, zero and the terminal data; the
    residual (None unless ``residual``) and iteration maxima follow the arrays.
    """
    n = lat.n_steps
    y, z, cont = (np.zeros(tri(n + 1)) for _ in range(3))
    y[tri(n):] = cont[tri(n):] = terminal

    def keep(k, y_k, z_k, cont_k):
        row = slice(tri(k), tri(k + 1))
        y[row], z[row], cont[row] = y_k, z_k, cont_k

    _, residual_max, iterations_max = _sweep(lat, gen, terminal, cash, node_rule, keep, residual)
    return y, z, cont, residual_max, iterations_max


def _reflect(lo, hi):
    """Node rule projecting a row's continuation into [lower_k, upper_k], batch columns alike."""
    def rule(k, cont):
        lo_k, hi_k, rank = lo.row(k), hi.row(k), np.ndim(cont)
        if rank > 1:
            lo_k, hi_k = _pad(lo_k, rank), _pad(hi_k, rank)
        return np.minimum(hi_k, np.maximum(lo_k, cont))

    return rule


def solve_bsde(
    lat: Lattice, gen: Generator, terminal, cashflow_increments: NodeProcess
) -> tuple[NodeProcess, NodeProcess]:
    """Unreflected backward solve; returns the value and hedge-slope processes."""
    term = np.asarray(terminal, dtype=np.float64)
    if term.shape != (lat.n_steps + 1,):
        raise OutOfRange(f"terminal must have {lat.n_steps + 1} entries, got shape {term.shape}")
    if not np.isfinite(term).all():
        raise NonFiniteInput("terminal data contains non-finite values")
    _check_entry(lat, gen, OutOfRange, cashflow_increments=cashflow_increments)
    y, z, *_ = _field(lat, gen, term, cashflow_increments, lambda k, cont: cont)
    return NodeProcess(y), NodeProcess(z)


def solve_drbsde(inputs: DrbsdeInputs) -> DrbsdeSolution:
    """Doubly reflected backward solve with per-node Skorokhod bookkeeping."""
    lo, hi = inputs.lower, inputs.upper
    y, z, v, residual_max, iterations_max = _field(
        inputs.lat, inputs.gen, inputs.tie.row(inputs.lat.n_steps), inputs.cashflow_increments,
        _reflect(lo, hi), residual=True)
    # terminal rows are zero, as the terminal data lies in the band; dU reuses v's memory
    dl = np.maximum(lo.flat - v, 0.0)
    du = np.maximum(np.maximum(v, lo.flat, out=v) - hi.flat, 0.0, out=v)
    return DrbsdeSolution(*(NodeProcess(a) for a in (y, z, dl, du)), residual_max, iterations_max)


class _SideRows:
    """Several sides' rows of one node part, gathered per step into one reused buffer."""

    def __init__(self, parts):
        self.parts, self.buf = parts, np.empty((parts[0].n_steps + 1, len(parts)))

    def row(self, k):
        start = tri(k)
        for b, part in enumerate(self.parts):
            self.buf[:k + 1, b] = part.flat[start:start + k + 1]
        return self.buf[:k + 1]


def _reflected_roots(sides: list[DrbsdeInputs], gen: Generator, columns: int) -> np.ndarray:
    """Root values of several sides' doubly reflected solves in one pass, shaped (sides, columns).

    The sides share the lattice; ``gen`` stacks one generator per column (see
    ``generators._stack_generators``) and replaces the sides' own, which
    served only their entry checks.  Entry (b, c) is bit-identical to
    ``solve_drbsde``'s root for ``sides[b]`` under the c-th generator.  No
    flat copy of the sides' node data is made, and no row but the root is kept.
    """
    lo, hi, cash = (_SideRows([getattr(s, name) for s in sides])
                    for name in ("lower", "upper", "cashflow_increments"))
    n = sides[0].lat.n_steps
    term = np.repeat(np.stack([s.tie.row(n) for s in sides], axis=1)[..., None], columns, axis=2)
    return _sweep(sides[0].lat, gen, term, cash, _reflect(lo, hi))[0][0]


# Game node rules (payoffs, stop marks, continuation -> values), for rows and cone tables alike.
# A row's marks are arrays, one per node, and ``_pick`` selects node by node; a cone table
# fills one slot per combination of the players' own bits, so there each mark is a single
# boolean and ``_pick`` hands back the chosen operand whole, with no masking pass.
def _pick(mark, stop, go):
    if isinstance(mark, np.ndarray):
        return np.where(mark, stop, go)
    return stop if mark else go


def _pair_node(lo, hi, tie, marks, cont):
    sig, tau = marks
    return _pick(sig & tau, tie, _pick(sig, hi, _pick(tau, lo, cont)))


def _sup_node(lo, hi, tie, marks, cont):  # the opponent may force the tie, but tie <= upper
    return _pick(marks[0], hi, np.maximum(lo, cont))


def _inf_node(lo, hi, tie, marks, cont):  # likewise lower <= tie
    return _pick(marks[0], lo, np.minimum(hi, cont))


def _game_root(game: DrbsdeInputs, node_rule, **rules: StoppingRule) -> float:
    """Root value of the sweep whose rows follow a game node rule under fixed stopping rules."""
    lat = game.lat
    _check_steps(lat, InvalidStoppingRule, **rules)

    def row_rule(k, cont):
        lo, hi, tie = (p.row(k) for p in (game.lower, game.upper, game.tie))
        return node_rule(lo, hi, tie, [r.row(k) for r in rules.values()], cont)

    return float(_sweep(lat, game.gen, game.tie.row(lat.n_steps), game.cashflow_increments,
                        row_rule)[0][0])


def evaluate_stopped(game: DrbsdeInputs, sigma: StoppingRule, tau: StoppingRule) -> float:
    """Root value of the stream stopped by the given rule pair.

    sigma is the minimizer's rule (pays the upper row when it stops alone),
    tau the maximizer's (lower row); simultaneous stops pay the tie row.
    Unstopped nodes continue by the same implicit step as the solvers.
    """
    return _game_root(game, _pair_node, sigma=sigma, tau=tau)


def snell_sup_for_minimizer(game: DrbsdeInputs, sigma: StoppingRule) -> float:
    """sup over all maximizer stopping behaviour against the fixed minimizer rule."""
    return _game_root(game, _sup_node, sigma=sigma)
