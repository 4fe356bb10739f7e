"""Nonlinear funding generators g(t, y, z, s) and their Lipschitz metadata.

The generator is the drift of the wealth/value recursion: over one step the
value picks up ``-g * dt``.  The one builtin, ``DifferentialRates``, applies a
lending rate to positive cash ``y - z*s`` and a borrowing rate to negative
cash; equal rates give the one-rate market and zero rates the flat one.
User generators supply a callable plus explicit Lipschitz bounds in y and
in z (the z bound is per unit of z times spot, matching the builtin).

The builtin's rates may also be 1-D arrays, one entry per batch column
(``_stack_generators``): ``eval_g`` and ``implicit_start`` broadcast them along
the last axis, and the Lipschitz bounds are the largest over the columns.

On array inputs the split-rate arithmetic picks each node's rate by the sign
of its cash first (``np.where`` over the rates) and then computes once, so
each element goes through the same IEEE operations as the branch its sign
selects, and no element computes the other branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InvalidParameters, NonFiniteInput, OutOfRange

__all__ = [
    "DifferentialRates",
    "CustomGenerator",
    "Generator",
    "eval_g",
    "contraction_ok",
    "implicit_start",
]


@dataclass(frozen=True)
class DifferentialRates:
    """g = -r_lend*(y - z*s)^+ + r_borrow*(y - z*s)^-: split funding rates."""

    r_lend: float
    r_borrow: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.r_lend).all() and np.isfinite(self.r_borrow).all()):
            raise NonFiniteInput("rates must be finite")
        if not np.all((0.0 <= self.r_lend) & (self.r_lend <= self.r_borrow)):
            raise OutOfRange(
                f"need 0 <= r_lend <= r_borrow, got r_lend={self.r_lend}, r_borrow={self.r_borrow}"
            )

    @property
    def lipschitz_y(self) -> float:
        return float(np.max(np.maximum(self.r_lend, self.r_borrow)))

    @property
    def lipschitz_z(self) -> float:
        return self.lipschitz_y


@dataclass(frozen=True)
class CustomGenerator:
    """User-supplied pure mapping (t, y, z, s) -> g with declared Lipschitz bounds."""

    fn: Callable[[float, float, float, float], float]
    lipschitz_y: float
    lipschitz_z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lipschitz_y) and math.isfinite(self.lipschitz_z)):
            raise NonFiniteInput("declared Lipschitz bounds must be finite")
        if self.lipschitz_y < 0.0 or self.lipschitz_z < 0.0:
            raise OutOfRange("declared Lipschitz bounds must be nonnegative")


Generator = Union[DifferentialRates, CustomGenerator]


def _finite(value) -> bool:
    return np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)


def _check_finite(name: str, value) -> None:
    if not _finite(value):
        raise NonFiniteInput(f"{name} must be finite")


def _check_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameters(f"{name} must be positive and finite, got {value!r}")


def eval_g(gen: Generator, t: float, y, z, s):
    """Evaluate the generator; y, z, s may be scalars or broadcastable arrays.

    A non-finite input raises ``NonFiniteInput`` naming the first of t, y, z,
    s that holds one.  The builtin checks t, which its g does not read, and
    then scans only its output: a non-finite y, z or s leaves the g entries
    it reaches non-finite, so the inputs are scanned only when g fails.  A
    g that overflows from finite inputs is returned as it is.  An array g is
    a fresh array, which the caller may write into.
    """
    if isinstance(gen, DifferentialRates):
        _check_finite("t", t)
        with np.errstate(invalid="ignore"):  # inf*0 or inf-inf from an input named below
            cash = y - z * s
            if isinstance(cash, np.ndarray):
                g = np.where(cash >= 0.0, -gen.r_lend, -gen.r_borrow)
                g *= cash
            else:
                g = -gen.r_lend * cash if cash >= 0.0 else -gen.r_borrow * cash
        if not _finite(g):
            for name, value in (("y", y), ("z", z), ("s", s)):
                _check_finite(name, value)
        return g
    if isinstance(gen, CustomGenerator):
        for name, value in (("t", t), ("y", y), ("z", z), ("s", s)):
            _check_finite(name, value)
        if any(isinstance(v, np.ndarray) for v in (y, z, s)):
            yb, zb, sb = np.broadcast_arrays(np.asarray(y, float), np.asarray(z, float), np.asarray(s, float))
            out = np.empty(yb.shape)
            flat = zip(yb.reshape(-1), zb.reshape(-1), sb.reshape(-1))
            out.reshape(-1)[:] = [gen.fn(t, yi, zi, si) for yi, zi, si in flat]
            if not np.isfinite(out).all():
                raise NonFiniteInput("custom generator returned a non-finite value")
            return out
        val = float(gen.fn(t, y, z, s))
        if not math.isfinite(val):
            raise NonFiniteInput("custom generator returned a non-finite value")
        return val
    raise OutOfRange(f"unknown generator type {type(gen).__name__}")


def contraction_ok(gen: Generator, dt: float) -> bool:
    """True iff the implicit one-step map is a contraction at step size dt.

    The z bound is slope-invariant (the spot scale cancels against the
    hedge-slope denominator), so no spot level enters.  For the builtin
    generator the test reduces to dt * max(r_lend, r_borrow) < 1.
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise OutOfRange(f"dt must be positive and finite, got {dt}")
    return dt * gen.lipschitz_y < 1.0 and dt * gen.lipschitz_z < 1.0


def implicit_start(gen: Generator, t: float, rhs, z, s, dt: float):
    """Initial guess for the fixed-point solve of v = rhs + g(t, v, z, s)*dt.

    For the builtin this is the exact solution (rhs + r*z*s*dt) / (1 + r*dt),
    r the rate the sign of rhs - z*s picks (the equation is piecewise linear
    in v and the cash sign equals that sign), so the iteration that follows
    only has to confirm it.  On arrays the quotient is built in place in two
    fresh arrays, the numerator and the picked rates, with the same operations
    in the same order; no input is written.  Custom generators start at rhs.
    """
    if isinstance(gen, DifferentialRates):
        zs = z * s
        if isinstance(rhs, np.ndarray) or isinstance(zs, np.ndarray):
            r = np.where(rhs - zs >= 0.0, gen.r_lend, gen.r_borrow)
            num = r * zs
            num *= dt
            num += rhs
            r *= dt
            r += 1.0
            num /= r
            return num
        lend = (rhs + gen.r_lend * zs * dt) / (1.0 + gen.r_lend * dt)
        borrow = (rhs + gen.r_borrow * zs * dt) / (1.0 + gen.r_borrow * dt)
        return lend if rhs - zs >= 0.0 else borrow
    return rhs if isinstance(rhs, np.ndarray) else float(rhs)


def _stack_generators(gens: Sequence[Generator]) -> DifferentialRates:
    """One builtin generator of the given builtins, its rates 1-D arrays in their order.

    On rows whose last axis has one column per generator, column b of a
    step under the stacked generator is bit-identical to the same step under
    ``gens[b]`` alone.
    """
    if not gens or any(type(g) is not DifferentialRates for g in gens):
        raise InvalidParameters("only one or more builtin generators stack")
    return DifferentialRates(np.array([g.r_lend for g in gens]), np.array([g.r_borrow for g in gens]))
