"""Markovian stopping rules on the lattice and path addressing helpers.

A rule marks a subset of nodes; the induced stopping time on a path is the
first step whose node is marked.  The terminal row must always be marked so
the time is finite (never stopping earlier means stopping at T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStoppingRule, OutOfRange

__all__ = ["StoppingRule", "path_moves", "path_up_counts"]


@dataclass(frozen=True, eq=False)
class StoppingRule:
    """Node marking; row k has k+1 booleans, terminal row all True."""

    rows: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise InvalidStoppingRule("rule needs at least the step-0 row")
        frozen = []
        for k, row in enumerate(self.rows):
            arr = np.array(row, dtype=bool)
            if arr.ndim != 1 or arr.shape[0] != k + 1:
                raise InvalidStoppingRule(f"row {k} must have {k + 1} entries, got shape {arr.shape}")
            arr.flags.writeable = False
            frozen.append(arr)
        if not frozen[-1].all():
            raise InvalidStoppingRule("terminal row must be fully marked")
        object.__setattr__(self, "rows", tuple(frozen))

    @property
    def n_steps(self) -> int:
        return len(self.rows) - 1

    def row(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.n_steps:
            raise OutOfRange(f"step {k} outside 0..{self.n_steps}")
        return self.rows[k]

    def marks(self, k: int, j: int) -> bool:
        row = self.row(k)
        if not 0 <= j <= k:
            raise OutOfRange(f"up-count {j} outside 0..{k}")
        return bool(row[j])

    def marked_nodes(self) -> tuple[tuple[int, int], ...]:
        """All marked (step, up_count) pairs sorted, terminal row included."""
        out = []
        for k, row in enumerate(self.rows):
            out.extend((k, j) for j in range(k + 1) if row[j])
        return tuple(out)

    def first_hit(self, up_counts) -> int:
        """First marked step along a path given its up-count at every step."""
        js = np.asarray(up_counts, dtype=np.int64)
        if js.shape != (self.n_steps + 1,):
            raise InvalidStoppingRule(
                f"path must give an up-count for each of {self.n_steps + 1} steps"
            )
        for k in range(self.n_steps + 1):
            if self.rows[k][js[k]]:
                return k
        raise AssertionError("unreachable: terminal row is always marked")

    @classmethod
    def from_nodes(cls, n_steps: int, nodes) -> "StoppingRule":
        """Rule marking the given interior (step, up_count) pairs plus the terminal row."""
        rows = [np.zeros(k + 1, dtype=bool) for k in range(n_steps + 1)]
        rows[n_steps][:] = True
        for k, j in nodes:
            if not (0 <= k <= n_steps and 0 <= j <= k):
                raise InvalidStoppingRule(f"node ({k}, {j}) outside the lattice")
            rows[k][j] = True
        return cls(tuple(rows))

    @classmethod
    def never_early(cls, n_steps: int) -> "StoppingRule":
        """Stop only at the terminal step."""
        return cls.from_nodes(n_steps, ())


def path_moves(path_id, n_steps: int) -> np.ndarray:
    """Decode path ids into 0/1 up-move sequences (bit i = move at step i).

    A single id gives shape (N,); an array of ids gives one row per id.
    """
    ids = np.asarray(path_id)
    if np.any(ids < 0) or np.any(ids >= (1 << n_steps)):
        raise OutOfRange(f"path id {path_id} outside 0..{(1 << n_steps) - 1}")
    bits = (ids[..., None] >> np.arange(n_steps)) & 1
    return bits.astype(np.int64, copy=False)


def path_up_counts(moves) -> np.ndarray:
    """Cumulative up-count at each step for 0/1 move sequences (length N -> N+1, per row)."""
    mv = np.asarray(moves, dtype=np.int64)
    if mv.ndim not in (1, 2) or (mv.size and (mv.min() < 0 or mv.max() > 1)):
        raise OutOfRange("moves must be a 0/1 sequence or a matrix of them")
    out = np.zeros(mv.shape[:-1] + (mv.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(mv, axis=-1, out=out[..., 1:])
    return out
