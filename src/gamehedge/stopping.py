"""Markovian stopping rules on the lattice and path addressing helpers.

A rule marks a subset of nodes; the induced stopping time on a path is the
first step whose node is marked.  The terminal row must always be marked so
the time is finite (never stopping earlier means stopping at T).  Marks
use the node layout of ``NodeProcess``: one flat array, node (k, j) at
``tri(k, j)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStoppingRule, OutOfRange
from .lattice import FlatNodes, tri

__all__ = ["StoppingRule", "path_moves", "path_up_counts"]


@dataclass(frozen=True, eq=False)
class StoppingRule(FlatNodes):
    """Node marking in the flat node layout; terminal row all True."""

    def __post_init__(self) -> None:
        if not self._freeze(bool, InvalidStoppingRule)[tri(self.n_steps):].all():
            raise InvalidStoppingRule("terminal row must be fully marked")

    def first_hit(self, up_counts) -> int:
        """First marked step along a path given its up-count at every step."""
        js, ks = np.asarray(up_counts, dtype=np.int64), np.arange(self.n_steps + 1)
        if js.shape != ks.shape or np.any((js < 0) | (js > ks)):
            raise InvalidStoppingRule(
                f"path must give an up-count in 0..k for each of {self.n_steps + 1} steps"
            )
        return int(np.argmax(self.flat[tri(ks, js)]))

    @classmethod
    def from_nodes(cls, n_steps: int, nodes) -> "StoppingRule":
        """Rule marking flat node indices (node (k, j) at ``tri(k, j)``) and the terminal row."""
        idx, size = np.asarray(nodes), tri(n_steps + 1)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise InvalidStoppingRule(
                f"nodes must be a 1-D sequence of flat node indices, got shape {idx.shape} "
                f"of {idx.dtype}"
            )
        outside = idx[(idx < 0) | (idx >= size)]
        if outside.size:
            raise InvalidStoppingRule(f"node index {outside[0]} outside 0..{size - 1}")
        flat = np.zeros(size, dtype=bool)
        flat[tri(n_steps):] = True
        flat[idx.astype(np.intp)] = True
        return cls(flat)

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
