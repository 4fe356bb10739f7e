"""Discrete market model: time grid, recombining price lattice, benchmark account.

The lattice is a recombining binomial tree.  A node is addressed by
``(k, j)`` where ``k`` is the step (0..N) and ``j`` the number of up moves
(0..k).  The spot at a node is ``s0 * u**j * d**(k-j)``.  The one-step
probability ``q = (1 - d) / (u - d)`` is the unique weight that makes the
spot a martingale, so it is derived, never supplied.

``NodeProcess`` stores one float per node in one read-only flat array, the
rows laid end to end so node ``(k, j)`` sits at ``tri(k, j) = k(k+1)/2 + j``
and ``row(k)`` is a view.  It is the common currency for payoffs,
obstacles, solutions and increments; stopping rules use the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateLattice, NonFiniteInput, OutOfRange

__all__ = [
    "TimeGrid",
    "NodeProcess",
    "Lattice",
    "BenchmarkAccount",
    "build_lattice",
    "benchmark_wealth",
    "benchmark_profile",
    "write_node_process",
    "write_node_set",
    "read_node_process",
    "tri",
    "node_coords",
    "FlatNodes",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N steps; dt is derived, never supplied."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_steps, int) or self.n_steps < 1:
            raise OutOfRange(f"n_steps must be a positive integer, got {self.n_steps!r}")
        if not math.isfinite(self.horizon):
            raise NonFiniteInput("horizon must be finite")
        if self.horizon <= 0.0:
            raise OutOfRange(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


def tri(k, j=0):
    """Flat index of node (k, j): rows are laid end to end, row k starting at k(k+1)/2."""
    return k * (k + 1) // 2 + j


def node_coords(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Step k and up-count j of every flat node index of an n_steps lattice."""
    ks = np.repeat(np.arange(n_steps + 1), np.arange(1, n_steps + 2))
    return ks, np.arange(ks.size) - tri(ks)


def _row_of(i: int) -> int:
    """Step k whose row holds flat index i, the inverse of ``tri``."""
    return (math.isqrt(8 * i + 1) - 1) // 2


def first_node(mask: np.ndarray) -> tuple[int, int, int] | None:
    """Flat index, step and up-count of the first True entry of a flat node mask."""
    hits = np.flatnonzero(mask)
    if not hits.size:
        return None
    i = int(hits[0])
    k = _row_of(i)
    return i, k, i - tri(k)


@dataclass(frozen=True, eq=False)
class FlatNodes:
    """One value per lattice node in one read-only flat array, node (k, j) at ``tri(k, j)``.

    Subclasses call ``_freeze`` once, which owns a copy and sets ``n_steps``.
    """

    flat: np.ndarray
    n_steps: int = field(init=False)

    def _freeze(self, dtype, error) -> np.ndarray:
        arr = np.array(self.flat, dtype=dtype)
        if arr.ndim != 1 or arr.size == 0 or tri(_row_of(arr.size)) != arr.size:
            raise error(f"need one value per node of a triangular lattice, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "flat", arr)
        object.__setattr__(self, "n_steps", _row_of(arr.size) - 1)
        return arr

    def row(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.n_steps:
            raise OutOfRange(f"step {k} outside 0..{self.n_steps}")
        return self.flat[tri(k):tri(k + 1)]

    def at(self, k: int, j: int):
        """The value at node (k, j) as a Python scalar."""
        row = self.row(k)
        if not 0 <= j <= k:
            raise OutOfRange(f"up-count {j} outside 0..{k}")
        return row[j].item()


@dataclass(frozen=True, eq=False)
class NodeProcess(FlatNodes):
    """One float per lattice node; row k holds k+1 values indexed by up-count."""

    def __post_init__(self) -> None:
        bad = first_node(~np.isfinite(self._freeze(np.float64, OutOfRange)))
        if bad:
            raise NonFiniteInput(f"row {bad[1]} contains non-finite values")

    @classmethod
    def from_rows(cls, rows) -> "NodeProcess":
        rows = [np.asarray(r, dtype=np.float64) for r in rows]
        if not rows:
            raise OutOfRange("NodeProcess needs at least the step-0 row")
        for k, row in enumerate(rows):
            if row.shape != (k + 1,):
                raise OutOfRange(f"row {k} must have {k + 1} entries, got shape {row.shape}")
        return cls(np.concatenate(rows))

    @classmethod
    def constant(cls, n_steps: int, value: float) -> "NodeProcess":
        return cls(np.full(tri(n_steps + 1), float(value)))

    @classmethod
    def zeros(cls, n_steps: int) -> "NodeProcess":
        return cls.constant(n_steps, 0.0)


@dataclass(frozen=True, eq=False)
class Lattice:
    """Recombining binomial lattice with martingale weight q = (1-d)/(u-d)."""

    s0: float
    u: float
    d: float
    grid: TimeGrid
    q: float = field(init=False)
    spot: NodeProcess = field(init=False)

    def __post_init__(self) -> None:
        for name, v in (("s0", self.s0), ("u", self.u), ("d", self.d)):
            if not math.isfinite(v):
                raise NonFiniteInput(f"{name} must be finite")
        if self.s0 <= 0.0:
            raise OutOfRange(f"s0 must be positive, got {self.s0}")
        # q stays in (0,1) exactly when d < 1 < u; u <= d is degenerate too.
        if not (0.0 < self.d < 1.0 < self.u):
            raise DegenerateLattice(
                f"need 0 < d < 1 < u for an interior martingale weight, got u={self.u}, d={self.d}"
            )
        object.__setattr__(self, "q", (1.0 - self.d) / (self.u - self.d))
        ks, js = node_coords(self.grid.n_steps)
        object.__setattr__(self, "spot", NodeProcess(self.s0 * self.u**js * self.d ** (ks - js)))

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def dt(self) -> float:
        return self.grid.dt


def build_lattice(s0: float, u: float, d: float, grid: TimeGrid) -> Lattice:
    """Construct a lattice, validating 0 < d < 1 < u and s0 > 0."""
    return Lattice(s0=float(s0), u=float(u), d=float(d), grid=grid)


@dataclass(frozen=True)
class BenchmarkAccount:
    """Riskless account with a lending rate for credit and a borrowing rate for debit."""

    r_lend: float
    r_borrow: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_lend) and math.isfinite(self.r_borrow)):
            raise NonFiniteInput("benchmark rates must be finite")
        if not 0.0 <= self.r_lend <= self.r_borrow:
            raise OutOfRange(
                f"need 0 <= r_lend <= r_borrow, got r_lend={self.r_lend}, r_borrow={self.r_borrow}"
            )


def benchmark_wealth(acct: BenchmarkAccount, x: float, k: int, dt: float) -> float:
    """Wealth after k steps of rolling x at the side-dependent simple rate.

    Positive balances compound at r_lend, negative ones at r_borrow, so the
    map is increasing in x and positively homogeneous on each sign.
    """
    if not math.isfinite(x):
        raise NonFiniteInput("endowment must be finite")
    if k < 0:
        raise OutOfRange(f"step count must be nonnegative, got {k}")
    if dt <= 0.0 or not math.isfinite(dt):
        raise OutOfRange(f"dt must be positive and finite, got {dt}")
    rate = acct.r_lend if x >= 0.0 else acct.r_borrow
    return x * (1.0 + rate * dt) ** k


def benchmark_profile(acct: BenchmarkAccount, x: float, grid: TimeGrid) -> np.ndarray:
    """benchmark_wealth at every step 0..N as a vector."""
    return np.array([benchmark_wealth(acct, x, k, grid.dt) for k in range(grid.n_steps + 1)])


_CSV_HEADER = ["step", "up_count", "value"]
_CSV_EOL = "\r\n"
_CSV_BLOCK_ROWS = 1 << 14  # rows per write: bounds memory and the cell strings made per block


def _cells(col: np.ndarray) -> list[str]:
    """Each float64 of a 1-D column as its CSV cell, formatting each distinct bit pattern once.

    The artifact CSV dialect: comma-separated, CRLF line ends, no quoting, every value as
    %.17g (which round-trips every double); each writer fills its own label template.
    """
    keys, inverse = np.unique(col.view(np.uint64), return_inverse=True)  # -0.0 is not 0.0
    distinct = ("%.17g\n" * keys.size % tuple(keys.view(np.float64).tolist())).split("\n")
    return np.array(distinct, dtype=object)[inverse].tolist()


def write_node_process(proc: NodeProcess, path) -> None:
    """Write rows (step, up_count, value) sorted by (step, up_count), 17 significant digits.

    Whole lattice rows per block, each distinct bit pattern formatted once (``_cells``).
    """
    labels = [f"{j},%s" for j in range(proc.n_steps + 1)]
    rows = max(1, _CSV_BLOCK_ROWS // (proc.n_steps + 1))  # lattice rows per block
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + _CSV_EOL)
        for k in range(0, proc.n_steps + 1, rows):
            template = "".join(f"{i}," + f"{_CSV_EOL}{i},".join(labels[:i + 1]) + _CSV_EOL
                               for i in range(k, min(k + rows, proc.n_steps + 1)))
            fh.write(template % tuple(_cells(proc.flat[tri(k):tri(k + rows)])))


def write_node_set(path, nodes: np.ndarray, n_steps: int) -> None:
    """Write rows (step, up_count) of the strictly increasing flat node indices ``nodes``.

    The artifact dialect (``_cells``) without values; whole lattice rows per block, the
    up-count labels made once per call, so nothing but the file grows with the node count.
    """
    ups = np.array([str(j) for j in range(n_steps + 1)], dtype=object)
    heads = np.searchsorted(nodes, tri(np.arange(n_steps + 2)))  # row k: nodes[heads[k]:heads[k+1]]
    rows = max(1, _CSV_BLOCK_ROWS // (n_steps + 1))  # lattice rows per block
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER[:2]) + _CSV_EOL)
        for k in range(0, n_steps + 1, rows):
            bounds = heads[k:k + rows + 1]  # the block's rows, end to end in nodes
            steps = np.arange(k, k + bounds.size - 1)
            js = nodes[bounds[0]:bounds[-1]] - np.repeat(tri(steps), np.diff(bounds))
            cells, at = ups[js].tolist(), (bounds - bounds[0]).tolist()
            fh.write("".join(f"{i}," + f"{_CSV_EOL}{i},".join(cells[a:b]) + _CSV_EOL
                             for i, a, b in zip(steps.tolist(), at, at[1:]) if a < b))


def _node_columns(rows: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step, up-count and value columns; ValueError or OverflowError on a malformed row."""
    if any(line.count(",") != 2 for line in rows):
        raise ValueError("a row does not hold three cells")
    cells = ",".join(rows).split(",")
    ks, js = (np.array(list(map(int, cells[c::3])), dtype=np.int64) for c in (0, 1))
    return ks, js, np.array(list(map(float, cells[2::3])))


def read_node_process(path) -> NodeProcess:
    """Read a node-process CSV; must cover every node of some step count once, in any order."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read node process file {path}: {exc}") from exc
    header = lines[0].split(",") if lines else None
    if header != _CSV_HEADER:
        raise ConfigError(f"{path}: expected header {_CSV_HEADER}, got {header}")
    rows = [line for line in lines[1:] if line]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    try:
        ks, js, values = _node_columns(rows)
    except (ValueError, OverflowError):
        for line in rows:  # the first row that fails on its own
            try:
                _node_columns([line])
            except (ValueError, OverflowError):
                raise ConfigError(f"{path}: malformed row {line.split(',')!r}") from None
    n = max(int(ks.max()), -1)  # -1: every step negative, no lattice node expected
    on = (0 <= js) & (js <= ks)
    k_on, j_on = ks[on], js[on]
    order = np.lexsort((j_on, k_on))  # node order, and stable: a node's repeats follow it
    repeats = order[1:][(np.diff(k_on[order]) == 0) & (np.diff(j_on[order]) == 0)]
    if repeats.size:
        i = np.flatnonzero(on)[repeats.min()]  # first repeat
        raise ConfigError(f"{path}: duplicate node ({ks[i]}, {js[i]})")
    if not on.all() or k_on.size != tri(n + 1):
        # the nodes are distinct, so the first three gaps lie among the first k_on.size + 3:
        # nothing here is sized by the largest step, which may lie far beyond what rows cover
        first = min(tri(n + 1), k_on.size + 3)
        near = k_on < first  # tri(k) >= k, so the other nodes lie beyond
        gaps = np.setdiff1d(np.arange(first), tri(k_on[near], j_on[near]))[:3].tolist()
        missing = [(_row_of(i), i - tri(_row_of(i))) for i in gaps]
        extra = np.unique(np.stack([ks[~on], js[~on]], axis=1), axis=0)[:3]
        extra = [tuple(node) for node in extra.tolist()]
        raise ConfigError(f"{path}: node coverage mismatch (missing {missing}, unexpected {extra})")
    out = np.empty(tri(n + 1))
    out[tri(ks, js)] = values
    return NodeProcess(out)
