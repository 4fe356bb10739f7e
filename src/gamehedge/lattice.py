"""Discrete market model: time grid, recombining price lattice, benchmark account.

The lattice is a recombining binomial tree.  A node is addressed by
``(k, j)`` where ``k`` is the step (0..N) and ``j`` the number of up moves
(0..k).  The spot at a node is ``s0 * u**j * d**(k-j)``.  The one-step
probability ``q = (1 - d) / (u - d)`` is the unique weight that makes the
spot a martingale, so it is derived, never supplied.

``NodeProcess`` stores one float per node as a tuple of read-only rows and
is the common currency for payoffs, obstacles, solutions and increments.
"""

from __future__ import annotations

import csv
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
    "node_expectation",
    "write_node_process",
    "read_node_process",
    "write_csv",
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

    def t(self, k: int) -> float:
        """Time at step k, computed as k * dt so t(N) is consistent with dt."""
        if not 0 <= k <= self.n_steps:
            raise OutOfRange(f"step {k} outside 0..{self.n_steps}")
        return k * self.dt


def _freeze_row(row: np.ndarray) -> np.ndarray:
    out = np.asarray(row, dtype=np.float64)
    out = np.array(out, dtype=np.float64)  # own the buffer
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class NodeProcess:
    """One float per lattice node; row k holds k+1 values indexed by up-count."""

    rows: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise OutOfRange("NodeProcess needs at least the step-0 row")
        frozen = []
        for k, row in enumerate(self.rows):
            arr = _freeze_row(row)
            if arr.ndim != 1 or arr.shape[0] != k + 1:
                raise OutOfRange(f"row {k} must have {k + 1} entries, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise NonFiniteInput(f"row {k} contains non-finite values")
            frozen.append(arr)
        object.__setattr__(self, "rows", tuple(frozen))

    @property
    def n_steps(self) -> int:
        return len(self.rows) - 1

    def row(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.n_steps:
            raise OutOfRange(f"step {k} outside 0..{self.n_steps}")
        return self.rows[k]

    def at(self, k: int, j: int) -> float:
        row = self.row(k)
        if not 0 <= j <= k:
            raise OutOfRange(f"up-count {j} outside 0..{k}")
        return float(row[j])

    @classmethod
    def from_rows(cls, rows) -> "NodeProcess":
        return cls(tuple(np.asarray(r, dtype=np.float64) for r in rows))

    @classmethod
    def constant(cls, n_steps: int, value: float) -> "NodeProcess":
        return cls.from_rows([np.full(k + 1, float(value)) for k in range(n_steps + 1)])

    @classmethod
    def zeros(cls, n_steps: int) -> "NodeProcess":
        return cls.constant(n_steps, 0.0)

    @classmethod
    def from_function(cls, n_steps: int, fn) -> "NodeProcess":
        """Build from fn(k, j) evaluated at every node."""
        return cls.from_rows(
            [np.array([fn(k, j) for j in range(k + 1)], dtype=np.float64) for k in range(n_steps + 1)]
        )


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
        n = self.grid.n_steps
        rows = []
        for k in range(n + 1):
            j = np.arange(k + 1)
            rows.append(self.s0 * self.u**j * self.d ** (k - j))
        object.__setattr__(self, "spot", NodeProcess.from_rows(rows))

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def dt(self) -> float:
        return self.grid.dt

    def spot_at(self, k: int, j: int) -> float:
        return self.spot.at(k, j)


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


def node_expectation(lat: Lattice, proc: NodeProcess, k: int, j: int) -> float:
    """One-step expectation q*up + (1-q)*down seen from node (k, j)."""
    if k >= lat.n_steps:
        raise OutOfRange(f"no step after {k} on a {lat.n_steps}-step lattice")
    nxt = proc.row(k + 1)
    if not 0 <= j <= k:
        raise OutOfRange(f"up-count {j} outside 0..{k}")
    return float(lat.q * nxt[j + 1] + (1.0 - lat.q) * nxt[j])


_CSV_HEADER = ["step", "up_count", "value"]
_CSV_EOL = "\r\n"
_CSV_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g"}  # by numpy dtype kind; others "%s"
_CSV_BLOCK_ROWS = 1 << 12  # rows formatted per write, so memory stays bounded


def write_csv(path, header, columns) -> None:
    """Write one artifact CSV: comma-separated, CRLF line ends, no quoting.

    ``columns`` are equal-length numpy arrays, formatted by dtype: integers as
    %d, floats as %.17g (which round-trips every double) and anything else as
    %s.  Rows are formatted in bulk, one block of rows per write.
    """
    row = ",".join(_CSV_FORMATS.get(c.dtype.kind, "%s") for c in columns) + _CSV_EOL
    width = len(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + _CSV_EOL)
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [c[start:start + _CSV_BLOCK_ROWS].tolist() for c in columns]
            flat = [None] * (len(block[0]) * width)
            for i, values in enumerate(block):
                flat[i::width] = values
            fh.write(row * len(block[0]) % tuple(flat))


def write_node_process(proc: NodeProcess, path) -> None:
    """Write rows (step, up_count, value) sorted by (step, up_count), 17 significant digits.

    ``write_csv``'s bytes, one lattice row per write with the labels in the template.
    """
    cells = [f"{j},{_CSV_FORMATS['f']}" for j in range(proc.n_steps + 1)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + _CSV_EOL)
        for k in range(proc.n_steps + 1):
            template = f"{k}," + f"{_CSV_EOL}{k},".join(cells[:k + 1]) + _CSV_EOL
            fh.write(template % tuple(proc.row(k).tolist()))


def read_node_process(path) -> NodeProcess:
    """Read a node-process CSV; must cover every node of some step count exactly once."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _CSV_HEADER:
                raise ConfigError(f"{path}: expected header {_CSV_HEADER}, got {header}")
            seen: dict[tuple[int, int], float] = {}
            for line in reader:
                if not line:
                    continue
                if len(line) != 3:
                    raise ConfigError(f"{path}: malformed row {line!r}")
                try:
                    k, j, v = int(line[0]), int(line[1]), float(line[2])
                except ValueError as exc:
                    raise ConfigError(f"{path}: malformed row {line!r}") from exc
                if (k, j) in seen:
                    raise ConfigError(f"{path}: duplicate node ({k}, {j})")
                seen[(k, j)] = v
    except OSError as exc:
        raise ConfigError(f"cannot read node process file {path}: {exc}") from exc
    if not seen:
        raise ConfigError(f"{path}: no data rows")
    n = max(k for k, _ in seen)
    expected = {(k, j) for k in range(n + 1) for j in range(k + 1)}
    if set(seen) != expected:
        missing = sorted(expected - set(seen))[:3]
        extra = sorted(set(seen) - expected)[:3]
        raise ConfigError(f"{path}: node coverage mismatch (missing {missing}, unexpected {extra})")
    rows = [np.array([seen[(k, j)] for j in range(k + 1)]) for k in range(n + 1)]
    return NodeProcess.from_rows(rows)
