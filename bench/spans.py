"""Timing and counting shims around gamehedge's public functions.

A shim replaces a name in the module that calls it (for example
``gamehedge.pricing.solve_drbsde``, the name ``acceptable_price`` looks up),
so nothing under ``src/`` changes.  Each call records a span (name, start,
end, parent, op id) in memory; counters are added at the same boundary.
``stopping`` and ``errors`` get no shims: their cost is counted in their
callers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

def _nodes(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def _region_nodes(quote, *_, **__):
    return {"pricing.region_nodes": len(quote.region_sigma) + len(quote.region_tau)
            + len(quote.region_bar_sigma) + len(quote.region_bar_tau)}


def _solve_counts(sol, inputs, **_):
    n = inputs.lat.n_steps
    return {"drbsde.nodes_solved": n * (n + 1) // 2,
            "drbsde.iterations_max": ("max", sol.iterations_max)}


def _eval_g_counts(result, *_, **__):
    return {"generators.eval_g_calls": 1, "generators.eval_g_elems": int(getattr(result, "size", 1))}


def _rows_written(_, proc, *__, **___):
    return {"lattice.csv_rows_written": _nodes(proc.n_steps)}


def _game_counts(report, *args, pair_limit=None, **_):
    from gamehedge.dynkin import DEFAULT_PAIR_LIMIT

    limit = DEFAULT_PAIR_LIMIT if pair_limit is None else pair_limit
    pairs = report.rule_count ** 2
    return {"dynkin.rules": report.rule_count, "dynkin.pairs": pairs if pairs <= limit else 0}


def _verify_paths(report, *_, **__):
    return {"replication.paths_enumerated": report.n_paths}


def _classify_paths(_, *args, **kwargs):
    lat = args[7] if len(args) > 7 else kwargs["lat"]
    return {"replication.paths_enumerated": 1 << lat.n_steps}


def _one(key):
    return lambda *_, **__: {key: 1}


# (module whose global is replaced, name, span name, counter function)
SHIMS = (
    ("gamehedge.cli", "load_config", "config.load_config", None),
    ("gamehedge.cli", "build_bundle", "config.build_bundle", None),
    ("gamehedge.cli", "acceptable_price", "pricing.acceptable_price", _region_nodes),
    ("gamehedge.cli", "side_obstacles", "pricing.side_obstacles", None),
    ("gamehedge.cli", "game_payoff", "pricing.game_payoff", None),
    ("gamehedge.cli", "write_node_process", "lattice.write_node_process", _rows_written),
    ("gamehedge.cli", "read_node_process", "lattice.read_node_process", None),
    ("gamehedge.cli", "game_value_brute", "dynkin.game_value_brute", _game_counts),
    ("gamehedge.cli", "saddle_check", "dynkin.saddle_check", None),
    ("gamehedge.cli", "verify_replication", "replication.verify_replication", _verify_paths),
    ("gamehedge.cli", "forward_wealth", "replication.forward_wealth",
     _one("replication.forward_wealth_calls")),
    ("gamehedge.cli", "solution_path", "replication.solution_path", None),
    ("gamehedge.config", "build_lattice", "lattice.build_lattice", None),
    ("gamehedge.config", "read_node_process", "lattice.read_node_process", None),
    ("gamehedge.config", "builtin_israeli_put", "pricing.builtin_contract", None),
    ("gamehedge.config", "builtin_game_bond", "pricing.builtin_contract", None),
    ("gamehedge.config", "ContractSpec", "pricing.ContractSpec", None),
    ("gamehedge.pricing", "side_obstacles", "pricing.side_obstacles", None),
    ("gamehedge.pricing", "solve_drbsde", "drbsde.solve_drbsde", _solve_counts),
    ("gamehedge.drbsde", "eval_g", "generators.eval_g", _eval_g_counts),
    ("gamehedge.drbsde", "implicit_start", "generators.implicit_start", None),
    ("gamehedge.dynkin", "sup_values_by_minimizer_rule", "dynkin.rule_dp", None),
    ("gamehedge.dynkin", "inf_values_by_maximizer_rule", "dynkin.rule_dp", None),
    ("gamehedge.replication", "classify_quadruplet", "replication.classify_quadruplet",
     _classify_paths),
    ("gamehedge.replication", "eval_g", "generators.eval_g", _eval_g_counts),
)


class Tracer:
    """In-memory span and counter store; ``install`` patches the shims in, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn, updated=())
        def shim(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                ops = self.counters[self.op]
                for key, value in count(result, *args, **kwargs).items():
                    if isinstance(value, tuple):  # ("max", v)
                        ops[key] = max(ops[key], value[1])
                    else:
                        ops[key] += value
            return result

        return shim

    def install(self) -> None:
        for module_name, attr, span, count in SHIMS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span once, as CSV rows name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)

    def layer_metrics(self, op_walls: dict[int, float]) -> dict[str, float]:
        """Per-op means of every per-layer metric over the traced ops given."""
        n_ops = len(op_walls)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        top = defaultdict(float)  # op -> time in spans without a parent
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
            elif self.ops[i] in op_walls:
                top[self.ops[i]] += dur[i]
        incl: dict[str, float] = defaultdict(float)
        excl: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            if self.ops[i] in op_walls:
                incl[name] += dur[i]
                excl[name] += dur[i] - child[i]
        layer_self: dict[str, float] = defaultdict(float)
        for name, value in excl.items():
            layer_self[name.split(".")[0]] += value
        counts: dict[str, float] = defaultdict(float)
        iterations_max = 0.0
        for op, values in self.counters.items():
            if op not in op_walls:
                continue
            for key, value in values.items():
                if key == "drbsde.iterations_max":
                    iterations_max = max(iterations_max, value)
                else:
                    counts[key] += value
        cli_self = sum(wall - top[op] for op, wall in op_walls.items())
        sums = {
            "cli.self_s": cli_self,
            "lattice.csv_write_s": incl["lattice.write_node_process"],
            "lattice.csv_rows_written": counts["lattice.csv_rows_written"],
            "lattice.csv_read_s": incl["lattice.read_node_process"],
            "lattice.build_s": incl["lattice.build_lattice"],
            "lattice.self_s": layer_self["lattice"],
            "pricing.regions_s": excl["pricing.acceptable_price"],
            "pricing.region_nodes": counts["pricing.region_nodes"],
            "pricing.obstacles_s": incl["pricing.side_obstacles"] + incl["pricing.game_payoff"],
            "pricing.contract_s": incl["pricing.builtin_contract"] + incl["pricing.ContractSpec"],
            "pricing.self_s": layer_self["pricing"],
            "drbsde.solve_s": incl["drbsde.solve_drbsde"],
            "drbsde.nodes_solved": counts["drbsde.nodes_solved"],
            "drbsde.self_s": layer_self["drbsde"],
            "generators.eval_g_calls": counts["generators.eval_g_calls"],
            "generators.eval_g_elems": counts["generators.eval_g_elems"],
            "generators.eval_g_s": incl["generators.eval_g"],
            "generators.self_s": layer_self["generators"],
            "config.build_s": excl["config.load_config"] + excl["config.build_bundle"],
            "dynkin.pair_s": excl["dynkin.game_value_brute"],
            "dynkin.rule_dp_s": incl["dynkin.rule_dp"],
            "dynkin.rules": counts["dynkin.rules"],
            "dynkin.pairs": counts["dynkin.pairs"],
            "dynkin.self_s": layer_self["dynkin"],
            "replication.verify_s": incl["replication.verify_replication"],
            "replication.classify_s": incl["replication.classify_quadruplet"],
            "replication.paths_enumerated": counts["replication.paths_enumerated"],
            "replication.single_path_s": (incl["replication.forward_wealth"]
                                          + incl["replication.solution_path"]),
            "replication.forward_wealth_calls": counts["replication.forward_wealth_calls"],
            "replication.self_s": layer_self["replication"],
        }
        out = {key: value / n_ops for key, value in sums.items()}
        out["drbsde.iterations_max"] = float(iterations_max)
        return out
