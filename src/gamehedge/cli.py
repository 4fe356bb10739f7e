"""Command line interface.

Subcommands
    price      solve the configured side(s), write quote JSON, solution and
               region CSVs
    oracle     compare the solve against the brute-force stopped-game values
    replicate  forward-verify the quote (replication, break-even, probes)
    regions    export the stopping regions only
    sweep      reprice along one config axis, write a CSV of prices

Each command reads its run settings (the side, endowments and tolerances
included) from ``--config`` alone and writes to ``--out`` (default ``out``).

Exit codes: 0 success (oracle: values match), 1 oracle mismatch, 2 config
error (a malformed ``--hedge-csv`` included), 3 solver error, 4 enumeration
size cap, 5 replication failure.

All numbers in files are printed with 17 significant digits and reruns are
byte-identical; wall-clock timing appears on stdout only.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ModelBundle, build_bundle, build_generator, load_config, set_axis_value
from .dynkin import game_value_brute, saddle_check
from .errors import ConfigError, EngineError, TooLarge
from .lattice import _CSV_EOL, _cells, read_node_process, write_node_process, write_node_set
from .pricing import SIDES, acceptable_price, sweep_prices
from .pricing import side_obstacles  # noqa: F401  (a name bench/spans.py traces)
from .pricing import side_obstacles as game_payoff  # noqa: F401  (a name bench/spans.py traces)
from .replication import forward_wealth, solution_path, verify_replication
from .stopping import path_moves

__all__ = ["main"]


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _json_text(obj, level: int = 0) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):  # never empty: every artifact holds at least one key
        items = ",\n".join(
            f'{inner}"{key}": {_json_text(obj[key], level + 1)}' for key in sorted(obj)
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj) + "\n")


def _quote_obj(quote) -> dict:
    return {
        "side": quote.view.side,
        "price": quote.price,
        "y0": quote.y0,
        "residual_max": quote.solution.residual_max,
    }


def _write_side_solution(out: Path, quote) -> None:
    out.mkdir(parents=True, exist_ok=True)
    sol = quote.solution
    for name in ("Y", "Z", "dL", "dU"):
        write_node_process(getattr(sol, name), out / f"{name}.csv")
    _write_json(
        out / "solution.json",
        {"y0": sol.Y.at(0, 0), "residual_max": sol.residual_max,
         "iterations_max": sol.iterations_max},
    )
    _write_side_regions(out, quote)


def _write_side_regions(out: Path, quote) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name in ("region_sigma", "region_tau", "region_bar_sigma", "region_bar_tau"):
        write_node_set(out / f"{name}.csv", getattr(quote, name), quote.solution.Y.n_steps)


def _quotes(bundle: ModelBundle):
    """Each configured side's (side, quote), solved only when asked for; callers drop each
    quote before asking for the next, so one side's arrays are alive at a time."""
    tol = bundle.tolerances["obstacle_eq"]
    for side in bundle.sides:
        yield side, acceptable_price(bundle.contract, bundle.views[side], bundle.gen, bundle.lat,
                                     region_tol=tol)


def _side_dir(bundle: ModelBundle, out: Path, side: str) -> Path:
    """A side's output directory: ``out`` itself for one side, ``out/<side>`` for both."""
    return out if len(bundle.sides) == 1 else out / side


def cmd_price(bundle: ModelBundle, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    obj = {"side": "both"}
    for side, quote in _quotes(bundle):
        obj[side] = _quote_obj(quote)
        _write_side_solution(_side_dir(bundle, out, side), quote)
        print(f"{side} price = {_fmt(quote.price)}")
        del quote
    if len(bundle.sides) == 1:
        obj = obj[bundle.sides[0]]
    else:
        obj["spread"] = obj["hedger"]["price"] - obj["counterparty"]["price"]
        print(f"spread = {_fmt(obj['spread'])}")
    _write_json(out / "quote.json", obj)
    return 0


def cmd_regions(bundle: ModelBundle, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for side, quote in _quotes(bundle):
        _write_side_regions(_side_dir(bundle, out, side), quote)
        print(f"{side}: sigma region {len(quote.region_sigma)} nodes, "
              f"tau region {len(quote.region_tau)} nodes")
        del quote
    return 0


def cmd_oracle(bundle: ModelBundle, out: Path) -> int:
    t0 = time.perf_counter()
    results = {}
    all_match = True
    for side, quote in _quotes(bundle):
        report = game_value_brute(quote.inputs)
        diag = saddle_check(report, quote.y0, tol=bundle.tolerances["oracle"])
        all_match &= diag.matches_upper
        results[side] = {
            "upper": report.upper_value,
            "lower": report.lower_value,
            "y0": quote.y0,
            "matches_upper": diag.matches_upper,
            "has_value": diag.has_value,
            "n_rules": report.rule_count,
        }
        del quote
    file_obj = results[bundle.sides[0]] if len(bundle.sides) == 1 else dict(results)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "oracle.json", file_obj)
    print(_json_text(dict(file_obj, runtime_ms=(time.perf_counter() - t0) * 1000.0)))
    return 0 if all_match else 1


def cmd_replicate(bundle: ModelBundle, out: Path, hedge) -> int:
    """Replicate each side's quote, with the solved hedge or, if given, the ``hedge`` process."""
    out.mkdir(parents=True, exist_ok=True)
    n = bundle.lat.n_steps
    labels = _paths_labels(n) if n <= PATHS_CSV_MAX_STEPS else None  # shared by both sides
    failure: str | None = None
    for side, quote in _quotes(bundle):
        if hedge is not None:
            quote = replace(quote, solution=replace(quote.solution, Z=hedge))
        rep = verify_replication(quote, gap_tol=bundle.tolerances["replication"])
        target = _side_dir(bundle, out, side)
        target.mkdir(parents=True, exist_ok=True)
        _write_json(
            target / "replicate.json",
            {
                "replicates": rep.replicates,
                "max_gap": rep.max_gap,
                "be": rep.be,
                "ao_at_plus": rep.ao_at_plus,
                "sh_fails_at_minus": rep.sh_fails_at_minus,
                "n_paths": rep.n_paths,
                "first_failing_path": rep.first_failing_path,
            },
        )
        if labels is not None:
            _write_paths_csv(target / "paths.csv", quote, labels)
        del quote
        verdict = "ok" if rep.ok else "FAIL"
        print(f"{side}: replicates={rep.replicates} max_gap={_fmt(rep.max_gap)} "
              f"be={rep.be} ao_at_plus={rep.ao_at_plus} "
              f"sh_fails_at_minus={rep.sh_fails_at_minus} [{verdict}]")
        if not rep.ok and failure is None:
            what = (f"first failing path {rep.first_failing_path}"
                    if rep.first_failing_path is not None else "price probes failed")
            failure = f"{side}: {what}"
    if failure is not None:
        print(f"replication failed: {failure}", file=sys.stderr)
        return 5
    return 0


PATHS_CSV_MAX_STEPS = 12  # replicate writes paths.csv, 2^N paths x (N + 1) steps, up to here


def _paths_labels(n: int) -> str:
    """``paths.csv``'s header, then a ``path_id,step,%s`` line per path and step in file order."""
    steps = [f"{k},%s{_CSV_EOL}" for k in range(n + 1)]
    rows = "".join(f"{p}," + f"{p},".join(steps) for p in range(1 << n))
    return f"path_id,step,V,Y,L_cum,U_cum{_CSV_EOL}" + rows


def _write_paths_csv(path: Path, quote, labels: str) -> None:
    """Every path's wealth, solved value and cumulative pushes at every step.  Row (p, k) depends
    only on the first k moves of path p, its low k bits, so it repeats path p mod 2^k's values at
    step k: the file's 2^(N+1) - 1 distinct value rows are each formatted once into ``labels``."""
    inputs = quote.inputs
    n = inputs.lat.n_steps
    moves = path_moves(np.arange(1 << n), n)
    wealth = forward_wealth(quote.y0, quote.solution.Z, inputs.gen,
                            inputs.cashflow_increments, inputs.lat, moves)
    cols = [np.concatenate([a[:1 << k, k] for k in range(n + 1)])
            for a in (wealth, *solution_path(quote, moves))]
    states = np.array(list(map(",".join, zip(*map(_cells, cols)))), dtype=object)
    low = (1 << np.arange(n + 1)) - 1  # (1 << k) - 1: where step k's states start, and its mask
    with open(path, "w", newline="") as fh:
        fh.write(labels % tuple(states[(low + (np.arange(1 << n)[:, None] & low)).ravel()]))


def _parse_sweep_values(text: str):
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise ConfigError("empty value in --values")
        try:
            out.append(int(item))
        except ValueError:
            try:
                out.append(float(item))
            except ValueError as exc:
                raise ConfigError(f"sweep value {item!r} is not a number") from exc
    return out


def _with_value(raw_cfg: dict, axis: str, value) -> dict:
    cfg = copy.deepcopy(raw_cfg)
    set_axis_value(cfg, axis, value)
    return cfg


def _sweep_bundle(cfg: dict, axis: str, text: str) -> tuple[ModelBundle, list]:
    """The bundle a sweep starts from: the config with its first swept value in place.

    The config's own value at the swept key is never priced, so it must not
    refuse the sweep.  If that build fails, the config as given is checked
    first, then the values and the axis, so a config error is reported as
    one (exit 2); if none fails, the first value fails in ``cmd_sweep`` as any
    value would (exit 3).
    """
    try:
        values = _parse_sweep_values(text)
        return build_bundle(_with_value(cfg, axis, values[0])), values
    except EngineError:
        bundle = build_bundle(cfg)
        values = _parse_sweep_values(text)
        _with_value(cfg, axis, values[0])
        return bundle, values


def cmd_sweep(bundle: ModelBundle, raw_cfg: dict, axis: str, values, out: Path) -> int:
    def priced(b: ModelBundle, gens):
        return sweep_prices(b.contract, [b.views[side] for side in SIDES], gens, b.lat)

    if axis.startswith("generator."):
        # the generator alone changes, so the values share the given bundle and one pass;
        # built on demand, each value's generator follows the checks of those before it
        prices = [priced(bundle, (build_generator(_with_value(raw_cfg, axis, value))
                                  for value in values))]
    else:  # any other axis rebuilds the bundle for each value, in value order
        prices = []
        for value in values:
            value_bundle = build_bundle(_with_value(raw_cfg, axis, value))
            prices.append(priced(value_bundle, [value_bundle.gen]))
    out.mkdir(parents=True, exist_ok=True)
    ph, pc = np.concatenate(prices, axis=1)
    labels = "".join(f"{str(v) if isinstance(v, int) else _fmt(v)},%s,%s,%s{_CSV_EOL}"
                     for v in values)
    with open(out / "sweep.csv", "w", newline="") as fh:
        fh.write(f"value,price_hedger,price_counterparty,spread{_CSV_EOL}"
                 + labels % tuple(_cells(np.stack([ph, pc, ph - pc], axis=1).ravel())))
    print(f"wrote {out / 'sweep.csv'} ({len(values)} rows)")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamehedge",
        description="Price, verify and explore game contracts under nonlinear funding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored (deprecated)")

    common(sub.add_parser("price", help="solve and write quotes"))
    common(sub.add_parser("oracle", help="brute-force game value check"))
    p_rep = sub.add_parser("replicate", help="forward replication check")
    common(p_rep)
    p_rep.add_argument("--hedge-csv", help="node CSV overriding the solved hedge")
    common(sub.add_parser("regions", help="export stopping regions"))
    p_sw = sub.add_parser("sweep", help="reprice along one config axis")
    common(p_sw)
    p_sw.add_argument("--axis", required=True, help="dotted config path, e.g. contract.penalty")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    return parser


# glibc mallopt parameters and the ceilings its dynamic thresholds rise to on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_CEILING = 32 << 20


def _keep_freed_heap() -> None:
    """Reuse freed heap memory across solves instead of faulting it back in.

    glibc serves blocks above its mmap threshold (128 KB at start) by mmap and
    returns a free heap top larger than twice that to the kernel, raising both
    only after a large block is freed.  Node arrays from about N=180 up are
    such blocks, so each quote would fault its fresh arrays in anew.  Starting
    both at the ceilings glibc would reach keeps arrays up to 32 MB on the
    heap and its freed top in place.  Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_CEILING)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_CEILING)


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config)
        if args.command == "sweep":
            bundle, sweep_values = _sweep_bundle(cfg, args.axis, args.values)
        else:
            bundle = build_bundle(cfg)
        hedge = None
        if args.command == "replicate" and args.hedge_csv is not None:
            hedge = read_node_process(args.hedge_csv)
            if hedge.n_steps != bundle.lat.n_steps:
                raise ConfigError(f"hedge CSV has {hedge.n_steps} steps, "
                                  f"lattice has {bundle.lat.n_steps}")
    except EngineError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        if args.command == "price":
            return cmd_price(bundle, out)
        if args.command == "regions":
            return cmd_regions(bundle, out)
        if args.command == "oracle":
            return cmd_oracle(bundle, out)
        if args.command == "replicate":
            return cmd_replicate(bundle, out, hedge)
        if args.command == "sweep":
            return cmd_sweep(bundle, cfg, args.axis, sweep_values, out)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: ConfigError: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"size cap: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except EngineError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
