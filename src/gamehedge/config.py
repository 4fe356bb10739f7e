"""Run configuration: JSON schema, validation, and model construction.

A run config is a JSON object with blocks

    lattice    {s0, u, d, T, N}        (or sigma instead of u/d, then
                                        u = exp(sigma*sqrt(dt)), d = 1/u)
    generator  {type, ...}             zero | linear(rate) |
                                        differential(r_lend, r_borrow)
    benchmark  {r_lend, r_borrow}      defaults to 0/0
    contract   {type, ...}             israeli_put(strike, penalty) |
                                        game_bond(face, coupon, call_penalty,
                                        put_discount) | custom(files)
    party      {side, endowment, other_endowment}
    tolerances {obstacle_eq, oracle, replication}
    output     {dir}

Every generator type builds the one two-rate generator: ``zero`` with both
rates zero, ``linear`` with both rates ``rate``.  Custom contract files are
node-process CSVs resolved relative to the config file.  Unknown keys
anywhere are rejected, and so are keys of another type in the generator and
contract blocks, so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, OutOfRange
from .generators import DifferentialRates, Generator
from .lattice import (
    BenchmarkAccount,
    Lattice,
    TimeGrid,
    build_lattice,
    read_node_process,
)
from .pricing import (
    ContractSpec,
    PartyView,
    builtin_game_bond,
    builtin_israeli_put,
)

__all__ = ["DEFAULT_TOLERANCES", "ModelBundle", "load_config", "apply_tol_overrides",
           "set_axis_value", "build_generator", "build_bundle"]

DEFAULT_TOLERANCES = {"obstacle_eq": 1e-9, "oracle": 1e-10, "replication": 1e-10}

# generator type -> the keys of its lending and borrowing rates (the flat market reads none)
_GENERATOR_KEYS = {"zero": (), "linear": ("rate", "rate"), "differential": ("r_lend", "r_borrow")}
# contract type -> the keys it reads
_CONTRACT_KEYS = {
    "israeli_put": ("strike", "penalty"),
    "game_bond": ("face", "coupon", "call_penalty", "put_discount"),
    "custom": ("files",),
}
_ALLOWED_KEYS = {
    "lattice": {"s0", "u", "d", "sigma", "T", "N"},
    "generator": {"type"}.union(*_GENERATOR_KEYS.values()),
    "benchmark": {"r_lend", "r_borrow"},
    "contract": {"type"}.union(*_CONTRACT_KEYS.values()),
    "party": {"side", "endowment", "other_endowment"},
    "tolerances": set(DEFAULT_TOLERANCES),
    "output": {"dir"},
}
_SIDES = ("hedger", "counterparty", "both")


@dataclass(frozen=True)
class ModelBundle:
    """Everything a command needs, built and validated from one config."""

    lat: Lattice
    gen: Generator
    contract: ContractSpec
    views: dict  # both sides always present
    sides: tuple[str, ...]  # sides selected for processing
    tolerances: dict
    output_dir: str | None


def load_config(path) -> dict:
    """Parse and shape-check a config file; values are validated at build time."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_ALLOWED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config blocks: {sorted(unknown)}")
    for block, allowed in _ALLOWED_KEYS.items():
        sub = raw.get(block)
        if sub is None:
            continue
        if not isinstance(sub, dict):
            raise ConfigError(f"config block {block!r} must be an object")
        bad = set(sub) - allowed
        if bad:
            raise ConfigError(f"unknown keys in {block!r}: {sorted(bad)}")
    for required in ("lattice", "contract"):
        if required not in raw:
            raise ConfigError(f"config block {required!r} is required")
    raw["__dir__"] = str(p.parent)
    return raw


def _num(block: dict, block_name: str, key: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise ConfigError(f"{block_name}.{key} is required")
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{block_name}.{key} must be a number, got {v!r}")
    if not math.isfinite(float(v)):
        raise ConfigError(f"{block_name}.{key} must be finite")
    return float(v)


def _typed(block: dict, block_name: str, table: dict, expected: str) -> str:
    """The block's type, once it is known and the block holds only keys that type reads."""
    kind = block.get("type")
    if kind not in table:
        raise ConfigError(f"{block_name}.type must be {expected}, got {kind!r}")
    foreign = set(block) - {"type", *table[kind]}
    if foreign:
        raise ConfigError(f"unknown keys in {block_name!r} of type {kind!r}: {sorted(foreign)}")
    return kind


def _int(block: dict, block_name: str, key: str) -> int:
    v = _num(block, block_name, key)
    if v != int(v):
        raise ConfigError(f"{block_name}.{key} must be an integer, got {v!r}")
    return int(v)


def apply_tol_overrides(cfg: dict, overrides) -> None:
    """Apply repeated --tol-override key=value pairs onto the config in place."""
    tols = cfg.setdefault("tolerances", {})
    for item in overrides or ():
        key, sep, text = item.partition("=")
        if not sep:
            raise ConfigError(f"tolerance override {item!r} must look like key=value")
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(
                f"unknown tolerance {key!r}; known: {sorted(DEFAULT_TOLERANCES)}"
            )
        try:
            tols[key] = float(text)
        except ValueError as exc:
            raise ConfigError(f"tolerance override {item!r} has a non-numeric value") from exc


def set_axis_value(cfg: dict, axis: str, value) -> None:
    """Set a dotted config path (sweep axis) to a new value, in place."""
    parts = axis.split(".")
    if len(parts) != 2 or parts[0] not in _ALLOWED_KEYS or parts[1] not in _ALLOWED_KEYS[parts[0]]:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    block = cfg.setdefault(parts[0], {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {parts[0]!r} must be an object")
    block[parts[1]] = value


def _build_lattice(cfg: dict) -> Lattice:
    block = cfg["lattice"]
    grid = TimeGrid(horizon=_num(block, "lattice", "T"), n_steps=_int(block, "lattice", "N"))
    s0 = _num(block, "lattice", "s0")
    if "sigma" in block:
        if "u" in block or "d" in block:
            raise ConfigError("lattice: give either sigma or u/d, not both")
        sigma = _num(block, "lattice", "sigma")
        if sigma <= 0.0:
            raise ConfigError(f"lattice.sigma must be positive, got {sigma}")
        u = math.exp(sigma * math.sqrt(grid.dt))
        d = 1.0 / u
    else:
        u = _num(block, "lattice", "u")
        d = _num(block, "lattice", "d")
    return build_lattice(s0, u, d, grid)


def build_generator(cfg: dict) -> Generator:
    """The config's generator alone, as ``build_bundle`` builds it."""
    block = cfg.get("generator", {"type": "zero"})
    kind = _typed(block, "generator", _GENERATOR_KEYS, "zero, linear or differential")
    rates = [_num(block, "generator", key) for key in _GENERATOR_KEYS[kind]]
    if kind == "linear" and rates[0] < 0.0:  # both rates are `rate`: name the key the config holds
        raise OutOfRange(f"generator.rate must be nonnegative, got {rates[0]!r}")
    return DifferentialRates(*(rates or (0.0, 0.0)))


def _build_contract(cfg: dict, lat: Lattice) -> ContractSpec:
    block = cfg["contract"]
    kind = _typed(block, "contract", _CONTRACT_KEYS, "israeli_put, game_bond or custom")
    if kind == "israeli_put":
        return builtin_israeli_put(
            lat,
            strike=_num(block, "contract", "strike"),
            penalty=_num(block, "contract", "penalty"),
        )
    if kind == "game_bond":
        return builtin_game_bond(
            lat,
            face=_num(block, "contract", "face"),
            coupon=_num(block, "contract", "coupon"),
            call_penalty=_num(block, "contract", "call_penalty"),
            put_discount=_num(block, "contract", "put_discount"),
        )
    # custom
    files = block.get("files")
    if not isinstance(files, dict) or set(files) != {"xh", "xc", "xbar", "da"}:
        raise ConfigError("contract.files must map exactly xh, xc, xbar, da to CSV paths")
    base = Path(cfg.get("__dir__", "."))
    procs = {}
    for name, rel in files.items():
        if not isinstance(rel, str):
            raise ConfigError(f"contract.files.{name} must be a path string")
        procs[name] = read_node_process(base / rel)
        if procs[name].n_steps != lat.n_steps:
            raise ConfigError(
                f"contract.files.{name} has {procs[name].n_steps} steps, "
                f"lattice has {lat.n_steps}"
            )
    return ContractSpec(Xh=procs["xh"], Xc=procs["xc"], Xbar=procs["xbar"], dA=procs["da"])


def build_bundle(cfg: dict) -> ModelBundle:
    """Construct and validate every model object a command might need."""
    lat = _build_lattice(cfg)
    gen = build_generator(cfg)
    bench = cfg.get("benchmark", {})
    acct = BenchmarkAccount(
        r_lend=_num(bench, "benchmark", "r_lend", 0.0),
        r_borrow=_num(bench, "benchmark", "r_borrow", 0.0),
    )
    contract = _build_contract(cfg, lat)
    party = cfg.get("party", {})
    side = party.get("side", "hedger")
    if side not in _SIDES:
        raise ConfigError(f"party.side must be one of {_SIDES}, got {side!r}")
    endowment = _num(party, "party", "endowment", 0.0)
    other = _num(party, "party", "other_endowment", 0.0)
    x_hedger = endowment if side in ("hedger", "both") else other
    x_counter = endowment if side == "counterparty" else other
    views = {
        "hedger": PartyView(side="hedger", endowment=x_hedger, acct=acct),
        "counterparty": PartyView(side="counterparty", endowment=x_counter, acct=acct),
    }
    sides = ("hedger", "counterparty") if side == "both" else (side,)
    tols = dict(DEFAULT_TOLERANCES)
    for key, value in cfg.get("tolerances", {}).items():
        num = value
        if isinstance(num, bool) or not isinstance(num, (int, float)) or not math.isfinite(num):
            raise ConfigError(f"tolerances.{key} must be a finite number")
        if num <= 0.0:
            raise ConfigError(f"tolerances.{key} must be positive")
        tols[key] = float(num)
    out_block = cfg.get("output", {})
    out_dir = out_block.get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("output.dir must be a path string")
    return ModelBundle(
        lat=lat, gen=gen, contract=contract,
        views=views, sides=sides, tolerances=tols, output_dir=out_dir,
    )
