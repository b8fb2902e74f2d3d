"""JSON chain configuration: the file's shapes and types are checked here, every range by the records.

    {"repeaters": 5, "honest_left": 2, "honest_right": 2,
     "links": [{"type": "depolarizing", "q": 0.03}, {"type": "explicit", "probs": [0.97, 0.01, 0.01, 0.01]},
               ... exactly repeaters + 1 entries],
     "p_star_override": 0.05}

This module checks what JSON leaves open: object and list shapes, known keys
and none missing (only ``p_star_override`` is optional), an integer for each
count and a number for each probability (``true`` and ``false`` are neither),
and an explicit link's ``probs`` summing to 1 within ``PROBS_SUM_TOL`` before
exact renormalization. The records built from the values check every range:
``ChainSpec`` the counts and the number of links, ``depolarizing_dist`` q,
``BellDiagonal`` the probs, keyrate p*. An error is one line,
``<file>.<key path>: <message>``, ending in the record's own message.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple

from .bell import BellDiagonal
from .keyrate import _require_p_star
from .noise import ChainSpec, depolarizing_dist

PROBS_SUM_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid configuration content; the message names the key at fault."""


class ChainConfig(NamedTuple):
    """Validated configuration: a chain plus an optional honest-zone override."""

    spec: ChainSpec
    p_star_override: float | None = None


def default_chain_config() -> ChainConfig:
    """Built-in evaluation setting: 5 stations, identical 3% depolarizing links, 2+2 honest."""
    return ChainConfig(ChainSpec(5, 2, 2, (depolarizing_dist(0.03),) * 6))


def _require_keys(obj: Any, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Check that ``obj`` is a JSON object holding every ``required`` key and no key beyond ``optional``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    extra = set(obj).difference(required, optional)
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key}: missing")


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # printing the integer itself can exceed the interpreter's digit limit, so give its size
        raise ConfigError(f"{where}: expected a number in the float range, got an integer of {value.bit_length()} bits") from None


def _build(where: str, record: Callable[..., Any], *args: Any) -> Any:
    """``record(*args)``, with the ValueError or TypeError of a rule it breaks reported at ``where``."""
    try:
        return record(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_link(entry: Any, where: str) -> BellDiagonal:
    _require_keys(entry, where, ("type",), ("q", "probs"))
    kind = entry["type"]
    if kind == "depolarizing":
        _require_keys(entry, where, ("type", "q"))
        return _build(f"{where}.q", depolarizing_dist, _require_number(entry["q"], f"{where}.q"))
    if kind == "explicit":
        _require_keys(entry, where, ("type", "probs"))
        probs = entry["probs"]
        if not isinstance(probs, list) or len(probs) != 4:
            raise ConfigError(f"{where}.probs: expected a list of 4 numbers, got {probs!r}")
        values = [_require_number(p, f"{where}.probs[{i}]") for i, p in enumerate(probs)]
        total = 0.0 + values[0] + values[1] + values[2] + values[3]
        if not (abs(total - 1.0) <= PROBS_SUM_TOL):  # also refuses a NaN total
            raise ConfigError(f"{where}.probs: must sum to 1 within {PROBS_SUM_TOL}, got {total}")
        return _build(f"{where}.probs", BellDiagonal, [v / total for v in values])
    raise ConfigError(f"{where}.type: expected 'depolarizing' or 'explicit', got {kind!r}")


def parse_chain_config(data: Any, where: str = "config") -> ChainConfig:
    """Build the records from a decoded JSON object; raises ConfigError naming the key at fault."""
    _require_keys(data, where, ("repeaters", "honest_left", "honest_right", "links"), ("p_star_override",))
    for key in ("repeaters", "honest_left", "honest_right"):
        if type(data[key]) is not int:  # refuses bool too
            raise ConfigError(f"{where}.{key}: expected an integer, got {data[key]!r}")
        _require_number(data[key], f"{where}.{key}")  # a count past the float range is reported by its size, not printed by the record
    if not isinstance(data["links"], list):
        raise ConfigError(f"{where}.links: expected a list, got {data['links']!r}")
    links = [_parse_link(entry, f"{where}.links[{i}]") for i, entry in enumerate(data["links"])]
    spec = _build(where, ChainSpec, data["repeaters"], data["honest_left"], data["honest_right"], links)
    override = data.get("p_star_override")
    if override is not None:
        override = _require_number(override, f"{where}.p_star_override")
        _build(f"{where}.p_star_override", _require_p_star, override)
    return ChainConfig(spec, override)


def load_chain_config(path: str) -> ChainConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer literal beyond the interpreter's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    return parse_chain_config(data, where=path)
