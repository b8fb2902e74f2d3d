"""JSON chain-configuration parsing.

Schema (all keys at the top level, no extras):

    {
      "repeaters": 5,
      "honest_left": 2,
      "honest_right": 2,
      "links": [ {"type": "depolarizing", "q": 0.03},
                 {"type": "explicit", "probs": [0.97, 0.01, 0.01, 0.01]},
                 ... exactly repeaters + 1 entries ... ],
      "p_star_override": 0.05        // optional
    }

Explicit probabilities must be nonnegative and sum to 1 within 1e-9; they are
renormalized exactly before use. Errors carry the offending key path.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from .bell import BellDiagonal
from .noise import ChainSpec, depolarizing_dist

PROBS_SUM_TOL = 1e-9

_TOP_KEYS = {"repeaters", "honest_left", "honest_right", "links", "p_star_override"}


class ConfigError(ValueError):
    """Invalid configuration content; the message names the key at fault."""


class ChainConfig(NamedTuple):
    """Validated configuration: a chain plus an optional honest-zone override."""

    spec: ChainSpec
    p_star_override: float | None = None


def default_chain_config() -> ChainConfig:
    """Built-in evaluation setting: 5 stations, identical 3% depolarizing links, 2+2 honest."""
    return ChainConfig(ChainSpec(5, 2, 2, (depolarizing_dist(0.03),) * 6))


def _require_int(value: Any, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _require_number(value: Any, where: str, lo: float, hi: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    # Compare before converting: float() overflows on a huge integer, and
    # printing one can exceed the interpreter's digit limit, so give its size.
    if not (lo <= value <= hi):
        shown = value if isinstance(value, float) or abs(value) < 2**64 else f"an integer of {value.bit_length()} bits"
        raise ConfigError(f"{where}: must be within [{lo}, {hi}], got {shown}")
    return float(value)


def _parse_link(entry: Any, where: str) -> BellDiagonal:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object, got {entry!r}")
    kind = entry.get("type")
    if kind == "depolarizing":
        extra = set(entry) - {"type", "q"}
        if extra:
            raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
        if "q" not in entry:
            raise ConfigError(f"{where}.q: missing")
        return depolarizing_dist(_require_number(entry["q"], f"{where}.q", 0.0, 1.0))
    if kind == "explicit":
        extra = set(entry) - {"type", "probs"}
        if extra:
            raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
        probs = entry.get("probs")
        if not isinstance(probs, list) or len(probs) != 4:
            raise ConfigError(f"{where}.probs: expected a list of 4 numbers, got {probs!r}")
        values = [_require_number(p, f"{where}.probs[{i}]", 0.0, 1.0) for i, p in enumerate(probs)]
        total = sum(values)
        if abs(total - 1.0) > PROBS_SUM_TOL:
            raise ConfigError(f"{where}.probs: must sum to 1 within {PROBS_SUM_TOL}, got {total}")
        return BellDiagonal(tuple(v / total for v in values))
    raise ConfigError(f"{where}.type: expected 'depolarizing' or 'explicit', got {kind!r}")


def parse_chain_config(data: Any, where: str = "config") -> ChainConfig:
    """Validate a decoded JSON object; raises ConfigError with the key at fault."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(data).__name__}")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    for key in ("repeaters", "honest_left", "honest_right", "links"):
        if key not in data:
            raise ConfigError(f"{where}.{key}: missing")
    repeaters = _require_int(data["repeaters"], f"{where}.repeaters", 1)
    honest_left = _require_int(data["honest_left"], f"{where}.honest_left", 0)
    honest_right = _require_int(data["honest_right"], f"{where}.honest_right", 0)
    if honest_left + honest_right > repeaters:
        raise ConfigError(
            f"{where}.honest_left/honest_right: {honest_left}+{honest_right} exceed {repeaters} stations"
        )
    links_raw = data["links"]
    if not isinstance(links_raw, list):
        raise ConfigError(f"{where}.links: expected a list, got {links_raw!r}")
    if len(links_raw) != repeaters + 1:
        raise ConfigError(f"{where}.links: expected {repeaters + 1} entries (repeaters + 1), got {len(links_raw)}")
    links = tuple(_parse_link(entry, f"{where}.links[{i}]") for i, entry in enumerate(links_raw))
    override = None
    if "p_star_override" in data and data["p_star_override"] is not None:
        override = _require_number(data["p_star_override"], f"{where}.p_star_override", 0.0, 0.5)
        if override >= 0.5:
            raise ConfigError(f"{where}.p_star_override: must be strictly below 0.5")
    return ChainConfig(ChainSpec(repeaters, honest_left, honest_right, links), override)


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
