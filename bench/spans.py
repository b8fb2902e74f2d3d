"""Span recorder that times chainrate's public functions from outside.

``Recorder.install`` replaces each target function with a wrapper wherever
the package binds it: the module attribute, and every name that
``from ... import`` bound in another chainrate module (``cli``,
``montecarlo`` and ``verify`` call most of them that way). ``uninstall``
puts the originals back. Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, op_id)``: ``parent`` is the index of
the enclosing span or -1, ``op_id`` the operation of the pass that caused it.
Spans stay in memory until the caller writes them out. Functions called in
tight loops (``bell.convolve``, ``keyrate.asymptotic_rate``,
``noise.strength_for_observed_qx``) are only counted, so that the tracing
overhead stays small; their time shows up in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

#: Bytes touched per link per sampled round by the per-link sampler: one
#: float64 uniform, one int64 index from searchsorted, one uint8 after the cast.
BYTES_PER_LINK_ROUND = 17

CLI_SUBCOMMANDS = ("noise", "rate-finite", "rate-asymptotic", "bounds", "simulate", "mc-verify", "verify")

#: ``CheckResult.name`` of each check in ``verify.run_all``, in run order.
VERIFY_CHECKS = (
    "states_orthonormal",
    "swap_identity",
    "pauli_correction",
    "oracle_equivalence",
    "swap_order",
    "depolarizing_decomposition",
    "chain_noise_closed_form",
    "noise_parameter_routes",
    "sampling_roundtrip",
    "sampling_exhaustive",
    "sampling_empirical",
    "baseline_identity",
    "epsilon_ledger",
    "measurement_semantics",
    "round_sampler",
    "concentration",
    "simulation_determinism",
)

#: (module, function, timed): timed targets get a span, the others a call count.
TARGETS = (
    ("cli", "main", True),
    ("config", "load_chain_config", True),
    ("noise", "noise_report", True),
    ("noise", "noise_parameter", True),
    ("noise", "strength_for_observed_qx", False),
    ("keyrate", "finite_rate", True),
    ("keyrate", "asymptotic_rate", False),
    ("keyrate", "noise_tolerance", True),
    ("keyrate", "bb84_finite", True),
    ("montecarlo", "sample_rounds", True),
    ("montecarlo", "simulate_e91", True),
    ("montecarlo", "verify_concentration", True),
    ("sampling", "exhaustive_failure", True),
    ("sampling", "empirical_failure_bits", True),
    ("dm_oracle", "simulate_chain_exact", True),
    ("bell", "convolve", False),
)

#: Every per-layer metric a traced run reports, as (name, unit, better).
PER_LAYER = (
    ("import.numpy_s", "s", "lower"),
    ("import.chainrate_s", "s", "lower"),
    *((f"cli.main.{sub}_s", "s", "lower") for sub in CLI_SUBCOMMANDS),
    ("config.load_chain_config_s", "s", "lower"),
    ("noise.noise_report_s", "s", "lower"),
    ("noise.noise_parameter_s", "s", "lower"),
    ("noise.noise_parameter.calls", "count", "lower"),
    ("noise.strength_for_observed_qx.calls", "count", "lower"),
    ("keyrate.finite_rate_s", "s", "lower"),
    ("keyrate.finite_rate.calls", "count", "lower"),
    ("keyrate.asymptotic_rate.calls", "count", "lower"),
    ("keyrate.noise_tolerance_s", "s", "lower"),
    ("keyrate.bb84_finite_s", "s", "lower"),
    ("montecarlo.sample_rounds_s", "s", "lower"),
    ("montecarlo.sample_rounds.rounds", "count", "lower"),
    ("montecarlo.sample_rounds.bytes_computed", "B", "lower"),
    ("montecarlo.draws_per_round", "draws/round", "lower"),
    ("montecarlo.simulate_e91_s", "s", "lower"),
    ("montecarlo.verify_concentration_s", "s", "lower"),
    ("montecarlo.verify_concentration.trials", "count", "lower"),
    ("montecarlo.mc_verify_not_ok", "count", "lower"),
    ("sampling.exhaustive_failure_s", "s", "lower"),
    ("sampling.exhaustive_failure.subsets", "count", "lower"),
    ("sampling.empirical_failure_bits_s", "s", "lower"),
    ("sampling.empirical_failure_bits.trials", "count", "lower"),
    ("dm_oracle.simulate_chain_exact_s", "s", "lower"),
    ("dm_oracle.simulate_chain_exact.calls", "count", "lower"),
    ("bell.convolve.calls", "count", "lower"),
    *((f"verify.{check}_s", "s", "lower") for check in VERIFY_CHECKS),
    ("trace.wall_ratio", "ratio", "lower"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op_id: int


class _CountingRng:
    """Delegates to a numpy Generator and counts the variates each call returns."""

    def __init__(self, rng: np.random.Generator, counts: Counter, key: str) -> None:
        self._rng = rng
        self._counts = counts
        self._key = key

    def __getattr__(self, name: str):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._counts[self._key] += int(np.size(out))
            return out

        return call


def _count_sample_rounds(counts: Counter, bound: inspect.BoundArguments) -> None:
    rounds = int(bound.arguments["rounds"])
    links = len(bound.arguments["spec"].links)
    counts["montecarlo.sample_rounds.rounds"] += rounds
    counts["montecarlo.sample_rounds.bytes_computed"] += rounds * links * BYTES_PER_LINK_ROUND
    bound.arguments["rng"] = _CountingRng(bound.arguments["rng"], counts, "montecarlo.sample_rounds.draws")


def _count_verify_concentration(counts: Counter, bound: inspect.BoundArguments) -> None:
    counts["montecarlo.verify_concentration.trials"] += int(bound.arguments["cfg"].trials)


def _count_exhaustive(counts: Counter, bound: inspect.BoundArguments) -> None:
    counts["sampling.exhaustive_failure.subsets"] += math.comb(len(bound.arguments["word"]), int(bound.arguments["m"]))


def _count_empirical(counts: Counter, bound: inspect.BoundArguments) -> None:
    counts["sampling.empirical_failure_bits.trials"] += int(bound.arguments["trials"])


_COUNTERS: dict[str, Callable[[Counter, inspect.BoundArguments], None]] = {
    "montecarlo.sample_rounds": _count_sample_rounds,
    "montecarlo.verify_concentration": _count_verify_concentration,
    "sampling.exhaustive_failure": _count_exhaustive,
    "sampling.empirical_failure_bits": _count_empirical,
}


def _cli_span_name(args: tuple, kwargs: dict, result: object) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def _check_span_name(fn: Callable) -> Callable[[tuple, dict, object], str]:
    def name(args: tuple, kwargs: dict, result: object) -> str:
        return f"verify.{getattr(result, 'name', fn.__name__)}"

    return name


class Recorder:
    """Wraps the target functions; holds spans and counters in memory."""

    def __init__(self, op_id: int = 0) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op_id = op_id
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, timed: bool, namer: Callable | None = None) -> Callable:
        counts = self.counts
        calls_key = f"{name}.calls"
        if not timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[calls_key] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    counter(counts, bound)
                except (KeyError, AttributeError):  # signature changed: the counter reads 0
                    pass
                args, kwargs = bound.args, bound.kwargs
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                label = namer(args, kwargs, result) if namer else name
                spans[index] = Span(label, start, end, parent, self.op_id)

        return spanned

    def install(self) -> None:
        """Patch every binding of every target inside the loaded chainrate package."""
        import chainrate.cli  # noqa: F401  (loads every module the CLI reaches)
        import chainrate.verify as verify

        modules = [m for n, m in sorted(sys.modules.items()) if n == "chainrate" or n.startswith("chainrate.")]
        wrappers: dict[int, tuple[object, Callable]] = {}
        for module, function, timed in TARGETS:
            original = getattr(sys.modules.get(f"chainrate.{module}"), function, None)
            if original is None:  # removed or renamed: its metrics read 0
                continue
            namer = _cli_span_name if (module, function) == ("cli", "main") else None
            wrappers[id(original)] = (original, self._wrap(original, f"{module}.{function}", timed, namer))
        for attr, original in vars(verify).items():
            if attr.startswith("check_") and callable(original):
                wrapper = self._wrap(original, f"verify.{attr}", True, _check_span_name(original))
                wrappers[id(original)] = (original, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}, handle)


def load_dump(path: str) -> tuple[list[Span], Counter]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [Span(*row) for row in data["spans"]], Counter(data["counts"])


def merge(into: list[Span], spans: list[Span]) -> None:
    """Append ``spans`` (indexed from 0) to ``into``, shifting parent indices."""
    offset = len(into)
    into.extend(s._replace(parent=s.parent + offset) if s.parent >= 0 else s for s in spans)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of ``intervals`` covers."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - _covered(s.start, s.end, children.get(i, [])) for i, s in enumerate(spans)]


def pass_totals(spans: list[Span], counts: Counter) -> Counter:
    """Self time per span name (as ``<name>_s``) plus the raw counters of one pass."""
    totals = Counter(counts)
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span.name}_s"] += own
    return totals


def layer_metrics(passes: list[Counter], extra: dict[str, float]) -> dict[str, float]:
    """Median over traced passes of every per-layer metric; ``extra`` supplies the rest."""
    values: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
        elif name == "montecarlo.draws_per_round":
            values[name] = statistics.median(
                p["montecarlo.sample_rounds.draws"] / p["montecarlo.sample_rounds.rounds"]
                if p["montecarlo.sample_rounds.rounds"] else 0.0
                for p in passes
            )
        else:
            values[name] = statistics.median(p[name] for p in passes)
    return values
