"""Command-line front end.

Subcommands:

* ``noise``            sweep link strength, tabulate end-to-end noise and honest-zone parameters
* ``rate-finite``      sweep round count or observed noise, tabulate finite-size rates vs. the baseline
* ``rate-asymptotic``  sweep observed noise, tabulate asymptotic rates vs. the baseline
* ``bounds``           print the deviation tolerances and failure-term ledger for one setting
* ``simulate``         run one count-level simulation, print its report as JSON
* ``mc-verify``        run the concentration scan, print its summary as JSON
* ``verify``           run the full self-verification suite

What each command takes from the chain configuration (``--config``; without
it, the preset: 5 stations, identical 3% depolarizing links, 2+2 honest):

* the q and qx sweeps (``noise``, ``rate-asymptotic``, ``rate-finite --sweep
  qx``) use identical links of the configured size at the swept strength;
* the N sweep, ``simulate`` and ``mc-verify`` use the configured links;
  ``rate-finite --sweep N --q Q`` gives the preset identical links of
  strength Q instead, and ``--q`` is refused with ``--config`` or ``--sweep qx``;
* sweeps over ``--honest`` split each count evenly (the left end takes the
  odd station); ``simulate`` and ``mc-verify`` use the configured split;
* ``p_star_override`` replaces the computed honest-zone parameter everywhere
  except the ``noise`` table, which shows the computed one.

``bounds`` and ``verify`` read no configuration. Each subcommand accepts only
the flags listed for it (``chainrate CMD -h``); ``rate-finite`` accepts the
flags of both sweeps and reads only the chosen sweep's. Tables are CSV with a
header row, ordered by the sweep column, numbers at 12 significant digits;
reports are JSON. Exit codes: 0 success, 1 validation error, 2 verification
failure. All randomness flows from ``--seed``.
"""
# ``_rated_chain`` implements the list above (a comment, as the docstring is also ``chainrate -h``).

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from typing import Any, Sequence

from .config import ChainConfig, default_chain_config, load_chain_config
from .keyrate import BASELINE_EC_FACTOR, RateParams, asymptotic_rate, bb84_asymptotic, bb84_finite, finite_rate, noise_tolerance
from .noise import ChainSpec, noise_parameter, observed_qx, strength_for_observed_qx, uniform_chain
from .sampling import MAX_ROUNDS, deviation_for_failure, epsilon_ledger, hoeffding_deviation, sampling_failure_bound

DEFAULT_EPSILON = 1e-36
# The concentration scan tests the bound at its own epsilon; the key-rate
# default would put the target frequency at 1e-72.
MC_VERIFY_EPSILON = 0.05
#: Most rows one table may have; both grids check it before building anything.
MAX_ROWS = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage problems; the interface contract
    wants 1, with a one-line message (``-h`` prints the usage)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[Any]], out: str | None) -> None:
    # No cell needs quoting: each is a number, a fixed column name or ``threshold``.
    _emit("".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]), out)


def _as_dict(record: Any) -> Any:
    """A named-tuple record as a dict, nested records included; ``json`` would write it as an array."""
    if not hasattr(record, "_asdict"):
        return record
    return {key: _as_dict(value) for key, value in record._asdict().items()}


def _emit_json(payload: Any, out: str | None) -> None:
    _emit(json.dumps(_as_dict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _positive_int(text: str) -> int:
    # Accepts scientific notation like 1e7 for convenience.
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 1 or value != int(value):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(value)


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _honest_list(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not counts or any(count < 0 for count in counts):
        raise argparse.ArgumentTypeError(f"honest counts must be >= 0, got {text!r}")
    # A repeated count would repeat a column under the same header name.
    repeated = [count for count, times in Counter(counts).items() if times > 1]
    if repeated:
        raise argparse.ArgumentTypeError(f"honest count {repeated[0]} is repeated in {text!r}")
    return counts


def _load_config(args: argparse.Namespace) -> ChainConfig:
    if args.config is None:
        return default_chain_config()
    return load_chain_config(args.config)


def _sample_size(rounds: int, fraction: float) -> int:
    """The one rule for m: round(fraction * rounds), at least 1 and at most rounds // 2.

    ``RateParams`` and ``deviation_for_failure`` check the (n, m, epsilon)
    triple; as m >= 1, an out-of-range epsilon or round count is what they report.
    """
    if not (0.0 < fraction <= 0.5):
        raise ValueError(f"--m-fraction must be in (0, 0.5], got {fraction}")
    return max(1, min(round(fraction * rounds), rounds // 2))


def _resolve_honest(counts: tuple[int, ...] | None, repeaters: int, fallback: Sequence[int]) -> tuple[int, ...]:
    """Explicit counts as given, for ``ChainSpec`` to refuse one the chain has no room for; by default, the counts that fit."""
    if counts is None:
        return tuple(count for count in fallback if count <= repeaters)
    return counts


def _rated_chain(args: argparse.Namespace, config: ChainConfig, honest: Sequence[int] | None, value: float | None) -> tuple[ChainSpec, list[float]]:
    """The chain a command rates at sweep value ``value``, and the p* it credits to each count in ``honest``.

    The one place that decides which links, which honest split and which p* each command
    uses, as the module docstring lists them. ``value`` is the swept q or qx, None for the
    N sweep; ``honest`` is None for the configured split of ``simulate`` and ``mc-verify``.
    """
    spec, override = config.spec, config.p_star_override
    repeaters = spec.repeaters
    if args.command == "noise":
        spec, override = uniform_chain(repeaters, value, 0, 0), None
    elif args.command == "rate-asymptotic" or (args.command == "rate-finite" and args.sweep == "qx"):
        spec = uniform_chain(repeaters, strength_for_observed_qx(value, repeaters + 1), 0, 0)
    elif args.command == "rate-finite" and args.q is not None:
        spec = uniform_chain(repeaters, args.q, 0, 0)
    splits = [spec] if honest is None else [ChainSpec(repeaters, (count + 1) // 2, count // 2, spec.links) for count in honest]
    return spec, [noise_parameter(split) if override is None else override for split in splits]


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    span = hi - lo
    if not (2 <= steps <= MAX_ROWS and math.isfinite(span) and span > 0):
        raise ValueError(f"need 2..{MAX_ROWS} steps and a finite span max - min > 0, got [{lo}, {hi}] x {steps}")
    return [lo + span * i / (steps - 1) for i in range(steps)]


def cmd_noise(args: argparse.Namespace) -> int:
    config = _load_config(args)
    honest = _resolve_honest(args.honest, config.spec.repeaters, (1, 2, 3, 4))
    header = ["q", "qx_total"] + [f"p_star_h{count}" for count in honest]
    rows = []
    for q in _grid(args.q_min, args.q_max, args.steps):
        chain, p_stars = _rated_chain(args, config, honest, q)
        rows.append([q, observed_qx(chain)] + p_stars)
    _emit_csv(header, rows, args.out)
    return 0


def _round_grid(n_min: int, n_max: int, per_decade: int) -> list[int]:
    if n_min < 10 or n_max <= n_min:
        raise ValueError(f"need 10 <= n-min < n-max, got {n_min}, {n_max}")
    if n_max > MAX_ROUNDS:
        # 13 significant digits: a 13-digit count prints exactly, a larger one as 1e+300, not 301 digits.
        raise ValueError(f"--n-max must be at most {MAX_ROUNDS}, got {n_max:.13g}")
    if per_decade < 1:
        raise ValueError(f"--per-decade must be >= 1, got {per_decade}")
    exponent = math.log10(n_min)
    top = math.log10(n_max)
    if (top - exponent) * per_decade + 1 > MAX_ROWS:
        raise ValueError(f"--per-decade {per_decade} over [{n_min}, {n_max}] gives more than {MAX_ROWS} rows")
    values = []
    step = 1.0 / per_decade
    while exponent <= top + 1e-9:
        # The float exponent can overshoot either end by a rounding step; clamp it back.
        values.append(min(n_max, max(n_min, int(round(10**exponent)))))
        exponent += step
    return sorted(set(values))


def _rate_params(args: argparse.Namespace, rounds: int, p_star: float) -> RateParams:
    """``RateParams`` at ``rounds`` from ``--m-fraction``, ``--epsilon``, ``--ec-factor`` and ``--strict-leak``."""
    return RateParams(
        n=rounds,
        m=_sample_size(rounds, args.m_fraction),
        epsilon=args.epsilon,
        p_star=p_star,
        ec_factor=args.ec_factor,
        strict_leak=args.strict_leak,
    )


def _finite_row(args: argparse.Namespace, key: Any, qx: float, rounds: int, p_stars: Sequence[float]) -> list[Any]:
    """``key``, then the rate per honest-zone parameter and the baseline, each raw and clamped."""
    params = _rate_params(args, rounds, 0.0)
    row = [key]
    for p_star in p_stars:
        report = finite_rate(qx, params._replace(p_star=p_star))
        row += [report.rate, report.rate_clamped]
    baseline = bb84_finite(qx, rounds, params.m, args.epsilon)
    return row + [baseline, max(0.0, baseline)]


def cmd_rate_finite(args: argparse.Namespace) -> int:
    if args.q is not None and (args.config is not None or args.sweep == "qx"):
        raise ValueError("--q sets the preset's links for --sweep N; it cannot be combined with --config or --sweep qx")
    config = _load_config(args)
    honest = _resolve_honest(args.honest, config.spec.repeaters, (0, 2, 4))
    rows: list[list[Any]] = []
    if args.sweep == "N":
        spec, p_stars = _rated_chain(args, config, honest, None)
        qx = observed_qx(spec)
        for rounds in _round_grid(args.n_min, args.n_max, args.per_decade):
            rows.append(_finite_row(args, rounds, qx, rounds, p_stars))
    else:
        for qx in _grid(args.qx_min, args.qx_max, args.steps):
            rows.append(_finite_row(args, qx, qx, args.rounds, _rated_chain(args, config, honest, qx)[1]))
    header = [args.sweep]
    for count in honest:
        header += [f"rate_h{count}", f"rate_h{count}_clamped"]
    _emit_csv(header + ["rate_bb84f", "rate_bb84f_clamped"], rows, args.out)
    return 0


def cmd_rate_asymptotic(args: argparse.Namespace) -> int:
    config = _load_config(args)
    honest = _resolve_honest(args.honest, config.spec.repeaters, (0, 2, 4))

    def rates_at(qx: float, counts: Sequence[int]) -> list[float]:
        return [asymptotic_rate(qx, p) for p in _rated_chain(args, config, counts, qx)[1]]

    header = ["qx"] + [f"rate_h{count}" for count in honest] + ["rate_bb84a"]
    rows: list[list[Any]] = [
        [qx, *rates_at(qx, honest), bb84_asymptotic(qx)] for qx in _grid(args.qx_min, args.qx_max, args.steps)
    ]
    thresholds = [noise_tolerance(lambda qx, count=count: rates_at(qx, (count,))[0]) for count in honest]
    rows.append(["threshold", *thresholds, noise_tolerance(bb84_asymptotic)])
    _emit_csv(header, rows, args.out)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    epsilon = args.epsilon
    rounds = args.rounds
    sample = _sample_size(rounds, args.m_fraction)
    delta = deviation_for_failure(epsilon, sample, rounds)
    ledger = epsilon_ledger(epsilon)
    payload = {
        "n": rounds,
        "m": sample,
        "epsilon": epsilon,
        "delta": delta,
        "delta_prime": hoeffding_deviation(epsilon, sample),
        "failure_bound_at_delta": sampling_failure_bound(delta, sample, rounds),
        **ledger._asdict(),
    }
    _emit_json(payload, args.out)
    return 0


# These handlers import montecarlo and verify in their bodies, which analytic commands never use.
# Only verify loads numpy; simulate and mc-verify sample in pure Python.
def cmd_simulate(args: argparse.Namespace) -> int:
    from .montecarlo import simulate_e91
    spec, (p_star,) = _rated_chain(args, _load_config(args), None, None)
    _emit_json(simulate_e91(spec, _rate_params(args, args.rounds, p_star), args.seed), args.out)
    return 0


def cmd_mc_verify(args: argparse.Namespace) -> int:
    from .montecarlo import verify_concentration
    spec, (p_star,) = _rated_chain(args, _load_config(args), None, None)
    summary = verify_concentration(spec, _rate_params(args, args.rounds, p_star), args.trials, args.seed)
    _emit_json(summary, args.out)
    return 0 if summary.ok else 2


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        from . import verify as verify_mod
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ValueError("verify needs numpy, which cannot be imported") from exc
    results = verify_mod.run_all(seed=args.seed, inject_fault=args.inject_fault)
    lines = []
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        lines.append(f"{status} {result.name}: {result.detail}")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(results) else 2


def _protocol_flags(epsilon: float) -> argparse.ArgumentParser:
    """``--epsilon`` with this command's default, and ``--m-fraction``."""
    parent = _Parser(add_help=False)
    parent.add_argument("--epsilon", type=float, default=epsilon, help=f"failure target (default {epsilon:g})")
    parent.add_argument("--m-fraction", type=float, default=0.07, help="test-sample fraction f in (0, 0.5]: m = round(f*n), capped at n // 2 (default 0.07)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    # One parent per group of flags; each subcommand takes the groups it reads.
    config = _Parser(add_help=False)
    config.add_argument("--config", metavar="FILE", help="JSON chain configuration (default: the preset)")
    out = _Parser(add_help=False)
    out.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")
    protocol = _protocol_flags(DEFAULT_EPSILON)
    leak = _Parser(add_help=False)
    leak.add_argument("--ec-factor", type=float, default=BASELINE_EC_FACTOR, help=f"error-correction inefficiency (default {BASELINE_EC_FACTOR})")
    leak.add_argument(
        "--strict-leak",
        action="store_true",
        help="charge error correction on all rounds instead of the kept fraction",
    )

    parser = _Parser(prog="chainrate", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_noise = sub.add_parser("noise", parents=[config, out], help="sweep link strength")
    p_noise.add_argument("--q-min", type=float, default=0.0)
    p_noise.add_argument("--q-max", type=float, default=0.12)
    p_noise.add_argument("--steps", type=int, default=61)
    p_noise.add_argument("--honest", type=_honest_list, default=None, help="comma-separated honest counts (default 1..4, capped at the chain)")
    p_noise.set_defaults(handler=cmd_noise)

    p_finite = sub.add_parser("rate-finite", parents=[config, out, protocol, leak], help="finite-size rate sweep")
    p_finite.add_argument("--sweep", choices=("N", "qx"), default="N")
    p_finite.add_argument("--n-min", type=_positive_int, default=10**5)
    p_finite.add_argument("--n-max", type=_positive_int, default=10**12)
    p_finite.add_argument("--per-decade", type=int, default=4, help="grid points per decade for the N sweep")
    p_finite.add_argument("--rounds", type=_positive_int, default=10**7, help="round count for the qx sweep")
    p_finite.add_argument("--qx-min", type=float, default=0.0)
    p_finite.add_argument("--qx-max", type=float, default=0.15)
    p_finite.add_argument("--steps", type=int, default=151)
    p_finite.add_argument("--q", type=float, default=None, help="identical link strength of the preset for the N sweep (default: the preset's 0.03)")
    p_finite.add_argument("--honest", type=_honest_list, default=None, help="comma-separated honest counts (default 0,2,4)")
    p_finite.set_defaults(handler=cmd_rate_finite)

    p_asym = sub.add_parser("rate-asymptotic", parents=[config, out], help="asymptotic rate sweep")
    p_asym.add_argument("--qx-min", type=float, default=0.0)
    p_asym.add_argument("--qx-max", type=float, default=0.25)
    p_asym.add_argument("--steps", type=int, default=126)
    p_asym.add_argument("--honest", type=_honest_list, default=None, help="comma-separated honest counts (default 0,2,4)")
    p_asym.set_defaults(handler=cmd_rate_asymptotic)

    p_bounds = sub.add_parser("bounds", parents=[out, protocol], help="deviation tolerances and failure ledger")
    p_bounds.add_argument("--rounds", type=_positive_int, default=10**7)
    p_bounds.set_defaults(handler=cmd_bounds)

    p_sim = sub.add_parser("simulate", parents=[config, out, seed, protocol, leak], help="count-level simulation")
    p_sim.add_argument("--rounds", type=_positive_int, default=10**6)
    p_sim.set_defaults(handler=cmd_simulate)

    p_mc = sub.add_parser("mc-verify", parents=[config, out, seed, _protocol_flags(MC_VERIFY_EPSILON)], help="concentration-bound scan")
    p_mc.add_argument("--rounds", type=_positive_int, default=2000)
    p_mc.add_argument("--trials", type=_positive_int, default=2000)
    # The scan reads no leak settings, so mc-verify takes no leak flags; RateParams gets their defaults.
    p_mc.set_defaults(handler=cmd_mc_verify, ec_factor=BASELINE_EC_FACTOR, strict_leak=False)

    p_verify = sub.add_parser("verify", parents=[out, seed], help="self-verification suite")
    # verify.run_all holds the list of faults and refuses any other name.
    p_verify.add_argument("--inject-fault", metavar="convolve", default=None, help="negative control")
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # config's own error type included
        print(f"chainrate: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    # Before numpy loads: verify's 4x4 and 16x16 products are too small for OpenBLAS to split, so its extra threads only spin.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
