"""Output checks: what makes an operation count as failed.

A command fails on an unexpected exit code, a traceback, or output that does
not parse; analytic tables must also agree with an in-process recomputation
through the library's public functions, and the README's printed values must
reproduce exactly. ``mc-verify`` reporting ``ok=false`` is a statistical
outcome, not a failure: its exit code only has to agree with its own report.
"""

from __future__ import annotations

import csv
import io
import json
import math

from chainrate import keyrate, noise, sampling
from chainrate.cli import build_parser

from workloads import DEFAULT_REPEATERS, README_COMMANDS

REL_TOL = 1e-9

#: Rows of ``chainrate rate-finite --sweep N`` as the README prints them.
README_SWEEP_N_HEADER = (
    "N,rate_h0,rate_h0_clamped,rate_h2,rate_h2_clamped,rate_h4,rate_h4_clamped,rate_bb84f,rate_bb84f_clamped"
)
README_SWEEP_N_ROWS = (
    "100000,-0.790170769093,0,-0.766533113259,0,-0.738186726136,0,-0.534018154206,0",
    "1000000000000,0.0816293141318,0.0816293141318,0.172345103454,0.172345103454,"
    "0.2882565632,0.2882565632,0.0817992662761,0.0817992662761",
)
#: ``print(noise.observed_qx, report.rate)`` in the README's Library example.
README_LIBRARY = (0.08351399753550001, 0.23572388310027617)


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got: float, want: float, what: str) -> None:
    _require(math.isclose(got, want, rel_tol=REL_TOL), f"{what}: printed {got!r}, recomputed {want!r}")


def _table(stdout: str) -> tuple[list[str], list[list[str]]]:
    try:
        rows = list(csv.reader(io.StringIO(stdout)))
    except csv.Error as exc:
        raise CheckFailed(f"output is not CSV: {exc}") from exc
    _require(len(rows) >= 2, "table has no data rows")
    return rows[0], rows[1:]


def _json(stdout: str) -> dict:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    _require(isinstance(payload, dict), "JSON output is not an object")
    return payload


def _split(count: int) -> tuple[int, int]:
    left = (count + 1) // 2
    return left, count - left


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _sample(rounds: int, fraction: float) -> int:
    return max(1, round(fraction * rounds))


def _rate_params(args, n: int, p_star: float) -> keyrate.RateParams:
    return keyrate.RateParams(
        n=n,
        m=_sample(n, args.m_fraction),
        epsilon=1e-36 if args.epsilon is None else args.epsilon,
        p_star=p_star,
        ec_factor=args.ec_factor,
        strict_leak=args.strict_leak,
    )


def _rate_header(sweep: str, honest) -> list[str]:
    header = [sweep]
    for count in honest:
        header += [f"rate_h{count}", f"rate_h{count}_clamped"]
    return header + ["rate_bb84f", "rate_bb84f_clamped"]


def _check_rate_cells(row: list[str], reports, baseline: float, label: str) -> None:
    cells = [float(c) for c in row[1:]]
    want = []
    for report in reports:
        want += [report.rate, report.rate_clamped]
    want += [baseline, max(0.0, baseline)]
    _require(len(cells) == len(want), f"{label}: {len(cells)} cells, expected {len(want)}")
    for got, expected in zip(cells, want):
        _close(got, expected, label)


def _rate_finite(args, stdout: str) -> None:
    honest = args.honest or (0, 2, 4)
    epsilon = 1e-36 if args.epsilon is None else args.epsilon
    header, rows = _table(stdout)
    _require(header == _rate_header(args.sweep, honest), f"unexpected header {header}")
    if args.sweep == "N":
        q = 0.03 if args.q is None else args.q
        qx = noise.observed_qx(noise.uniform_chain(DEFAULT_REPEATERS, q, 0, 0))
        p_stars = [noise.noise_parameter(noise.uniform_chain(DEFAULT_REPEATERS, q, *_split(c))) for c in honest]
        sizes = [int(row[0]) for row in rows]
        _require(sizes == sorted(set(sizes)), "N column is not strictly increasing")
        _require(sizes[0] >= args.n_min and sizes[-1] <= args.n_max, f"N column leaves [{args.n_min}, {args.n_max}]")
        for row, n in zip(rows, sizes):
            reports = [keyrate.finite_rate(qx, _rate_params(args, n, p)) for p in p_stars]
            baseline = keyrate.bb84_finite(qx, n, _sample(n, args.m_fraction), epsilon)
            _check_rate_cells(row, reports, baseline, f"N={n}")
        return
    grid = _grid(args.qx_min, args.qx_max, args.steps)
    _require(len(rows) == len(grid), f"{len(rows)} rows, expected {len(grid)}")
    for row, qx in zip(rows, grid):
        _close(float(row[0]), qx, "qx column")
        strength = noise.strength_for_observed_qx(qx, DEFAULT_REPEATERS + 1)
        reports = [
            keyrate.finite_rate(
                qx,
                _rate_params(args, args.rounds,
                             noise.noise_parameter(noise.uniform_chain(DEFAULT_REPEATERS, strength, *_split(c)))),
            )
            for c in honest
        ]
        baseline = keyrate.bb84_finite(qx, args.rounds, _sample(args.rounds, args.m_fraction), epsilon)
        _check_rate_cells(row, reports, baseline, f"qx={qx}")


def _rate_asymptotic(args, stdout: str) -> None:
    honest = args.honest or (0, 2, 4)
    header, rows = _table(stdout)
    _require(header == ["qx"] + [f"rate_h{c}" for c in honest] + ["rate_bb84a"], f"unexpected header {header}")
    grid = _grid(args.qx_min, args.qx_max, args.steps)
    _require(len(rows) == len(grid) + 1 and rows[-1][0] == "threshold", "expected one row per grid point plus thresholds")

    def rate_fn(count: int):
        def rate(qx: float) -> float:
            strength = noise.strength_for_observed_qx(qx, DEFAULT_REPEATERS + 1)
            p_star = noise.noise_parameter(noise.uniform_chain(DEFAULT_REPEATERS, strength, *_split(count)))
            return keyrate.asymptotic_rate(qx, p_star)

        return rate

    for row, qx in zip(rows, grid):
        _close(float(row[0]), qx, "qx column")
        want = [rate_fn(c)(qx) for c in honest] + [keyrate.bb84_asymptotic(qx)]
        for got, expected in zip([float(c) for c in row[1:]], want):
            _close(got, expected, f"qx={qx}")
    thresholds = [keyrate.noise_tolerance(rate_fn(c)) for c in honest] + [keyrate.noise_tolerance(keyrate.bb84_asymptotic)]
    _require(len(rows[-1]) == len(thresholds) + 1, "threshold row has the wrong width")
    for got, expected in zip([float(c) for c in rows[-1][1:]], thresholds):
        _close(got, expected, "threshold")


def _noise(args, stdout: str) -> None:
    honest = args.honest or (1, 2, 3, 4)
    header, rows = _table(stdout)
    _require(header == ["q", "qx_total"] + [f"p_star_h{c}" for c in honest], f"unexpected header {header}")
    grid = _grid(args.q_min, args.q_max, args.steps)
    _require(len(rows) == len(grid), f"{len(rows)} rows, expected {len(grid)}")
    for row, q in zip(rows, grid):
        want = [q, noise.observed_qx(noise.uniform_chain(DEFAULT_REPEATERS, q, 0, 0))]
        want += [noise.noise_parameter(noise.uniform_chain(DEFAULT_REPEATERS, q, *_split(c))) for c in honest]
        _require(len(row) == len(want), f"q={q}: row has the wrong width")
        for got, expected in zip([float(c) for c in row], want):
            _close(got, expected, f"q={q}")


def _bounds(args, stdout: str) -> None:
    payload = _json(stdout)
    epsilon = 1e-36 if args.epsilon is None else args.epsilon
    n, m = args.rounds, _sample(args.rounds, args.m_fraction)
    delta = sampling.deviation_for_failure(epsilon, m, n)
    ledger = sampling.epsilon_ledger(epsilon)
    want = {
        "n": n,
        "m": m,
        "epsilon": epsilon,
        "delta": delta,
        "delta_prime": sampling.hoeffding_deviation(epsilon, m),
        "failure_bound_at_delta": sampling.sampling_failure_bound(delta, m, n),
        "epsilon_pa": ledger.epsilon_pa,
        "epsilon_fail": ledger.epsilon_fail,
        "smoothing": ledger.smoothing,
    }
    _require(set(payload) == set(want), f"unexpected keys {sorted(payload)}")
    for key, expected in want.items():
        _close(float(payload[key]), expected, key)


_ANALYTIC = {
    "rate-finite": _rate_finite,
    "rate-asymptotic": _rate_asymptotic,
    "noise": _noise,
    "bounds": _bounds,
}


def _readme_rows(stdout: str) -> None:
    lines = stdout.splitlines()
    _require(lines[0] == README_SWEEP_N_HEADER, "header differs from the README")
    for expected in README_SWEEP_N_ROWS:
        key = expected.split(",", 1)[0] + ","
        printed = [line for line in lines if line.startswith(key)]
        _require(printed == [expected], f"row N={key[:-1]} differs from the README: {printed}")


def _simulate(argv: tuple[str, ...], stdout: str) -> None:
    payload = _json(stdout)
    rounds = int(argv[argv.index("--rounds") + 1])
    seed = int(argv[argv.index("--seed") + 1])
    _require(payload.get("rounds") == rounds and payload.get("seed") == seed, "report does not echo rounds/seed")
    qx, m = payload["qx_analytic"], payload["sample_size"]
    sigma = math.sqrt(qx * (1.0 - qx) / m)
    _require(abs(payload["qx_hat"] - qx) <= 6.0 * sigma,
             f"qx_hat {payload['qx_hat']} is more than 6 sigma from qx_analytic {qx}")


def _mc_verify(argv: tuple[str, ...], code: int, stdout: str) -> dict:
    payload = _json(stdout)
    trials = int(argv[argv.index("--trials") + 1])
    rounds = int(argv[argv.index("--rounds") + 1])
    _require(payload.get("trials") == trials and payload.get("rounds") == rounds, "report does not echo rounds/trials")
    ok = payload["sampling_ok"] and payload["hoeffding_ok"]
    _require(code == (0 if ok else 2), f"exit {code} disagrees with ok={ok}")
    return payload


def _verify(stdout: str, fault: bool) -> None:
    lines = stdout.splitlines()
    results = lines[:-1]
    _require(len(results) > 1, "no check lines")
    failed = [line.split(":", 1)[0].removeprefix("FAIL ") for line in results if line.startswith("FAIL ")]
    passed = sum(line.startswith("PASS ") for line in results)
    _require(passed + len(failed) == len(results), "a check line is neither PASS nor FAIL")
    expected = ["oracle_equivalence"] if fault else []
    _require(failed == expected, f"failed checks {failed}, expected {expected}")
    _require(lines[-1] == f"{passed}/{len(results)} checks passed", f"unexpected summary {lines[-1]!r}")


def check_cli(op, code: int, stdout: str, stderr: str) -> dict | None:
    """Raise CheckFailed unless the command's output is right; returns mc-verify's report."""
    _require("Traceback" not in stderr, f"traceback: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}")
    if op.expect_exit is not None:
        _require(code == op.expect_exit, f"exit {code}, expected {op.expect_exit}: {stderr.strip()[:200]}")
    elif code not in (0, 2):
        raise CheckFailed(f"exit {code}: {stderr.strip()[:200]}")
    try:
        if op.kind == "analytic":
            args = build_parser().parse_args(list(op.argv))
            _ANALYTIC[args.command](args, stdout)
            if op.argv == README_COMMANDS[0]:
                _readme_rows(stdout)
        elif op.kind == "simulate":
            _simulate(op.argv, stdout)
        elif op.kind == "mc-verify":
            return _mc_verify(op.argv, code, stdout)
        elif op.kind in ("verify", "verify-fault"):
            _verify(stdout, op.kind == "verify-fault")
        else:
            raise CheckFailed(f"no check for kind {op.kind!r}")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
    return None


def check_readme_library() -> None:
    """The README's Library example, verbatim; the printed values must reproduce exactly."""
    spec = noise.uniform_chain(repeaters=5, q=0.03, honest_left=2, honest_right=2)
    report_noise = noise.noise_report(spec)
    params = keyrate.RateParams(n=10**8, m=7 * 10**6, epsilon=1e-36, p_star=report_noise.p_star)
    report = keyrate.finite_rate(report_noise.observed_qx, params)
    got = (report_noise.observed_qx, report.rate)
    _require(got == README_LIBRARY, f"library example printed {got}, README says {README_LIBRARY}")


def check_library_eval(result: tuple[float, float, float] | Exception) -> None:
    _require(not isinstance(result, Exception), f"raised {result!r}")
    qx, p_star, rate = result
    _require(0.0 <= qx < 0.5 and 0.0 <= p_star < 0.5, f"noise figures out of range: qx={qx}, p*={p_star}")
    _require(math.isfinite(rate) and rate <= 1.0, f"rate {rate} is not a finite rate")


def check_library_threshold(threshold: float | Exception, rate_fn) -> None:
    """The tolerance must bracket the rate's sign change (bisection tolerance 1e-6)."""
    _require(not isinstance(threshold, Exception), f"raised {threshold!r}")
    _require(0.0 <= threshold <= 0.5, f"threshold {threshold} outside [0, 0.5]")
    if 0.0 < threshold < 0.5:
        _require(rate_fn(max(0.0, threshold - 1e-5)) > 0.0 >= rate_fn(min(0.4999, threshold + 1e-5)),
                 f"threshold {threshold} does not bracket the rate's zero")
