"""Acceptance checks for the whole package, one criterion per test.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
``-rA``; the ``-v`` test names carry the same verdict) and then asserts.
Reference numbers were computed once with 50-digit arithmetic and are frozen
in ``tests/frozen.py``; tolerances are stated next to each check.
"""

import csv
import io
import math
import time

import numpy as np

from chainrate.cli import main
from chainrate.keyrate import RateParams
from chainrate.montecarlo import sample_rounds, simulate_e91
from chainrate.noise import ChainSpec, noise_parameter, observed_qx
from chainrate.literal import empirical_failure_bits, exhaustive_failure, random_dists
from chainrate.sampling import epsilon_ledger, sampling_failure_bound
from chainrate.verify import (
    check_baseline_identity,
    check_chain_noise_closed_form,
    check_noise_parameter_routes,
    check_oracle_equivalence,
    check_sampling_roundtrip,
    check_swap_identity,
)
from frozen import BB84_ASYMPTOTIC_THRESHOLD, EPSILON_FAIL_1E36, EPSILON_PA_1E36, PRESET, QX_PRESET


def _line(number: int, ok: bool, label: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}: {label}")
    assert ok, f"criterion {number:02d} failed: {label}"


def _run_csv(tmp_path, name, argv):
    target = tmp_path / name
    rc = main(argv + ["--out", str(target)])
    assert rc == 0, f"command {argv} exited {rc}"
    rows = list(csv.reader(io.StringIO(target.read_text())))
    return rows[0], rows[1:]


def test_criterion_01_oracle_equivalence():
    # The check as verify runs it, at two seeds: 80 random chains in all.
    start = time.perf_counter()
    results = [check_oracle_equivalence(seed) for seed in (20260817, 20260818)]
    elapsed = time.perf_counter() - start
    _line(
        1,
        all(result.ok for result in results) and elapsed < 10.0,
        f"density-matrix reference vs convolution fold on the preset and chains of 1..6 links: "
        f"{'; '.join(result.detail for result in results)} (tol 1e-10), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_swap_identity():
    result = check_swap_identity()
    _line(2, result.ok, f"all 16 pure-pair swaps against the label sum: {result.detail} (tol 1e-10)")


def test_criterion_03_chain_noise_closed_form():
    result = check_chain_noise_closed_form()
    at_preset = observed_qx(PRESET)
    ok = result.ok and abs(at_preset - QX_PRESET) < 1e-12 and round(at_preset, 5) == 0.08351
    _line(
        3,
        ok,
        f"six-link closed form vs 4^6 enumeration vs fold: {result.detail} "
        f"(tol 1e-12); q=0.03 gives {at_preset:.5f}",
    )


def test_criterion_04_noise_parameter_equivalence():
    result = check_noise_parameter_routes(seed=42)
    rng = np.random.default_rng(42)
    zero_exact = all(
        noise_parameter(ChainSpec(r, 0, 0, tuple(random_dists(rng, r + 1)))) == 0.0
        for r in (1, 3, 6)
    )
    _line(
        4,
        result.ok and zero_exact,
        f"double sum vs marginal combination vs enumeration on random chains: {result.detail} "
        f"(tol 1e-12); exactly zero without honest stations: {zero_exact}",
    )


def test_criterion_05_sampling_roundtrips():
    result = check_sampling_roundtrip()
    _line(
        5,
        result.ok,
        f"bound/deviation inverses (subset and i.i.d.) over 3 sizes x 20 epsilons: {result.detail}, tol 1e-12",
    )


def test_criterion_06_concentration_bound_honored():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    checks = []

    # Exhaustive enumeration at n=20, m=10 (the bound formula evaluated at the
    # half split, where the estimator is weakest).
    n, m = 20, 10
    half_word = [1] * 10 + [0] * 10
    chain_word = (sample_rounds(PRESET, n, rng) & 1).tolist()
    deltas = (0.15, 0.3, 0.45)
    for word in (half_word, chain_word):
        for delta, exact in zip(deltas, exhaustive_failure(word, m, deltas)):
            checks.append(exact <= sampling_failure_bound(delta, m, n))

    # Monte Carlo at n=10^4, m=500 with 10^5 subset draws per setting.
    n, m, trials = 10**4, 500, 10**5
    half_word = np.tile(np.array([1, 0], dtype=np.uint8), n // 2)
    chain_word = (sample_rounds(PRESET, n, rng) & 1).astype(np.uint8)
    for index, word in enumerate((half_word, chain_word)):
        for delta in (0.05, 0.1):
            freq = empirical_failure_bits(word, m, delta, trials=trials, seed=100 + index)
            checks.append(freq <= sampling_failure_bound(delta, m, n))
    elapsed = time.perf_counter() - start
    _line(
        6,
        all(checks) and elapsed < 60.0,
        f"failure frequency under the analytic bound in {len(checks)}/{len(checks)} settings "
        f"(exhaustive 20/10 and 10^5-trial MC at 10^4/500), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_07_baseline_reduction():
    result = check_baseline_identity()
    _line(
        7,
        result.ok,
        f"zero-credit rate equals the baseline exactly on the 0..0.49 grid, noise tolerances "
        f"within 2 ulp of {BB84_ASYMPTOTIC_THRESHOLD:.6f}: {result.detail}",
    )


def test_criterion_08_rate_curve_families(tmp_path):
    # Finite rate against the round count, evaluation preset.
    header, rows = _run_csv(tmp_path, "by_rounds.csv", ["rate-finite", "--sweep", "N"])
    col = {name: i for i, name in enumerate(header)}
    ordered = all(
        float(r[col["rate_h4"]]) > float(r[col["rate_h2"]]) > float(r[col["rate_h0"]])
        for r in rows
    )
    beats_baseline = all(
        float(r[col[f"rate_h{k}"]]) > float(r[col["rate_bb84f"]])
        for r in rows
        for k in (2, 4)
        if float(r[col[f"rate_h{k}"]]) > 0.0 and float(r[col["rate_bb84f"]]) > 0.0
    )

    def first_positive(name):
        for r in rows:
            if float(r[col[name]]) > 0.0:
                return int(r[col["N"]])
        return None

    n_h0, n_base = first_positive("rate_h0"), first_positive("rate_bb84f")
    slower_start = n_h0 is not None and n_base is not None and n_h0 > n_base

    # Finite rate against observed noise at two round budgets.
    finite_thresholds = {}
    for rounds in ("1e7", "1e8"):
        header_f, rows_f = _run_csv(
            tmp_path, f"by_noise_{rounds}.csv", ["rate-finite", "--sweep", "qx", "--rounds", rounds]
        )
        col_f = {name: i for i, name in enumerate(header_f)}
        thresholds = []
        for k in (0, 2, 4):
            positive = [float(r[col_f["qx"]]) for r in rows_f if float(r[col_f[f"rate_h{k}"]]) > 0.0]
            thresholds.append(max(positive) if positive else -1.0)
        finite_thresholds[rounds] = thresholds
    noise_ordering = all(t[0] < t[1] < t[2] for t in finite_thresholds.values())

    # Asymptotic sweep: same ordering, and the zero-honest column is the baseline.
    header_a, rows_a = _run_csv(tmp_path, "asymptotic.csv", ["rate-asymptotic"])
    col_a = {name: i for i, name in enumerate(header_a)}
    identical = all(r[col_a["rate_h0"]] == r[col_a["rate_bb84a"]] for r in rows_a)
    threshold_row = rows_a[-1]
    assert threshold_row[0] == "threshold"
    asym_thresholds = [float(threshold_row[col_a[f"rate_h{k}"]]) for k in (0, 2, 4)]
    asym_ordering = asym_thresholds[0] < asym_thresholds[1] < asym_thresholds[2]

    ok = ordered and beats_baseline and slower_start and noise_ordering and identical and asym_ordering
    _line(
        8,
        ok,
        "curve families reproduce: honest-count ordering at every round count "
        f"({ordered}), honest curves above the baseline where both positive ({beats_baseline}), "
        f"zero-honest crossover at N={n_h0} after the baseline's N={n_base}, "
        f"noise thresholds rise with honest count at 1e7/1e8 rounds ({noise_ordering}), "
        f"asymptotic zero-honest column identical to the baseline ({identical}) with "
        f"thresholds {asym_thresholds[0]:.4f} < {asym_thresholds[1]:.4f} < {asym_thresholds[2]:.4f}",
    )


def test_criterion_09_simulation_statistics():
    m = 70_000
    sigma = math.sqrt(QX_PRESET * (1.0 - QX_PRESET) / m)
    params = RateParams(n=10**6, m=m, epsilon=1e-36, p_star=noise_parameter(PRESET))
    hits = 0
    for seed in range(100):
        report = simulate_e91(PRESET, params, seed)
        if abs(report.qx_hat - QX_PRESET) <= 3.0 * sigma:
            hits += 1
    deterministic = simulate_e91(PRESET, params, 0) == simulate_e91(PRESET, params, 0)
    _line(
        9,
        hits >= 99 and deterministic,
        f"observed noise within 3 binomial deviations of {QX_PRESET:.5f} in {hits}/100 "
        f"seeded runs (need >= 99); identical seeds reproduce reports bit for bit: {deterministic}",
    )


def test_criterion_10_failure_term_spot_check():
    ledger = epsilon_ledger(1e-36)
    pa_ok = math.isclose(ledger.epsilon_pa, EPSILON_PA_1E36, rel_tol=1e-12)
    fail_ok = math.isclose(ledger.epsilon_fail, EPSILON_FAIL_1E36, rel_tol=1e-12)
    magnitude_ok = 1e-12 <= ledger.epsilon_fail < 1e-11 and 1e-12 <= ledger.epsilon_pa < 1e-11
    _line(
        10,
        pa_ok and fail_ok and magnitude_ok,
        f"ledger at 1e-36: privacy-amplification term {ledger.epsilon_pa:.3e} (~5.04e-12), "
        f"estimation-failure term {ledger.epsilon_fail:.3e} (~2.52e-12), both of order 1e-12",
    )
