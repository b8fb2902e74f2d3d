"""Monte Carlo: per-link sampler law, count-level simulation, concentration scans."""

import math
import random
import re
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from chainrate.montecarlo import (
    ConcentrationSummary,
    MCReport,
    _BLOCK,
    _binomial_log_pmf,
    binomial,
    multinomial,
    sample_rounds,
    simulate_e91,
    verify_concentration,
)
from chainrate.bell import BellDiagonal
from chainrate.keyrate import RateParams
from chainrate.literal import empirical_failure_bits, exhaustive_failure
from chainrate.noise import ChainSpec, end_to_end_dist, noise_parameter, noise_report, observed_qx, uniform_chain
from chainrate.sampling import (
    MAX_TRIALS,
    deviation_for_failure,
    hoeffding_deviation,
)
from chainrate.verify import _SKEWED
from frozen import PRESET

# qx ~0.44 and p* ~0.38: at epsilon 0.9 both bounds are violated in
# ~6% (subset) and ~19% (mean) of trials, so a wrong count law shows.
NOISY = uniform_chain(5, 0.3, 2, 2)
LOOSE_EPSILON = 0.9


def _params(spec, n, m, epsilon=1e-36, **fields):
    """``RateParams`` crediting ``spec``'s computed honest-zone parameter."""
    return RateParams(n=n, m=m, epsilon=epsilon, p_star=noise_parameter(spec), **fields)


def test_concentration_trials_validation():
    params = _params(PRESET, 100, 50, epsilon=0.05)
    assert verify_concentration(PRESET, params, MAX_TRIALS, seed=0).trials == MAX_TRIALS
    with pytest.raises(ValueError, match="trials must be in"):
        verify_concentration(PRESET, params, 0, seed=0)
    with pytest.raises(ValueError, match="trials must be in"):
        verify_concentration(PRESET, params, MAX_TRIALS + 1, seed=0)


def test_runs_take_only_rate_params():
    # Both runs skip the (n, m, epsilon) check that RateParams made; a look-alike never passed it.
    look_alike = namedtuple("LookAlike", RateParams._fields)(*_params(PRESET, 100, 50))
    with pytest.raises(TypeError, match="^simulate_e91 needs RateParams, got LookAlike$"):
        simulate_e91(PRESET, look_alike, seed=0)
    with pytest.raises(TypeError, match="^verify_concentration needs RateParams, got LookAlike$"):
        verify_concentration(PRESET, look_alike, 10, seed=0)


def test_sample_rounds_matches_the_analytic_law():
    spec = uniform_chain(2, 0.2, 1, 0)
    n = 200_000
    draws = sample_rounds(spec, n, np.random.default_rng(5))
    expected = end_to_end_dist(spec).probs
    for index in range(4):
        freq = float((draws == index).mean())
        sigma = math.sqrt(expected[index] * (1 - expected[index]) / n)
        assert abs(freq - expected[index]) < 4.5 * sigma


def test_sample_rounds_noiseless_chain_is_silent():
    spec = uniform_chain(3, 0.0, 1, 1)
    draws = sample_rounds(spec, 1000, np.random.default_rng(1))
    assert not draws.any()


def test_sample_rounds_validation():
    with pytest.raises(ValueError):
        sample_rounds(PRESET, 0, np.random.default_rng(0))


def _one_shot_rounds(spec, rounds, rng):
    """The per-link sampler drawing each link's uniforms in one ``rng.random(rounds)`` call."""
    folded = np.zeros(rounds, dtype=np.uint8)
    for link in spec.links:
        cdf = np.cumsum(np.asarray(link.probs, dtype=float))
        cdf[-1] = 1.0
        draws = np.searchsorted(cdf, rng.random(rounds), side="right")
        folded ^= draws.astype(np.uint8)
    return folded


_LINK_POOL = (
    BellDiagonal((0.88, 0.07, 0.04, 0.01)),
    BellDiagonal((0.5, 0.0, 0.5, 0.0)),
    BellDiagonal((0.7, 0.1, 0.1, 0.1)),
    BellDiagonal((0.0, 0.25, 0.25, 0.5)),
)
#: 2- to 6-link chains over unequal links (a ChainSpec has at least two), and a noiseless one.
STREAM_CHAINS = [
    ChainSpec(links - 1, 0, 0, tuple(_LINK_POOL[i % len(_LINK_POOL)] for i in range(links))) for links in range(2, 7)
] + [uniform_chain(3, 0.0, 1, 1)]


@pytest.mark.parametrize("rounds", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 200_000])
def test_sample_rounds_draws_the_one_shot_stream(rounds):
    # Blocked draws are the same doubles in the same order: same symbols, same generator state after.
    for seed in range(3):
        for spec in STREAM_CHAINS:
            blocked_rng, one_shot_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            symbols = sample_rounds(spec, rounds, blocked_rng)
            assert symbols.dtype == np.uint8
            assert np.array_equal(symbols, _one_shot_rounds(spec, rounds, one_shot_rng))
            assert blocked_rng.bit_generator.state == one_shot_rng.bit_generator.state


def test_sample_rounds_holds_one_byte_per_round():
    # numpy reports its buffers to tracemalloc. Drawing each link in one call peaks at ~24 MiB on this input.
    rounds = 10**6
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        sample_rounds(_SKEWED, rounds, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rounds + 2**20


def test_sample_rounds_deterministic():
    a = sample_rounds(PRESET, 500, np.random.default_rng(42))
    b = sample_rounds(PRESET, 500, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_simulate_is_bit_for_bit_deterministic():
    params = _params(PRESET, 20_000, 1_400)
    first = simulate_e91(PRESET, params, seed=31)
    second = simulate_e91(PRESET, params, seed=31)
    assert isinstance(first, MCReport)
    assert first == second


def test_simulate_depends_on_the_seed():
    params = _params(PRESET, 20_000, 1_400)
    assert simulate_e91(PRESET, params, seed=31) != simulate_e91(PRESET, params, seed=32)


def test_simulate_report_statistics():
    report = simulate_e91(PRESET, _params(PRESET, 10**5, 7_000), seed=2)
    qx = observed_qx(PRESET)
    sigma = math.sqrt(qx * (1 - qx) / report.sample_size)
    assert abs(report.qx_hat - qx) < 5 * sigma
    assert report.qx_analytic == qx
    assert report.p_star > 0.0
    # At the default epsilon the tolerance dwarfs any realistic fluctuation.
    assert report.sampling_violations == 0
    assert report.rate_from_observation.delta > 0.0


def test_multinomial_counts_follow_the_analytic_law():
    # The simulator's draw on ``_SKEWED``'s unequal weights, so counts that land in the wrong error cell show.
    n = 200_000
    expected = end_to_end_dist(_SKEWED).probs
    counts = multinomial(n, expected, random.Random(5))
    assert sum(counts) == n
    for index in range(4):
        sigma = math.sqrt(expected[index] * (1 - expected[index]) / n)
        assert abs(counts[index] / n - expected[index]) < 4.5 * sigma


#: Upper 1e-4 quantile of the standard normal, for the chi-square gates below.
Z_P1E4 = 3.719


def _chi2_gate(dof):
    """Chi-square quantile at upper tail 1e-4 (Wilson-Hilferty)."""
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + Z_P1E4 * math.sqrt(h)) ** 3


def _binned_chi2(counts, pmf, draws):
    """Pearson chi-square with adjacent cells pooled until each expects >= 5 draws."""
    cells, observed, expected = [], 0, 0.0
    for hits, prob in zip(counts, pmf):
        observed += hits
        expected += prob * draws
        if expected >= 5.0:
            cells.append([observed, expected])
            observed, expected = 0, 0.0
    cells[-1][0] += observed
    cells[-1][1] += expected
    return sum((o - e) ** 2 / e for o, e in cells), len(cells) - 1


@pytest.mark.parametrize("n,p", [
    (1, 0.3),  # n = 1
    (1, 0.8),  # n = 1, reflected
    (20, 0.2),  # geometric, n p = 4
    (39, 0.25),  # geometric, n p = 9.75
    (40, 0.25),  # BTRS at its threshold, n p = 10
    (200, 0.5),  # BTRS, n p = 100
    (30, 0.9),  # reflected to geometric, n (1 - p) = 3
    (150, 0.7),  # reflected to BTRS, n (1 - p) = 45
])
def test_binomial_matches_the_exact_pmf(n, p):
    draws = 20_000
    rng = random.Random(17)
    counts = [0] * (n + 1)
    for _ in range(draws):
        counts[binomial(n, p, rng)] += 1
    pmf = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    chi2, dof = _binned_chi2(counts, pmf, draws)
    assert dof >= 1
    assert chi2 <= _chi2_gate(dof)


def test_binomial_degenerate_cases():
    rng = random.Random(0)
    assert all(binomial(50, 0.0, rng) == 0 for _ in range(100))
    assert all(binomial(50, 1.0, rng) == 50 for _ in range(100))
    assert all(binomial(0, p, rng) == 0 for p in (0.0, 0.3, 0.7, 1.0))
    assert binomial(1, 0.0, rng) == 0 and binomial(1, 1.0, rng) == 1
    assert binomial(10**12, 0.0, rng) == 0 and binomial(10**12, 1.0, rng) == 10**12
    for n, p in [(-1, 0.5), (5, -0.1), (5, 1.1), (5, float("nan"))]:
        with pytest.raises(ValueError):
            binomial(n, p, rng)
    for n in (10.5, True):  # a float would draw a variate, and a bool is no trial count
        with pytest.raises(TypeError, match=f"^binomial needs an int n, got {n!r}$"):
            binomial(n, 0.3, rng)


def test_multinomial_cells_stay_valid_when_a_share_rounds_above_one():
    # After cell 0 the unassigned mass is 1 - 1e-13, below cell 1's 1.0, so
    # the conditional share rounds above 1 and must be clamped.
    rng = random.Random(3)
    for probs in [(1e-13, 1.0, 0.0, 0.0), (0.3, 0.3, 0.3, 0.1 + 1e-13), (0.0, 0.0, 0.0, 1.0)]:
        for n in (0, 1, 10, 10**6, 10**12):
            counts = multinomial(n, probs, rng)
            assert len(counts) == 4
            assert all(c >= 0 for c in counts) and sum(counts) == n


#: Weights that are not a distribution, each with the message BellDiagonal refuses it with.
REFUSED_WEIGHTS = [
    ((0.5, 0.7, -0.2, 0.0), "probabilities must be >= 0, got -0.2"),  # sums to 1 with a negative weight
    ((0.5, float("nan"), 0.5, 0.0), "probabilities must be >= 0, got nan"),
    ((0.5, 0.5, 0.0, 1e-11), "probabilities must sum to 1 within 1e-12, got 1.00000000001"),
    ((0.5, 0.5 - 1e-11, 0.0, 0.0), "probabilities must sum to 1 within 1e-12, got 0.99999999999"),
    ((0.5, float("inf"), 0.0, 0.0), "probabilities must sum to 1 within 1e-12, got inf"),
    ((), "expected 4 probabilities, got 0"),
]


@pytest.mark.parametrize("probs,message", REFUSED_WEIGHTS, ids=[f"probs{i}" for i in range(len(REFUSED_WEIGHTS))])
def test_multinomial_refuses_weights_that_are_not_a_distribution(probs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        multinomial(100, probs, random.Random(0))


def test_binomial_log_pmf_matches_math_comb_at_small_n():
    for n in (1, 2, 7, 40, 120):
        for p in (0.01, 0.25, 0.5, 0.9):
            for k in range(n + 1):
                exact = math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p)
                assert abs(_binomial_log_pmf(n, p, k) - exact) <= 1e-11


@pytest.mark.parametrize("p", [0.08, 0.5, 1e-5])
def test_btrs_density_ratio_is_exact_at_a_trillion_rounds(p):
    # BTRS accepts on log f(k) / f(mode); lgamma differences are off by ~1e-3 here.
    mpmath = pytest.importorskip("mpmath")
    n = 10**12
    mode = math.floor((n + 1) * p)
    sigma = math.sqrt(n * p * (1.0 - p))

    with mpmath.workdps(50):
        prob = mpmath.mpf(p)

        def exact(k):
            return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
                    + k * mpmath.log(prob) + (n - k) * mpmath.log1p(-prob))

        at_mode = exact(mode)
        for offset in (-6, -3, -1, 0, 1, 3, 6):
            for k in (mode + round(offset * sigma), mode + offset):
                ratio = _binomial_log_pmf(n, p, k) - _binomial_log_pmf(n, p, mode)
                assert abs(ratio - float(exact(k) - at_mode)) <= 1e-9


def test_simulate_p_star_override_feeds_the_rate():
    # Epsilon mild enough that the entropy bound is not saturated at this size.
    report = simulate_e91(PRESET, RateParams(n=10**4, m=700, epsilon=1e-6, p_star=0.0), seed=2)
    assert report.p_star == 0.0
    report2 = simulate_e91(PRESET, RateParams(n=10**4, m=700, epsilon=1e-6, p_star=0.04), seed=2)
    assert report2.p_star == 0.04
    assert report2.rate_from_observation.rate > report.rate_from_observation.rate


def test_concentration_honest_words_within_bounds():
    summary = verify_concentration(PRESET, _params(PRESET, 2_000, 140, epsilon=0.05), 1_500, seed=0)
    assert summary.ok
    assert summary.sampling_ok and summary.hoeffding_ok
    assert summary.trials == 1_500
    assert summary.delta > 0.0 and summary.delta_prime > 0.0
    assert summary.sampling_violations / summary.trials <= summary.sampling_limit


def test_concentration_adversarial_word_within_bounds():
    # Half-weight words maximize the subset estimator's variance.
    n = 2_000
    word = ([1, 0] * (n // 2))[:n]
    trials = 1_500
    delta = deviation_for_failure(0.05, 140, n)
    frequency = empirical_failure_bits(word, 140, delta, trials, seed=3)
    assert frequency <= 0.05**2 + 3.0 * math.sqrt(0.05**2 * (1.0 - 0.05**2) / trials)


def test_concentration_is_deterministic():
    params = _params(PRESET, 500, 35, epsilon=0.1)
    assert verify_concentration(PRESET, params, 200, seed=11) == verify_concentration(PRESET, params, 200, seed=11)


def test_summary_ok_property():
    base = dict(
        trials=10,
        rounds=100,
        sample_size=10,
        epsilon=0.1,
        p_star=0.0,
        delta=0.1,
        delta_prime=0.1,
        sampling_violations=0,
        sampling_bound=0.01,
        sampling_limit=0.1,
        hoeffding_violations=0,
        hoeffding_bound=0.1,
        hoeffding_limit=0.2,
    )
    assert ConcentrationSummary(**base, sampling_ok=True, hoeffding_ok=True).ok
    assert not ConcentrationSummary(**base, sampling_ok=True, hoeffding_ok=False).ok
    assert not ConcentrationSummary(**base, sampling_ok=False, hoeffding_ok=True).ok


# Count-level scans against a literal per-trial reference: a word of phase
# bits (i.i.d. at qx, or fixed), an rng.choice subset, rng.random flips.
SCAN_N, SCAN_M = 2_000, 140
HALF_WORD = np.tile(np.array([1, 0], dtype=np.uint8), SCAN_N // 2)
COUNT_TRIALS = 100_000
LITERAL_TRIALS = 10_000


def _literal_scan(word, seed):
    """(subset violations, mean violations) over LITERAL_TRIALS trials on NOISY."""
    n, m = SCAN_N, SCAN_M
    delta = deviation_for_failure(LOOSE_EPSILON, m, n)
    delta_prime = hoeffding_deviation(LOOSE_EPSILON, m)
    report = noise_report(NOISY)
    qx, p_star = report.observed_qx, report.p_star
    rng = np.random.default_rng(seed)
    sampling = hoeffding = 0
    for _ in range(LITERAL_TRIALS):
        bits = word if word is not None else (rng.random(n) < qx).astype(np.uint8)
        picked = bits[rng.choice(n, size=m, replace=False)]
        w_sample = picked.sum() / m
        w_rest = (bits.sum() - picked.sum()) / (n - m)
        sampling += abs(w_sample - w_rest) > delta
        flipped = (rng.random(m) < p_star) ^ picked.astype(bool)
        expected = w_sample * (1 - p_star) + (1 - w_sample) * p_star
        hoeffding += abs(flipped.mean() - expected) > delta_prime
    return int(sampling), int(hoeffding)


def _two_proportion_z(hits_a, n_a, hits_b, n_b):
    pooled = (hits_a + hits_b) / (n_a + n_b)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
    return (hits_a / n_a - hits_b / n_b) / se


def test_concentration_count_law_matches_literal_trials():
    # The honest scan; a fixed word's subset law is the next test's.
    sampling, hoeffding = _literal_scan(None, seed=22)
    params = _params(NOISY, SCAN_N, SCAN_M, epsilon=LOOSE_EPSILON)
    summary = verify_concentration(NOISY, params, COUNT_TRIALS, seed=21)
    assert summary.hoeffding_violations > 0.1 * COUNT_TRIALS
    assert abs(_two_proportion_z(summary.hoeffding_violations, COUNT_TRIALS, hoeffding, LITERAL_TRIALS)) <= 4.0
    assert summary.sampling_violations > 0.03 * COUNT_TRIALS
    assert abs(_two_proportion_z(summary.sampling_violations, COUNT_TRIALS, sampling, LITERAL_TRIALS)) <= 4.0


def test_empirical_failure_count_law_matches_literal_subsets():
    delta = deviation_for_failure(LOOSE_EPSILON, SCAN_M, SCAN_N)
    freq = empirical_failure_bits(HALF_WORD, SCAN_M, delta, trials=COUNT_TRIALS, seed=23)
    sampling, _ = _literal_scan(HALF_WORD, seed=24)
    assert freq > 0.03
    assert abs(_two_proportion_z(round(freq * COUNT_TRIALS), COUNT_TRIALS, sampling, LITERAL_TRIALS)) <= 4.0


def test_injected_word_scan_matches_the_exact_subset_tail():
    # At n = 20 the exact failure probability of a fixed word is enumerable;
    # a with-replacement count law is ~0.34 here instead of ~0.18.
    word = [1] * 10 + [0] * 10
    trials = 20_000
    delta = deviation_for_failure(LOOSE_EPSILON, 10, 20)
    frequency = empirical_failure_bits(word, 10, delta, trials, seed=25)
    (exact,) = exhaustive_failure(word, 10, (delta,))
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(frequency - exact) <= 4 * sigma
