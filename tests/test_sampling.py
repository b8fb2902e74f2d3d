"""Estimation bounds: inverses, frozen reference values, empirical agreement."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrate.sampling import (
    MAX_TRIALS,
    MAX_ROUNDS,
    MIN_EPSILON,
    EpsilonLedger,
    deviation_for_failure,
    empirical_failure_bits,
    epsilon_ledger,
    exhaustive_failure,
    hoeffding_deviation,
    require_admissible,
    sampling_failure_bound,
    subset_deviates,
)
from frozen import (
    DELTA_7E5_1E7,
    DELTA_7E6_1E8,
    DPRIME_7E5,
    DPRIME_7E6,
    EPSILON_FAIL_1E36,
    EPSILON_PA_1E36,
    SMOOTHING_1E36,
)


def test_params_validation():
    require_admissible(epsilon=0.1, m=50, n=100)  # m = n/2 is admissible
    require_admissible(epsilon=MIN_EPSILON, m=1, n=MAX_ROUNDS)
    for epsilon, m, n in (
        (0.1, 1, 1),
        (0.1, 0, 100),
        (0.1, 51, 100),
        (0.0, 50, 100),
        (1.0, 50, 100),
        (MIN_EPSILON / 2, 50, 100),
        (float("nan"), 50, 100),
        (0.1, 1, MAX_ROUNDS + 1),
    ):
        with pytest.raises(ValueError):
            require_admissible(epsilon=epsilon, m=m, n=n)
    require_admissible(trials=1)
    require_admissible(trials=MAX_TRIALS)
    for trials in (0, MAX_TRIALS + 1):
        with pytest.raises(ValueError, match="trials must be in"):
            require_admissible(trials=trials)


def test_frozen_deviations():
    assert math.isclose(deviation_for_failure(1e-36, 700_000, 10**7), DELTA_7E5_1E7, rel_tol=1e-12)
    assert math.isclose(deviation_for_failure(1e-36, 7_000_000, 10**8), DELTA_7E6_1E8, rel_tol=1e-12)
    assert math.isclose(hoeffding_deviation(1e-36, 700_000), DPRIME_7E5, rel_tol=1e-12)
    assert math.isclose(hoeffding_deviation(1e-36, 7_000_000), DPRIME_7E6, rel_tol=1e-12)


@settings(max_examples=200)
@given(
    st.floats(min_value=1e-40, max_value=1e-2),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=3, max_value=10**8),
)
def test_bound_inverts_deviation(epsilon, m, n):
    if 2 * m > n:
        m = n // 2
    delta = deviation_for_failure(epsilon, m, n)
    assert math.isclose(sampling_failure_bound(delta, m, n), epsilon**2, rel_tol=1e-12)


@settings(max_examples=200)
@given(
    st.floats(min_value=1e-40, max_value=0.5),
    st.integers(min_value=1, max_value=10**7),
)
def test_hoeffding_inverts(epsilon, m):
    delta_prime = hoeffding_deviation(epsilon, m)
    assert math.isclose(2.0 * math.exp(-2.0 * delta_prime**2 * m), epsilon, rel_tol=1e-12)


def test_bound_caps_at_one():
    assert sampling_failure_bound(1e-6, 10, 100) == 1.0


def test_bound_accepts_vacuous_tolerance():
    # delta above 1 keeps the bound/inverse pair total over the epsilon range.
    value = sampling_failure_bound(1.7, 10, 100)
    assert 0.0 < value < 1.0


def _serfling(delta, m, n):
    # Serfling (1974), Cor. 1.1, two-sided, at t = delta * (n - m) / n from the word's mean.
    return 2.0 * math.exp(-2.0 * m * delta**2 * (n - m) ** 2 / (n * (n - m + 1)))


def test_bound_is_serfling_at_half_split_and_looser_below():
    rng = random.Random(12)
    cases = [(1e-2, 1, 2), (1e-6, 50, 100), (1e-40, 1, MAX_ROUNDS), (1e-40, MAX_ROUNDS // 2, MAX_ROUNDS)]
    for _ in range(50_000):
        n = max(2, round(10 ** rng.uniform(math.log10(2), 12)))
        m = n // 2 if rng.random() < 0.5 else min(n // 2, round(10 ** rng.uniform(0, math.log10(n // 2))))
        cases.append((10 ** rng.uniform(-40, -2), m, n))
    for epsilon, m, n in cases:
        delta = deviation_for_failure(epsilon, m, n)
        bound, serfling = sampling_failure_bound(delta, m, n), _serfling(delta, m, n)
        assert bound >= serfling * (1 - 1e-12), (epsilon, m, n)
        if 2 * m == n:
            assert math.isclose(bound, serfling, rel_tol=1e-12), (epsilon, m, n)
    for m, n in ((0, 100), (51, 100)):
        with pytest.raises(ValueError, match="m"):
            sampling_failure_bound(0.1, m, n)


def test_bound_holds_exactly_at_half_split():
    # Exact hypergeometric P(|w(sample) - w(rest)| >= d) for every weight and
    # every deviation d the word can attain; at m = n/2 a sample holding k of
    # the word's ones deviates by |2k - ones| / m.
    for n in range(4, 41, 2):
        m = n // 2
        for ones in range(n + 1):
            mass = Counter()
            for k in range(max(0, ones - m), min(ones, m) + 1):
                mass[abs(2 * k - ones)] += math.comb(ones, k) * math.comb(n - ones, m - k)
            tail = 0
            for gap in sorted(mass, reverse=True):
                tail += mass[gap]
                if gap:
                    assert tail / math.comb(n, m) <= sampling_failure_bound(gap / m, m, n), (n, ones, gap)


def test_bound_rejects_half_split():
    # The split's edge is the first m past n/2: m = n/2 itself is proved (see the Serfling test).
    assert sampling_failure_bound(0.5, 50, 100) < 1.0
    for m, n in ((51, 100), (50, 99), (2, 3)):
        with pytest.raises(ValueError):
            sampling_failure_bound(0.1, m, n)


@pytest.mark.parametrize("delta", [0.0, -0.2, float("inf"), float("nan")])
def test_bound_rejects_bad_delta(delta):
    with pytest.raises(ValueError):
        sampling_failure_bound(delta, 10, 100)


def test_bound_monotone_in_delta_and_m():
    assert sampling_failure_bound(0.3, 100, 1000) < sampling_failure_bound(0.2, 100, 1000)
    assert sampling_failure_bound(0.2, 400, 1000) < sampling_failure_bound(0.2, 100, 1000)


def test_deviation_accepts_half_split():
    # The inverse is defined up to m = n/2, as the bound is.
    assert deviation_for_failure(1e-6, 50, 100) > 0.0


def test_hoeffding_validation():
    with pytest.raises(ValueError):
        hoeffding_deviation(1e-6, 0)
    with pytest.raises(ValueError):
        hoeffding_deviation(0.0, 10)


def test_epsilon_ledger_frozen_values():
    ledger = epsilon_ledger(1e-36)
    assert isinstance(ledger, EpsilonLedger)
    assert math.isclose(ledger.epsilon_pa, EPSILON_PA_1E36, rel_tol=1e-12)
    assert math.isclose(ledger.epsilon_fail, EPSILON_FAIL_1E36, rel_tol=1e-12)
    assert math.isclose(ledger.smoothing, SMOOTHING_1E36, rel_tol=1e-12)


@given(st.floats(min_value=1e-40, max_value=1e-4))
def test_epsilon_ledger_structure(epsilon):
    ledger = epsilon_ledger(epsilon)
    cube_root = (2.0 * epsilon) ** (1.0 / 3.0)
    assert math.isclose(ledger.epsilon_fail, 2.0 * cube_root, rel_tol=1e-12)
    assert math.isclose(ledger.epsilon_pa, 17.0 * epsilon + 4.0 * cube_root, rel_tol=1e-12)
    assert math.isclose(ledger.smoothing, 8.0 * epsilon + 2.0 * cube_root, rel_tol=1e-12)
    assert ledger.epsilon_fail < ledger.epsilon_pa


def test_epsilon_ledger_rejects_vacuous_settings():
    with pytest.raises(ValueError):
        epsilon_ledger(0.02)  # derived terms would exceed 1
    with pytest.raises(ValueError):
        epsilon_ledger(0.0)
    with pytest.raises(ValueError):
        epsilon_ledger(1.0)


def test_exhaustive_failure_tiny_case_by_hand():
    # Word 1100, sample 2 of 4, tolerance 0.4: 2 of the 6 subsets fail.
    assert exhaustive_failure([1, 1, 0, 0], 2, (0.4,)) == pytest.approx((2.0 / 6.0,))


def test_deviation_equal_to_delta_is_not_counted():
    # Word 1100, sample 2 of 4: the samples 11 and 00 deviate from the rest by exactly 1.0.
    assert not subset_deviates(2, 0, 2, 4, 1.0)
    assert subset_deviates(2, 0, 2, 4, 0.75)
    assert subset_deviates(np.array([2, 1]), np.array([0, 1]), 2, 4, 0.75).tolist() == [True, False]
    assert exhaustive_failure([1, 1, 0, 0], 2, (1.0, 0.75)) == (0.0, pytest.approx(2.0 / 6.0))
    assert empirical_failure_bits([1, 0], 1, 1.0, trials=100, seed=0) == 0.0


def test_exhaustive_failure_zero_word_never_fails():
    assert exhaustive_failure([0] * 10, 5, (0.01,)) == (0.0,)


def test_exhaustive_guard():
    with pytest.raises(ValueError):
        exhaustive_failure([0, 1] * 20, 20, (0.1,))


def test_exhaustive_validation():
    with pytest.raises(ValueError):
        exhaustive_failure([1, 0], 2, (0.1,))  # nothing left to compare against
    with pytest.raises(ValueError):
        exhaustive_failure([1, 0, 1], 2, (0.1,))  # more than half revealed
    with pytest.raises(ValueError):
        exhaustive_failure([2, 0, 1], 1, (0.1,))
    with pytest.raises(ValueError):
        exhaustive_failure([], 1, (0.1,))


def _hypergeometric_failure(n, m, ones, delta):
    failing = sum(
        math.comb(ones, k) * math.comb(n - ones, m - k)
        for k in range(m + 1)
        if abs(k / m - (ones - k) / (n - m)) > delta
    )
    return failing / math.comb(n, m)


@pytest.mark.parametrize("n, m", [(24, 12), (20, 10), (9, 4)])
def test_exhaustive_failure_equals_hypergeometric_counts(n, m):
    # The enumeration's ones-in-sample histogram must be C(K, k) * C(n - K, m - k)
    # for a word of weight K wherever its ones sit, so the fractions are equal
    # floats. This certifies the exact-tail formula from the literal oracle.
    deltas = (0.15, 0.3, 0.45)
    rng = random.Random(n)
    for ones in range(n + 1):
        positions = set(rng.sample(range(n), ones))
        word = [int(i in positions) for i in range(n)]
        expected = tuple(_hypergeometric_failure(n, m, ones, delta) for delta in deltas)
        assert exhaustive_failure(word, m, deltas) == expected, f"weight {ones}"


def _one_pass_failure(bits, m, deltas):
    """The single pass over all subsets that exhaustive_failure replaced, kept as its float-for-float reference."""
    n, total_ones = len(bits), sum(bits)
    histogram = Counter(map(sum, itertools.combinations(bits, m)))
    return tuple(
        sum(count for ones, count in histogram.items() if subset_deviates(ones, total_ones - ones, m, n, delta))
        / math.comb(n, m)
        for delta in deltas
    )


SPLIT_DELTAS = (0.05, 0.15, 0.3, 0.45, 0.7)


def test_split_enumeration_is_float_identical_to_one_pass_on_every_small_word():
    for n in range(2, 11):
        for word in itertools.product((0, 1), repeat=n):
            for m in range(1, n // 2 + 1):
                assert exhaustive_failure(word, m, SPLIT_DELTAS) == _one_pass_failure(word, m, SPLIT_DELTAS), (word, m)


@pytest.mark.parametrize("n", range(11, 21))
def test_split_enumeration_is_float_identical_to_one_pass_on_seeded_words(n):
    rng = random.Random(n)
    positions = set(rng.sample(range(n), rng.randint(0, n)))
    word = [int(i in positions) for i in range(n)]
    for m in range(1, n // 2 + 1):
        assert exhaustive_failure(word, m, SPLIT_DELTAS) == _one_pass_failure(word, m, SPLIT_DELTAS), (word, m)


def test_empirical_failure_is_deterministic():
    bits = [1, 0] * 50
    a = empirical_failure_bits(bits, 20, 0.15, trials=500, seed=7)
    b = empirical_failure_bits(bits, 20, 0.15, trials=500, seed=7)
    assert a == b


def test_empirical_matches_exhaustive_within_noise():
    bits = [1] * 6 + [0] * 6
    (exact,) = exhaustive_failure(bits, 6, (0.3,))
    trials = 20_000
    estimate = empirical_failure_bits(bits, 6, 0.3, trials=trials, seed=123)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(estimate - exact) < 5 * sigma


def test_empirical_validation():
    with pytest.raises(ValueError):
        empirical_failure_bits([1, 0, 1], 3, 0.1, trials=10, seed=0)
    with pytest.raises(ValueError):
        empirical_failure_bits([1, 0, 1], 1, 0.1, trials=0, seed=0)
    with pytest.raises(ValueError):
        empirical_failure_bits([1, 0, 1], 1, 0.1, trials=MAX_TRIALS + 1, seed=0)


def test_bits_conversion_rejects_non_bits():
    with pytest.raises(ValueError):
        empirical_failure_bits(np.array([0, 1, 3]), 1, 0.1, trials=1, seed=0)


ESTIMATORS = {
    "exhaustive": lambda word: exhaustive_failure(word, 1, (0.1,)),
    "empirical": lambda word: empirical_failure_bits(word, 1, 0.1, trials=1, seed=0),
}


@pytest.mark.parametrize("estimator", ESTIMATORS.values(), ids=ESTIMATORS.keys())
@pytest.mark.parametrize("word, message", [
    ([], "nonempty"),
    ([[0, 1]], "one-dimensional"),
    (np.array([[0, 1], [1, 0]]), "one-dimensional"),
    ([0, 1, -1], "0 or 1"),
    ([0, 0.5], "0 or 1"),
], ids=["empty", "nested", "2d-array", "negative", "fraction"])
def test_estimators_reject_malformed_words(estimator, word, message):
    with pytest.raises(ValueError, match=message):
        estimator(word)


BAD_DELTA_ESTIMATORS = {
    "exhaustive": lambda delta: exhaustive_failure([1, 0, 1, 0], 2, (0.1, delta)),
    "empirical": lambda delta: empirical_failure_bits([1, 0, 1, 0], 2, delta, trials=1, seed=0),
}


@pytest.mark.parametrize("estimator", BAD_DELTA_ESTIMATORS.values(), ids=BAD_DELTA_ESTIMATORS.keys())
@pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
def test_estimators_reject_bad_delta(estimator, delta):
    with pytest.raises(ValueError, match="deviation tolerance must be positive and finite"):
        estimator(delta)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_])
def test_estimators_accept_numpy_words(dtype):
    word = [1, 1, 0, 0, 1, 0, 0, 0]
    array = np.array(word, dtype=dtype)
    assert exhaustive_failure(array, 3, (0.2,)) == exhaustive_failure(word, 3, (0.2,))
    assert empirical_failure_bits(array, 3, 0.2, trials=1000, seed=4) == empirical_failure_bits(word, 3, 0.2, trials=1000, seed=4)
