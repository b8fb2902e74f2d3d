"""Rate formulas: entropies, the corrected phase, finite and asymptotic bounds."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainrate.keyrate import (
    ARG_CLAMPED_HIGH,
    ARG_CLAMPED_LOW,
    BASELINE_EC_FACTOR,
    RateParams,
    asymptotic_rate,
    bb84_asymptotic,
    bb84_finite,
    binary_entropy,
    capped_entropy,
    corrected_phase,
    finite_rate,
    noise_tolerance,
)
from chainrate.noise import noise_parameter, observed_qx
from chainrate.sampling import MAX_ROUNDS
from frozen import (
    ASYM_NAMED,
    ASYM_PRESET,
    BB84_ASYMPTOTIC_THRESHOLD,
    BB84F_1E8,
    CORRECTED_NAMED,
    DELTA_7E6_1E8,
    DPRIME_7E6,
    EPSILON_FAIL_1E36,
    EPSILON_PA_1E36,
    H_011,
    P_STAR_1_1,
    P_STAR_PRESET,
    PRESET,
    RATE_1E8,
    RATE_1E8_STRICT,
)

QX = observed_qx(PRESET)
P_STAR = noise_parameter(PRESET)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_frozen_value():
    assert math.isclose(binary_entropy(0.11), H_011, rel_tol=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(p):
    assert math.isclose(binary_entropy(p), binary_entropy(1.0 - p), rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
def test_binary_entropy_domain(p):
    with pytest.raises(ValueError):
        binary_entropy(p)


def test_capped_entropy_saturates():
    assert capped_entropy(0.5) == 1.0
    assert capped_entropy(0.8) == 1.0
    assert capped_entropy(1.0) == 1.0
    assert capped_entropy(0.3) == binary_entropy(0.3)


@given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=0.0, max_value=0.999))
def test_capped_entropy_monotone(a, b):
    lo, hi = sorted((a, b))
    assert capped_entropy(lo) <= capped_entropy(hi) + 1e-15


def test_corrected_phase_identity_without_honest_credit():
    value, flags = corrected_phase(0.08, 0.0, 0.0, 0.0)
    assert value == 0.08
    assert flags == ()


def test_corrected_phase_frozen_value():
    value, flags = corrected_phase(0.08351, 0.05735, 0.0, 0.0)
    assert math.isclose(value, CORRECTED_NAMED, rel_tol=1e-12)
    assert flags == ()


def test_corrected_phase_adds_deviations_back():
    base, _ = corrected_phase(0.1, 0.02, 0.0, 0.0)
    widened, _ = corrected_phase(0.1, 0.02, 0.005, 0.003)
    assert widened > base


def test_corrected_phase_clamps_low():
    value, flags = corrected_phase(0.01, 0.3, 0.0, 0.0)
    assert value == 0.0
    assert flags == (ARG_CLAMPED_LOW,)


def test_corrected_phase_clamps_high():
    value, flags = corrected_phase(1.0, 0.0, 0.5, 0.0)
    assert value == 1.0
    assert flags == (ARG_CLAMPED_HIGH,)


def test_corrected_phase_domain():
    with pytest.raises(ValueError):
        corrected_phase(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        corrected_phase(0.1, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        corrected_phase(0.1, 0.1, -1e-9, 0.0)
    with pytest.raises(ValueError):
        corrected_phase(0.1, 0.1, 0.0, -1e-9)


def test_rate_params_validation():
    with pytest.raises(ValueError):
        RateParams(n=1, m=1, epsilon=1e-9)
    with pytest.raises(ValueError):
        RateParams(n=100, m=51, epsilon=1e-9)
    with pytest.raises(ValueError):
        RateParams(n=100, m=0, epsilon=1e-9)
    with pytest.raises(ValueError):
        RateParams(n=100, m=10, epsilon=2.0)
    with pytest.raises(ValueError):
        RateParams(n=100, m=10, epsilon=1e-9, p_star=0.5)
    with pytest.raises(ValueError):
        RateParams(n=100, m=10, epsilon=1e-9, ec_factor=0.0)
    for factor in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RateParams(n=100, m=10, epsilon=1e-9, ec_factor=factor)
    with pytest.raises(ValueError):
        RateParams(n=MAX_ROUNDS + 1, m=10, epsilon=1e-9)
    assert RateParams(n=MAX_ROUNDS, m=10, epsilon=1e-9).n == MAX_ROUNDS


def test_rate_params_replace_goes_through_the_constructor():
    params = RateParams(n=10**8, m=7 * 10**6, epsilon=1e-36)
    with pytest.raises(ValueError, match="error-correction factor must be positive and finite, got -1.0"):
        params._replace(ec_factor=-1.0)
    with pytest.raises(ValueError, match="honest-zone parameter"):
        RateParams._make((10**8, 7 * 10**6, 1e-36, 0.5, 1.2, False))
    assert params._replace(p_star=0.1) == RateParams(n=10**8, m=7 * 10**6, epsilon=1e-36, p_star=0.1)


def test_rate_params_keyword_form_keeps_its_defaults():
    # The README's form: p_star given, the leak settings left at their defaults.
    params = RateParams(n=10**8, m=7 * 10**6, epsilon=1e-36, p_star=P_STAR)
    assert (params.ec_factor, params.strict_leak) == (BASELINE_EC_FACTOR, False)
    assert RateParams(10**8, 7 * 10**6, 1e-36) == RateParams(n=10**8, m=7 * 10**6, epsilon=1e-36, p_star=0.0)
    with pytest.raises(AttributeError):
        params.p_star = 0.0


def test_finite_rate_frozen_preset():
    params = RateParams(n=10**8, m=7_000_000, epsilon=1e-36, p_star=P_STAR)
    report = finite_rate(QX, params)
    assert math.isclose(report.rate, RATE_1E8, rel_tol=1e-12)
    assert report.rate_clamped == report.rate
    assert report.clamp_flags == ()
    assert math.isclose(report.delta, DELTA_7E6_1E8, rel_tol=1e-12)
    assert math.isclose(report.delta_prime, DPRIME_7E6, rel_tol=1e-12)
    assert math.isclose(report.epsilon_pa, EPSILON_PA_1E36, rel_tol=1e-12)
    assert math.isclose(report.epsilon_fail, EPSILON_FAIL_1E36, rel_tol=1e-12)


def test_finite_rate_strict_leak_variant():
    params = RateParams(n=10**8, m=7_000_000, epsilon=1e-36, p_star=P_STAR, strict_leak=True)
    report = finite_rate(QX, params)
    assert math.isclose(report.rate, RATE_1E8_STRICT, rel_tol=1e-12)


def test_strict_leak_never_beats_prefactored_leak():
    lax = RateParams(n=10**7, m=700_000, epsilon=1e-36, p_star=P_STAR)
    strict = RateParams(n=10**7, m=700_000, epsilon=1e-36, p_star=P_STAR, strict_leak=True)
    assert finite_rate(QX, strict).rate < finite_rate(QX, lax).rate


def test_finite_rate_negative_is_reported_raw():
    params = RateParams(n=10**5, m=7_000, epsilon=1e-36, p_star=P_STAR)
    report = finite_rate(QX, params)
    assert report.rate < 0.0
    assert report.rate_clamped == 0.0


def test_finite_rate_internal_consistency():
    params = RateParams(n=10**8, m=7_000_000, epsilon=1e-36, p_star=P_STAR)
    report = finite_rate(QX, params)
    kept = (params.n - params.m) / params.n
    pa_cost = math.log2(1.0 / params.epsilon) / params.n
    assert math.isclose(
        report.rate,
        kept * report.min_entropy_per_bit - report.leak_ec - pa_cost,
        rel_tol=1e-12,
    )
    assert math.isclose(report.min_entropy_per_bit, 1.0 - capped_entropy(report.corrected_phase), rel_tol=1e-12)


def test_finite_rate_domain():
    params = RateParams(n=1000, m=100, epsilon=1e-9)
    with pytest.raises(ValueError):
        finite_rate(1.5, params)


def test_honest_credit_raises_the_rate():
    with_credit = RateParams(n=10**8, m=7_000_000, epsilon=1e-36, p_star=P_STAR)
    without = RateParams(n=10**8, m=7_000_000, epsilon=1e-36, p_star=0.0)
    assert finite_rate(QX, with_credit).rate > finite_rate(QX, without).rate


def test_asymptotic_frozen_values():
    assert math.isclose(asymptotic_rate(0.08351, 0.05735), ASYM_NAMED, rel_tol=1e-12)
    assert math.isclose(asymptotic_rate(QX, P_STAR), ASYM_PRESET, rel_tol=1e-12)


def test_asymptotic_reduces_to_baseline_without_credit():
    for i in range(0, 50):
        q = i / 100.0
        assert asymptotic_rate(q, 0.0) == bb84_asymptotic(q)


def test_bb84_finite_frozen_value():
    assert math.isclose(bb84_finite(QX, 10**8, 7_000_000, 1e-36), BB84F_1E8, rel_tol=1e-12)


def test_bb84_finite_uses_fixed_inefficiency():
    assert BASELINE_EC_FACTOR == 1.2
    # Noiseless limit with huge samples approaches 1 - 2.2 * h(nu).
    value = bb84_finite(0.0, 10**12, 7 * 10**10, 1e-36)
    assert 0.9 < value < 1.0


def test_bb84_finite_domain():
    with pytest.raises(ValueError):
        bb84_finite(0.1, 10, 10, 1e-9)
    with pytest.raises(ValueError):
        bb84_finite(0.1, 100, 51, 1e-9)  # the sample may be at most half the rounds
    with pytest.raises(ValueError):
        bb84_finite(0.1, 100, 10, 1.5)
    with pytest.raises(ValueError):
        bb84_finite(-0.1, 100, 10, 1e-9)


@pytest.mark.parametrize("qx", [-0.1, 1.1, math.nan])
def test_bb84_asymptotic_domain(qx):
    with pytest.raises(ValueError, match="observed phase rate"):
        bb84_asymptotic(qx)


def test_bb84_asymptotic_threshold_frozen():
    threshold = noise_tolerance(bb84_asymptotic)
    assert abs(threshold - BB84_ASYMPTOTIC_THRESHOLD) < 2e-6


def test_noise_tolerance_never_positive_returns_lo():
    assert noise_tolerance(lambda q: -1.0) == 0.0


def test_noise_tolerance_never_crossing_returns_hi_sentinel():
    assert noise_tolerance(lambda q: 1.0) == 0.5


def test_noise_tolerance_linear_crossing():
    assert abs(noise_tolerance(lambda q: 0.2 - q) - 0.2) < 1e-6


def test_noise_tolerance_grows_with_honest_credit():
    # More honest stations tolerate more end-to-end noise.
    def rate_at(p_star):
        return noise_tolerance(lambda q: asymptotic_rate(q, p_star))

    t0, t2, t4 = rate_at(0.0), rate_at(P_STAR_1_1), rate_at(P_STAR_PRESET)
    assert t0 < t2 < t4
