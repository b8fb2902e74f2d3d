"""Rate formulas: entropies, the corrected phase, finite and asymptotic bounds."""

import math
import random
import statistics
from collections import namedtuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chainrate.keyrate import (
    ARG_CLAMPED_HIGH,
    ARG_CLAMPED_LOW,
    BASELINE_EC_FACTOR,
    RateParams,
    _from_ordinal,
    _ordinal,
    asymptotic_rate,
    bb84_asymptotic,
    bb84_finite,
    binary_entropy,
    capped_entropy,
    corrected_phase,
    finite_rate,
    noise_tolerance,
)
from chainrate.noise import noise_parameter, observed_qx, strength_for_observed_qx, uniform_chain
from chainrate.sampling import MAX_ROUNDS
from frozen import (
    ASYM_NAMED,
    ASYM_PRESET,
    ASYM_THRESHOLD_H2,
    ASYM_THRESHOLD_H4,
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
    for nan_deviations in ((math.nan, 0.0), (0.0, math.nan)):  # NaN is not >= 0
        with pytest.raises(ValueError, match="^deviation terms must be >= 0$"):
            corrected_phase(0.1, 0.0, *nan_deviations)


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


def test_rate_params_types():
    with pytest.raises(TypeError, match=r"^rounds must be an int, got n=1000000\.0$"):
        RateParams(1e6, 1000, 1e-3)
    with pytest.raises(TypeError, match=r"^test sample must be an int, got m=True$"):
        RateParams(10**6, True, 1e-3)
    for flag in ("no", 1, None):
        with pytest.raises(TypeError, match=rf"^strict_leak must be a bool, got {flag!r}$"):
            RateParams(10**6, 1000, 1e-3, strict_leak=flag)
    assert RateParams(10**6, 1000, 1e-3, strict_leak=True).strict_leak is True


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
    for qx in (1.5, math.nan, -1e-300):
        with pytest.raises(ValueError, match=r"^observed phase rate must be in \[0, 1\], got "):
            finite_rate(qx, params)


def test_finite_rate_takes_only_rate_params():
    # finite_rate skips the (n, m, epsilon) check that RateParams made; a tuple or a look-alike never passed it.
    fields = (1000, 100, 1e-9, 0.0, BASELINE_EC_FACTOR, False)
    look_alike = namedtuple("LookAlike", RateParams._fields)(*fields)
    for params, name in ((fields, "tuple"), (look_alike, "LookAlike")):
        with pytest.raises(TypeError, match=f"^finite_rate needs RateParams, got {name}$"):
            finite_rate(0.05, params)


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


def identical_link_rate(repeaters, honest_left, honest_right):
    """The asymptotic rate at observed phase noise qx of an identical-link chain, as ``rate-asymptotic`` rates it."""

    def rate(qx):
        strength = strength_for_observed_qx(qx, repeaters + 1)
        return asymptotic_rate(qx, noise_parameter(uniform_chain(repeaters, strength, honest_left, honest_right)))

    return rate


def counted(rate_fn):
    """``rate_fn`` and a one-element list that counts its calls."""
    calls = [0]

    def rate(qx):
        calls[0] += 1
        return rate_fn(qx)

    return rate, calls


def test_bb84_asymptotic_threshold_frozen():
    threshold = noise_tolerance(bb84_asymptotic)
    assert abs(threshold - BB84_ASYMPTOTIC_THRESHOLD) <= 2 * math.ulp(BB84_ASYMPTOTIC_THRESHOLD)


@pytest.mark.parametrize("honest, reference", [(2, ASYM_THRESHOLD_H2), (4, ASYM_THRESHOLD_H4)])
def test_preset_asymptotic_threshold_frozen(honest, reference):
    # The search ends at adjacent floats, so only the rate's own rounding near its zero is left.
    threshold = noise_tolerance(identical_link_rate(PRESET.repeaters, honest // 2, honest // 2))
    assert abs(threshold - reference) <= 2 * math.ulp(reference)


def test_noise_tolerance_never_positive_returns_lo():
    assert noise_tolerance(lambda q: -1.0) == 0.0


def test_noise_tolerance_never_crossing_returns_hi_sentinel():
    assert noise_tolerance(lambda q: 1.0) == 0.5


def test_noise_tolerance_linear_crossing():
    assert noise_tolerance(lambda q: 0.2 - q) == math.nextafter(0.2, 0.0)


def test_noise_tolerance_probes_the_last_float_below_one_half():
    last = math.nextafter(0.5, 0.0)
    assert noise_tolerance(lambda q: last - q) == math.nextafter(last, 0.0)


@given(st.floats(min_value=0.0, max_value=0.5, exclude_max=True))
@example(0.0)
@example(5e-324)
@example(math.nextafter(2.0**-1022, 0.0))
@example(math.nextafter(2.0**-1021, 0.0))
@example(2.0**-1021)
def test_float_ordinal_counts_floats(x):
    rank = _ordinal(x)
    assert _from_ordinal(rank) == x
    assert _from_ordinal(rank + 1) == math.nextafter(x, 1.0)


def test_noise_tolerance_probe_count_on_swept_chains():
    # Chains shaped like the benchmark's threshold sweep: 1-10 repeaters, about
    # 0, 1/3, 2/3 or all of them honest, each split at random.
    rng = random.Random(35)
    probes = []
    for repeaters in range(1, 11):
        for share in range(4):
            honest = round(repeaters * share / 3)
            for _ in range(3):
                left = rng.randint(0, honest)
                rate_fn = identical_link_rate(repeaters, left, honest - left)
                counted_fn, calls = counted(rate_fn)
                threshold = noise_tolerance(counted_fn)
                assert rate_fn(threshold) > 0.0 >= rate_fn(math.nextafter(threshold, 1.0))
                probes.append(calls[0])
    assert statistics.mean(probes) <= 12 and max(probes) <= 20


@pytest.mark.parametrize(
    "rate_fn",
    [
        lambda q: math.exp(-40.0 * q) - math.exp(-12.0),
        lambda q: 0.3**10 - q**10,
        lambda q: math.sqrt(0.3) - math.sqrt(q),
    ],
    ids=["exp", "power", "sqrt"],
)
def test_noise_tolerance_probe_count_on_lopsided_rates(rate_fn):
    # Plain regula falsi creeps in from one end of these; the Anderson-Bjoerck scaling does not.
    counted_fn, calls = counted(rate_fn)
    threshold = noise_tolerance(counted_fn)
    assert rate_fn(threshold) > 0.0 >= rate_fn(math.nextafter(threshold, 1.0))
    assert calls[0] <= 30


@pytest.mark.parametrize(
    "rate_fn, threshold",
    [
        (lambda q: 0.25 - q if q < 0.25 else 0.0, math.nextafter(0.25, 0.0)),  # exactly zero on half the range
        (lambda q: 1.0 if q == 0.0 else 0.0, 0.0),  # and everywhere but at 0
    ],
    ids=["zero_tail", "zero_past_zero"],
)
def test_noise_tolerance_probe_bound_on_zero_rates(rate_fn, threshold):
    # The docstring's bound when every non-positive probe reads exactly 0.0.
    counted_fn, calls = counted(rate_fn)
    assert noise_tolerance(counted_fn) == threshold
    assert calls[0] <= 2 * 62 + 2


@pytest.mark.parametrize(
    "rate_fn, threshold",
    [
        (lambda q: 1.0 if q < 0.3 else -1.0, math.nextafter(0.3, 0.0)),  # a step: no secant helps
        (lambda q: 5e-310 - q, math.nextafter(5e-310, 0.0)),  # a root among the subnormal floats
        (lambda q: 1.0 if q < 5e-310 else -1.0, math.nextafter(5e-310, 0.0)),  # and a step there
        (lambda q: 1e300 if q < 0.2 else -1e300, math.nextafter(0.2, 0.0)),  # a jump of 2e300
        (lambda q: 0.1 - q if q < 0.1 else -1e-300 * q, math.nextafter(0.1, 0.0)),  # a flat tail
    ],
    ids=["step", "subnormal_root", "subnormal_step", "huge_jump", "flat_tail"],
)
def test_noise_tolerance_stays_within_its_probe_bound(rate_fn, threshold):
    # The docstring's bound: 5 probes at least halve the bracket, which starts under 2**62 floats wide.
    counted_fn, calls = counted(rate_fn)
    assert noise_tolerance(counted_fn) == threshold
    assert calls[0] <= 5 * 62 + 2


@pytest.mark.parametrize(
    "rate_fn",
    [
        lambda q: math.nan,  # at the left end
        lambda q: 0.2 - q if q < 0.2 else math.nan,  # at the right end
        lambda q: 0.3 - q if q in (0.0, math.nextafter(0.5, 0.0)) else math.nan,  # at every interior probe
    ],
)
def test_noise_tolerance_refuses_a_nan_rate(rate_fn):
    # A NaN is neither positive nor not, so the search would return a threshold the rate never crossed.
    with pytest.raises(ValueError, match="^rate is not a number at phase noise"):
        noise_tolerance(rate_fn)


def test_noise_tolerance_grows_with_honest_credit():
    # More honest stations tolerate more end-to-end noise.
    def rate_at(p_star):
        return noise_tolerance(lambda q: asymptotic_rate(q, p_star))

    t0, t2, t4 = rate_at(0.0), rate_at(P_STAR_1_1), rate_at(P_STAR_PRESET)
    assert t0 < t2 < t4
