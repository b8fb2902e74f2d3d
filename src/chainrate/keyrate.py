"""Secret-key rate bounds for chains with a partially corrupted middle.

The finite-size rate credits the honest stations near both ends: the observed
phase-disagreement rate is first reduced by the honest-zone noise parameter
(with finite-sample deviations added back), and only the remainder is charged
to the adversary. Two baselines without that credit are included for
comparison, one finite-size and one asymptotic.

All logarithms are base 2; rates are per protocol round.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .sampling import deviation_for_failure, epsilon_ledger, hoeffding_deviation, require_admissible

ARG_CLAMPED_LOW = "arg_clamped_low"
ARG_CLAMPED_HIGH = "arg_clamped_high"

# Error-correction inefficiency baked into the comparison baseline. Also the
# default of ``RateParams.ec_factor`` and ``--ec-factor``, so default tables
# charge the chain rate and the baseline alike.
BASELINE_EC_FACTOR = 1.2


def binary_entropy(p: float) -> float:
    """Binary entropy in bits; h(0) = h(1) = 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"entropy argument must be in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def capped_entropy(p: float) -> float:
    """Binary entropy clamped to 1 at and above one half.

    Keeps the function monotone so a pessimistic (over-)estimate of an error
    rate can never make the bound look better.
    """
    return 1.0 if 0.5 <= p <= 1.0 else binary_entropy(p)


def corrected_phase(
    qx: float,
    p_star: float,
    delta: float,
    delta_prime: float,
) -> tuple[float, tuple[str, ...]]:
    """Adversary-attributed phase rate: ((qx - p* + delta') / (1 - 2 p*)) + delta.

    The raw value is clamped into [0, 1]; the returned flags name the side hit
    (empty, or one flag), so callers can tell a real rate from a saturated one.
    """
    if not (0.0 <= qx <= 1.0):
        raise ValueError(f"observed phase rate must be in [0, 1], got {qx!r}")
    if not (0.0 <= p_star < 0.5):
        raise ValueError(f"honest-zone parameter must be in [0, 0.5), got {p_star!r}")
    if delta < 0.0 or delta_prime < 0.0:
        raise ValueError("deviation terms must be >= 0")
    raw = (qx - p_star + delta_prime) / (1.0 - 2.0 * p_star) + delta
    if raw < 0.0:
        return 0.0, (ARG_CLAMPED_LOW,)
    if raw > 1.0:
        return 1.0, (ARG_CLAMPED_HIGH,)
    return raw, ()


class RateParams(namedtuple("RateParams", "n m epsilon p_star ec_factor strict_leak")):
    """Protocol parameters for the finite-size rate.

    ``n`` total rounds, ``m`` of them revealed for testing (admissible as
    ``sampling.require_admissible`` decides), ``p_star`` the honest-zone noise
    parameter, ``ec_factor`` the finite error-correction inefficiency,
    ``strict_leak`` charges error correction on all rounds instead of the
    kept ones.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        m: int,
        epsilon: float,
        p_star: float = 0.0,
        ec_factor: float = BASELINE_EC_FACTOR,
        strict_leak: bool = False,
    ) -> "RateParams":
        require_admissible(epsilon=epsilon, m=m, n=n)
        if not (0.0 <= p_star < 0.5):
            raise ValueError(f"honest-zone parameter must be in [0, 0.5), got {p_star!r}")
        if not (0.0 < ec_factor < math.inf):
            raise ValueError(f"error-correction factor must be positive and finite, got {ec_factor!r}")
        return super().__new__(cls, n, m, epsilon, p_star, ec_factor, strict_leak)

    @classmethod
    def _make(cls, iterable) -> "RateParams":
        """Build through the constructor, so ``_replace`` checks its fields too."""
        return cls(*iterable)


class RateReport(NamedTuple):
    """Finite-size rate with its intermediate quantities."""

    rate: float
    rate_clamped: float
    min_entropy_per_bit: float
    corrected_phase: float
    delta: float
    delta_prime: float
    leak_ec: float
    epsilon_pa: float
    epsilon_fail: float
    clamp_flags: tuple[str, ...]


def finite_rate(qx_observed: float, params: RateParams) -> RateReport:
    """Per-round secret-key rate from an observed phase-disagreement rate.

    rate = ((n - m)/n) * (1 - h_capped(corrected)) - leak_ec - log2(1/eps)/n,
    with leak_ec = ec_factor * h_capped(qx + delta) scaled by (n - m)/n unless
    ``strict_leak``. Negative values are reported raw; ``rate_clamped`` floors
    at zero.
    """
    delta = deviation_for_failure(params.epsilon, params.m, params.n)
    delta_prime = hoeffding_deviation(params.epsilon, params.m)
    corrected, flags = corrected_phase(qx_observed, params.p_star, delta, delta_prime)
    ledger = epsilon_ledger(params.epsilon)
    min_entropy = 1.0 - capped_entropy(corrected)
    kept_fraction = (params.n - params.m) / params.n
    leak = params.ec_factor * capped_entropy(min(1.0, qx_observed + delta))
    if not params.strict_leak:
        leak *= kept_fraction
    pa_cost = math.log2(1.0 / params.epsilon) / params.n
    rate = kept_fraction * min_entropy - leak - pa_cost
    return RateReport(
        rate=rate,
        rate_clamped=max(0.0, rate),
        min_entropy_per_bit=min_entropy,
        corrected_phase=corrected,
        delta=delta,
        delta_prime=delta_prime,
        leak_ec=leak,
        epsilon_pa=ledger.epsilon_pa,
        epsilon_fail=ledger.epsilon_fail,
        clamp_flags=flags,
    )


def asymptotic_rate(qx: float, p_star: float) -> float:
    """Infinite-round limit: 1 - h_capped((qx - p*)/(1 - 2 p*)) - h(qx)."""
    corrected, _ = corrected_phase(qx, p_star, 0.0, 0.0)
    return 1.0 - capped_entropy(corrected) - binary_entropy(qx)


def bb84_finite(qx: float, n: int, m: int, epsilon: float) -> float:
    """Finite-size baseline that attributes all observed noise to the adversary.

    nu is its sampling deviation; the error-correction term carries the fixed
    ``BASELINE_EC_FACTOR`` inefficiency inside the same capped entropy.
    """
    if not (0.0 <= qx <= 1.0):
        raise ValueError(f"observed phase rate must be in [0, 1], got {qx!r}")
    require_admissible(epsilon=epsilon, m=m, n=n)
    kept = n - m
    nu = math.sqrt(n * (m + 1) * math.log(2.0 / epsilon) / (m * m * kept))
    pessimistic = capped_entropy(min(1.0, qx + nu))
    return (kept / n) * (1.0 - pessimistic - BASELINE_EC_FACTOR * pessimistic)


def bb84_asymptotic(qx: float) -> float:
    """Asymptotic baseline 1 - 2*h_capped(qx).

    Written as two subtractions so that the zero-honest asymptotic chain rate,
    which subtracts the same two entropy values, is bitwise identical to it.
    """
    if not (0.0 <= qx <= 1.0):
        raise ValueError(f"observed phase rate must be in [0, 1], got {qx!r}")
    return 1.0 - capped_entropy(qx) - capped_entropy(qx)


def noise_tolerance(rate_fn) -> float:
    """Largest phase-noise level in [0, 1/2) with positive rate, by bisection to 1e-6.

    ``rate_fn`` maps a phase-noise level to a rate and must cross zero at most
    once on [0, 1/2). Returns 0 when the rate is never positive and 1/2 (as a
    sentinel) when it never crosses below zero on the interval.
    """
    lo, hi, tol = 0.0, 0.5, 1e-6
    if rate_fn(lo) <= 0.0:
        return lo
    # Probe just inside the right end; the interval is half-open.
    right = hi - tol * 1e-3
    if rate_fn(right) > 0.0:
        return hi
    a, b = lo, right
    while b - a > tol:
        mid = 0.5 * (a + b)
        if rate_fn(mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
