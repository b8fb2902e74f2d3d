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
import struct
from collections import namedtuple
from typing import NamedTuple

from .bell import _make_checked
from .sampling import _deviation_for_failure, _epsilon_ledger, _hoeffding_deviation, require_admissible

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


def _require_phase_rate(qx: float) -> None:
    if not (0.0 <= qx <= 1.0):
        raise ValueError(f"observed phase rate must be in [0, 1], got {qx!r}")


def _require_p_star(p_star: float) -> None:
    if not (0.0 <= p_star < 0.5):
        raise ValueError(f"honest-zone parameter must be in [0, 0.5), got {p_star!r}")


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
    _require_phase_rate(qx)
    _require_p_star(p_star)
    if not (delta >= 0.0 and delta_prime >= 0.0):
        raise ValueError("deviation terms must be >= 0")
    return _corrected_phase(qx, p_star, delta, delta_prime)


def _corrected_phase(qx: float, p_star: float, delta: float, delta_prime: float) -> tuple[float, tuple[str, ...]]:
    """``corrected_phase`` for a caller that has checked its arguments."""
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
    ``strict_leak`` (a ``bool``) charges error correction on all rounds
    instead of the kept ones.
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
        _require_p_star(p_star)
        if not (0.0 < ec_factor < math.inf):
            raise ValueError(f"error-correction factor must be positive and finite, got {ec_factor!r}")
        if type(strict_leak) is not bool:
            raise TypeError(f"strict_leak must be a bool, got {strict_leak!r}")
        return tuple.__new__(cls, (n, m, epsilon, p_star, ec_factor, strict_leak))

    _make = classmethod(_make_checked)


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
    at zero. Only a ``RateParams`` is taken: it has admitted its (n, m, epsilon).
    """
    if not isinstance(params, RateParams):
        raise TypeError(f"finite_rate needs RateParams, got {type(params).__name__}")
    delta = _deviation_for_failure(params.epsilon, params.m, params.n)
    delta_prime = _hoeffding_deviation(params.epsilon, params.m)
    _require_phase_rate(qx_observed)  # RateParams has checked p*, and both deviations are >= 0
    corrected, flags = _corrected_phase(qx_observed, params.p_star, delta, delta_prime)
    ledger = _epsilon_ledger(params.epsilon)
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
    _require_phase_rate(qx)
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
    _require_phase_rate(qx)
    return 1.0 - capped_entropy(qx) - capped_entropy(qx)


#: ``noise_tolerance`` bisects after this many probes in a row that have not
#: halved its bracket.
_STALL_LIMIT = 4

#: Eight bytes read as a float and as an integer: for a float x >= 0 the integer is x's rank among the floats.
_FLOAT, _RANK = struct.Struct("<d"), struct.Struct("<q")
#: The same for a bracket's two ends at once, one conversion per regula falsi step.
_FLOATS, _RANKS = struct.Struct("<2d"), struct.Struct("<2q")


def _ordinal(x: float) -> int:
    """The rank of a float x >= 0: its bit pattern read as an integer."""
    return _RANK.unpack(_FLOAT.pack(x))[0]


def _from_ordinal(rank: int) -> float:
    """The float whose ``_ordinal`` is ``rank``."""
    return _FLOAT.unpack(_RANK.pack(rank))[0]


def noise_tolerance(rate_fn) -> float:
    """Where ``rate_fn`` turns non-positive: a float t in [0, 1/2) with rate(t) > 0 >= rate(nextafter(t, 1)).

    ``rate_fn`` maps a phase-noise level to a rate and must cross zero at most
    once on [0, 1/2). Returns 0.0 when rate(0) <= 0, and 1/2 as a sentinel when
    the rate is still positive at the float below 1/2. Otherwise both t and
    nextafter(t, 1) are probed; where rounding flips a rate's sign within a
    few floats of its zero, t is one of those crossings. A NaN rate at any
    probe raises ``ValueError``, since its sign is unknown.

    The two end probes bracket the sign change as [a, b] with rate(a) > 0 >=
    rate(b), held as the ranks of a and b among the floats. Anderson-Bjoerck
    steps (Anderson & Bjoerck 1973) narrow it: a regula falsi step that, after
    two probes in a row on one side, scales the other end's rate by
    1 - rate(new)/rate(replaced), or by 1/2 when that factor is not positive. A
    step that rounds onto or past an end probes that end's inward neighbour
    instead, which is how the bracket closes to adjacent floats. While rate(b)
    is exactly 0.0 the step would land on b, so it probes 1, 2, 4, ... floats
    inward from b, never past the bracket's midpoint: a rate that reads
    exactly 0.0 wherever it is not positive costs at most 2 * 62 + 2 = 126
    probes. As in Brent (1973) a bisection guards the rest: after 4 probes in
    a row that leave the bracket wider than half its width at the last
    halving, the next probe bisects it in rank. The bracket starts under 2**62
    floats wide and every 5 probes at least halve it, so any rate function
    costs at most 5 * 62 + 2 = 312 probes. The asymptotic rates of
    identical-link chains take 10 to 15.
    """

    def rate(qx: float) -> float:
        value = rate_fn(qx)
        if math.isnan(value):
            raise ValueError(f"rate is not a number at phase noise {qx!r}")
        return value

    fa = rate(0.0)
    if not fa > 0.0:
        return 0.0
    lo, hi = 0, _ordinal(0.5) - 1
    fb = rate(_from_ordinal(hi))
    if fb > 0.0:
        return 0.5
    halved_at, stalled, zero_steps, last_positive = hi, 0, 0, None
    while hi - lo > 1:
        if stalled == _STALL_LIMIT:
            x = _from_ordinal((lo + hi) // 2)
        elif fb == 0.0:
            x = _from_ordinal(max(hi - (1 << zero_steps), (lo + hi) // 2))
            zero_steps += 1
        else:
            a, b = _FLOATS.unpack(_RANKS.pack(lo, hi))
            x = a + (b - a) * (fa / (fa - fb))
            if not x > a:
                x = _from_ordinal(lo + 1)
            elif not x < b:
                x = _from_ordinal(hi - 1)
        fx, rank = rate(x), _ordinal(x)
        positive = fx > 0.0
        if positive:
            if last_positive is True:
                scale = 1.0 - fx / fa
                fb *= scale if scale > 0.0 else 0.5
            fa, lo = fx, rank
        else:
            if last_positive is False and fb:  # a zero rate gives no scale
                scale = 1.0 - fx / fb
                fa *= scale if scale > 0.0 else 0.5
            fb, hi = fx, rank
        last_positive = positive
        if stalled == _STALL_LIMIT or 2 * (hi - lo) <= halved_at:
            halved_at, stalled = hi - lo, 0
        else:
            stalled += 1
    return _from_ordinal(lo)
