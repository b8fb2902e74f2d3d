"""Finite-sample estimation bounds.

The protocol reveals a uniformly random size-``m`` subset of an ``n``-symbol
word and must bound how far the hidden part's relative weight can sit from the
revealed part's (``subset_deviates`` is the one definition of a deviation beyond
the tolerance). ``sampling_failure_bound`` is the analytic tail bound for that
estimate; ``deviation_for_failure`` inverts it so a target failure
probability picks the deviation tolerance. ``hoeffding_deviation`` is the
standard i.i.d. mean bound used for the honest-noise contribution.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

#: Most seeded trials one scan may draw; it bounds a pure-Python scan's time.
MAX_TRIALS = 10**5
#: Most rounds a protocol run may have: the top of the analytic sweeps. Far
#: beyond it (n ~ 1e154) the bounds' float arithmetic overflows.
MAX_ROUNDS = 10**12
#: Least failure target: below ~1e-162 the subset bound's target epsilon**2
#: underflows to zero.
MIN_EPSILON = 1e-150


def require_admissible(
    *, epsilon: float | None = None, m: int | None = None, n: int | None = None, trials: int | None = None
) -> None:
    """Check the given parts of a (failure target, revealed sample, total rounds) triple and a trial count.

    The one admissibility rule: MIN_EPSILON <= epsilon < 1, m >= 1,
    2 <= n <= MAX_ROUNDS, 2m <= n when both are given, and
    1 <= trials <= MAX_TRIALS. The counts are ``int``, not ``bool`` or
    ``float`` (``TypeError``). Every size check in the package goes through
    here.
    """
    # Each count's type is tested inside its range test, so an admissible call pays one ``is`` per count.
    if epsilon is not None and not (MIN_EPSILON <= epsilon < 1.0):
        raise ValueError(f"epsilon must be in [{MIN_EPSILON:g}, 1), got {epsilon!r}")
    if m is not None and not (type(m) is int and m >= 1):
        if type(m) is not int:
            raise TypeError(f"test sample must be an int, got m={m!r}")
        raise ValueError(f"test sample must be >= 1, got m={m}")
    if n is not None and not (type(n) is int and 2 <= n <= MAX_ROUNDS):
        if type(n) is not int:
            raise TypeError(f"rounds must be an int, got n={n!r}")
        raise ValueError(f"rounds must be in 2..{MAX_ROUNDS}, got n={n}")
    if m is not None and n is not None and not 2 * m <= n:
        raise ValueError(f"need m <= n/2, got m={m}, n={n}")
    if trials is not None and not (type(trials) is int and 1 <= trials <= MAX_TRIALS):
        if type(trials) is not int:
            raise TypeError(f"trials must be an int, got {trials!r}")
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")


def _require_deviation(delta: float) -> None:
    """Check a deviation tolerance: positive and finite (NaN is rejected)."""
    if not (delta > 0.0) or math.isinf(delta):
        raise ValueError(f"deviation tolerance must be positive and finite, got {delta!r}")


def sampling_failure_bound(delta: float, m: int, n: int) -> float:
    """Tail bound 2*exp(-delta**2 * m * n / (n + 2)), capped at 1, valid for 1 <= m <= n/2.

    |w(sample) - w(rest)| >= delta puts the sample mean t = delta*(n - m)/n from the word's mean, which
    Serfling (1974, Cor. 1.1) bounds by 2*exp(-2*m*delta**2*(n - m)**2 / (n*(n - m + 1))). As
    2*(n - m)**2*(n + 2) >= n**2*(n - m + 1) for m <= n/2, equal at m = n/2, this is Serfling's there and looser below.
    ``delta`` above 1 is vacuous but accepted so the bound stays the exact
    inverse of :func:`deviation_for_failure` over its whole range.
    """
    _require_deviation(delta)
    require_admissible(m=m, n=n)
    try:
        square = delta**2
    except OverflowError:  # delta above ~1.3e154: the bound has long since vanished
        return 0.0
    return min(1.0, 2.0 * math.exp(-square * m * n / (n + 2)))


def subset_deviates(ones: Any, rest_ones: Any, m: int, n: int, delta: float) -> Any:
    """Whether a revealed sample of ``m`` holding ``ones`` ones deviates from the hidden ``n - m`` holding ``rest_ones``.

    The event is |ones/m - rest_ones/(n - m)| > delta, strictly: a deviation exactly equal to ``delta`` is not
    counted. Only ``/``, ``-``, ``abs`` and ``>`` appear, so it also works elementwise on arrays.
    """
    return abs(ones / m - rest_ones / (n - m)) > delta


def frequency_limit(bound: float, trials: int) -> float:
    """Highest failure frequency over ``trials`` seeded trials that honours ``bound``: bound plus three binomial sigmas."""
    require_admissible(trials=trials)
    if not (0.0 <= bound <= 1.0):
        raise ValueError(f"failure bound must be in [0, 1], got {bound!r}")
    return bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)


def deviation_for_failure(epsilon: float, m: int, n: int) -> float:
    """Deviation tolerance whose sampling failure bound equals epsilon**2."""
    require_admissible(epsilon=epsilon, m=m, n=n)
    return _deviation_for_failure(epsilon, m, n)


def _deviation_for_failure(epsilon: float, m: int, n: int) -> float:
    """``deviation_for_failure`` for an (epsilon, m, n) already admitted."""
    return math.sqrt((n + 2) * math.log(2.0 / epsilon**2) / (m * n))


def hoeffding_deviation(epsilon: float, m: int) -> float:
    """Deviation such that an i.i.d. sample mean of m bits exceeds it with probability <= epsilon."""
    require_admissible(epsilon=epsilon, m=m)
    return _hoeffding_deviation(epsilon, m)


def _hoeffding_deviation(epsilon: float, m: int) -> float:
    """``hoeffding_deviation`` for an (epsilon, m) already admitted."""
    return math.sqrt(math.log(2.0 / epsilon) / (2.0 * m))


class EpsilonLedger(NamedTuple):
    """Security-parameter bookkeeping derived from the single user-facing epsilon."""

    epsilon_pa: float
    epsilon_fail: float
    smoothing: float


def _cube_root(x: float) -> float:
    """x ** (1/3) for x > 0, within 1 ulp on every Python.

    The power alone errs by up to ~57 ulp, because 1/3 is rounded before it is
    used; one Newton step on c**3 = x repairs that. ``math.cbrt`` would do, but
    Python 3.10 lacks it.
    """
    root = x ** (1.0 / 3.0)
    return root - (root * root * root - x) / (3.0 * root * root)


def epsilon_ledger(epsilon: float) -> EpsilonLedger:
    """Derived failure terms: all are polynomial in epsilon**(1/3).

    Raises ValueError when epsilon is so large that a derived term reaches 1,
    i.e. the guarantees would be vacuous.
    """
    require_admissible(epsilon=epsilon)
    return _epsilon_ledger(epsilon)


def _epsilon_ledger(epsilon: float) -> EpsilonLedger:
    """``epsilon_ledger`` for an epsilon already admitted."""
    cube_root = _cube_root(2.0 * epsilon)
    ledger = EpsilonLedger(
        epsilon_pa=17.0 * epsilon + 4.0 * cube_root,
        epsilon_fail=2.0 * cube_root,
        smoothing=8.0 * epsilon + 2.0 * cube_root,
    )
    if ledger.epsilon_pa >= 1.0 or ledger.epsilon_fail >= 1.0 or ledger.smoothing >= 1.0:
        raise ValueError(f"epsilon {epsilon!r} gives vacuous derived failure terms")
    return ledger
