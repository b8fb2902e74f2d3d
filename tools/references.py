"""Regenerate the frozen reference constants with 50-digit arithmetic.

The package and its tests compare computed values against constants that
were worked out once at high precision and checked in as floats, all of them
importable from ``tests/frozen.py``. This script recomputes each one from its
closed form with mpmath at 50 digits, reads the frozen float by importing
that module, and reports the distance in units in the last place (ulp). Run
from anywhere:

    python tools/references.py

It prints one line per constant and exits 1 if any frozen float is more
than 1 ulp from the nearest float of the regenerated value. mpmath is not a
dependency of the package; ``tests/test_references.py`` skips without it.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath
from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
DIGITS = 50

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
import frozen  # noqa: E402  (the checkout's references and package, not an installed one)

#: Security parameter of the frozen working-point references.
EPSILON = mpf("1e-36")

#: ``keyrate.BASELINE_EC_FACTOR``, the rates' error-correction inefficiency, as
#: a decimal string: an mpf made at import would hold only the nearest float.
EC_FACTOR = "1.2"


def _entropy(p: mpf) -> mpf:
    return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)


def _subset_deviation(m: int, n: int) -> mpf:
    # Inverse of the subset bound 2*exp(-delta**2 * m * n / (n + 2)) = EPSILON**2.
    return mpmath.sqrt((n + 2) * mpmath.log(2 / EPSILON**2) / (m * n))


def _iid_deviation(m: int) -> mpf:
    # Inverse of the Hoeffding bound 2*exp(-2 * delta**2 * m) = EPSILON.
    return mpmath.sqrt(mpmath.log(2 / EPSILON) / (2 * m))


def _corrected(qx: mpf, p_star: mpf, delta: mpf = 0, delta_prime: mpf = 0) -> mpf:
    # keyrate.corrected_phase away from its clamps.
    return (qx - p_star + delta_prime) / (1 - 2 * p_star) + delta


def _asymptotic(qx: mpf, p_star: mpf) -> mpf:
    return 1 - _entropy(_corrected(qx, p_star)) - _entropy(qx)


def _finite(qx: mpf, p_star: mpf, n: int, m: int, strict_leak: bool) -> mpf:
    # keyrate.finite_rate at EPSILON, away from the entropy caps.
    delta = _subset_deviation(m, n)
    kept = mpf(n - m) / n
    min_entropy = 1 - _entropy(_corrected(qx, p_star, delta, _iid_deviation(m)))
    leak = mpf(EC_FACTOR) * _entropy(qx + delta) * (1 if strict_leak else kept)
    return kept * min_entropy - leak - mpmath.log(1 / EPSILON, 2) / n


def _bb84_finite(qx: mpf, n: int, m: int) -> mpf:
    # keyrate.bb84_finite at EPSILON, away from the entropy cap.
    nu = mpmath.sqrt(n * (m + 1) * mpmath.log(2 / EPSILON) / (mpf(m) ** 2 * (n - m)))
    pessimistic = _entropy(qx + nu)
    return mpf(n - m) / n * (1 - pessimistic - mpf(EC_FACTOR) * pessimistic)


def regenerate() -> dict[str, mpf]:
    """Every frozen constant, recomputed at DIGITS significant digits."""
    with mp.workdps(DIGITS):
        cube_root = mpmath.cbrt(2 * EPSILON)
        # The preset: six depolarizing links at q = 0.03, so the phase error
        # is (1 - 0.97**6) / 2; two honest stations at each end, so each end
        # zone spans two links and p* = (1 - 0.97**4) / 2; one honest station
        # at each end gives p* = (1 - 0.97**2) / 2.
        qx_preset = (1 - mpf("0.97") ** 6) / 2
        p_star_preset = (1 - mpf("0.97") ** 4) / 2
        qx_named, p_star_named = mpf("0.08351"), mpf("0.05735")
        return {
            # Asymptotic BB84 rate 1 - 2*h(q) reaches zero.
            "BB84_ASYMPTOTIC_THRESHOLD": mpmath.findroot(lambda q: 1 - 2 * _entropy(q), mpf("0.11")),
            # The epsilon ledger at 1e-36.
            "EPSILON_PA_1E36": 17 * EPSILON + 4 * cube_root,
            "EPSILON_FAIL_1E36": 2 * cube_root,
            "SMOOTHING_1E36": 8 * EPSILON + 2 * cube_root,
            "DELTA_7E5_1E7": _subset_deviation(700_000, 10**7),
            "DELTA_7E6_1E8": _subset_deviation(7_000_000, 10**8),
            "DPRIME_7E5": _iid_deviation(700_000),
            "DPRIME_7E6": _iid_deviation(7_000_000),
            "H_011": _entropy(mpf("0.11")),
            "QX_PRESET": qx_preset,
            "P_STAR_PRESET": p_star_preset,
            "P_STAR_1_1": (1 - mpf("0.97") ** 2) / 2,
            "CORRECTED_NAMED": _corrected(qx_named, p_star_named),
            "ASYM_NAMED": _asymptotic(qx_named, p_star_named),
            "ASYM_PRESET": _asymptotic(qx_preset, p_star_preset),
            "RATE_1E8": _finite(qx_preset, p_star_preset, 10**8, 7_000_000, strict_leak=False),
            "RATE_1E8_STRICT": _finite(qx_preset, p_star_preset, 10**8, 7_000_000, strict_leak=True),
            "BB84F_1E8": _bb84_finite(qx_preset, 10**8, 7_000_000),
        }


def ulps_apart(value: float, reference: float) -> float:
    """Distance between two floats in units of the reference's last place."""
    return abs(value - reference) / math.ulp(reference)


def main() -> int:
    stale = 0
    for name, value in regenerate().items():
        regenerated = float(value)
        distance = ulps_apart(getattr(frozen, name), regenerated)
        stale += distance > 1
        print(f"{name} = {regenerated!r}  # {mpmath.nstr(value, DIGITS)}; frozen value {distance:g} ulp away")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
