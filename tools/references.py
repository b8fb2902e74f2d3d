"""Regenerate the frozen reference constants with 50-digit arithmetic.

The package and its tests compare computed values against constants that
were worked out once at high precision and checked in as floats. This
script recomputes each one from its closed form with mpmath at 50 digits,
reads the checked-in float from the file that holds it, and reports the
distance in units in the last place (ulp). Run from anywhere:

    python tools/references.py

It prints one line per constant and exits 1 if any checked-in float is
more than 1 ulp from the nearest float of the regenerated value. mpmath is
not a dependency of the package; ``tests/test_references.py`` skips
without it.

Left out on purpose: the rate references in ``tests/test_keyrate.py``
(``RATE_1E8``, ``ASYM_*``, ``CORRECTED_NAMED``, ``BB84F_1E8``) need the
whole finite-size rate formula rewritten in mpmath.
"""

from __future__ import annotations

import ast
import math
import sys
from pathlib import Path

import mpmath
from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
DIGITS = 50

#: Security parameter of the frozen working-point references.
EPSILON = mpf("1e-36")

#: Where each constant is checked in, relative to the repository root.
LOCATIONS = {
    "BB84_ASYMPTOTIC_THRESHOLD": "src/chainrate/verify.py",
    "EPSILON_PA_1E36": "src/chainrate/verify.py",
    "EPSILON_FAIL_1E36": "src/chainrate/verify.py",
    "SMOOTHING_1E36": "tests/test_sampling.py",
    "DELTA_7E5_1E7": "tests/test_sampling.py",
    "DELTA_7E6_1E8": "tests/test_sampling.py",
    "DPRIME_7E5": "tests/test_sampling.py",
    "DPRIME_7E6": "tests/test_sampling.py",
    "H_011": "tests/test_keyrate.py",
    "QX_PRESET": "tests/test_acceptance.py",
}


def _entropy(p: mpf) -> mpf:
    return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)


def _subset_deviation(m: int, n: int) -> mpf:
    # Inverse of the subset bound 2*exp(-delta**2 * m * n / (n + 2)) = EPSILON**2.
    return mpmath.sqrt((n + 2) * mpmath.log(2 / EPSILON**2) / (m * n))


def _iid_deviation(m: int) -> mpf:
    # Inverse of the Hoeffding bound 2*exp(-2 * delta**2 * m) = EPSILON.
    return mpmath.sqrt(mpmath.log(2 / EPSILON) / (2 * m))


def regenerate() -> dict[str, mpf]:
    """Every constant in LOCATIONS, recomputed at DIGITS significant digits."""
    with mp.workdps(DIGITS):
        cube_root = mpmath.cbrt(2 * EPSILON)
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
            # Phase error of six depolarizing links at q = 0.03: (1 - 0.97**6) / 2.
            "QX_PRESET": (1 - mpf("0.97") ** 6) / 2,
        }


def checked_in(name: str) -> float:
    """The float literal assigned to ``name`` at the top level of its file."""
    tree = ast.parse((ROOT / LOCATIONS[name]).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return float(ast.literal_eval(node.value))
    raise LookupError(f"{name} is not assigned in {LOCATIONS[name]}")


def ulps_apart(value: float, reference: float) -> float:
    """Distance between two floats in units of the reference's last place."""
    return abs(value - reference) / math.ulp(reference)


def main() -> int:
    stale = 0
    for name, value in regenerate().items():
        regenerated = float(value)
        distance = ulps_apart(checked_in(name), regenerated)
        stale += distance > 1
        print(
            f"{name} = {regenerated!r}  # {mpmath.nstr(value, DIGITS)}; "
            f"checked in {LOCATIONS[name]}: {distance:g} ulp"
        )
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
