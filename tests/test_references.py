"""Every frozen reference in tests/frozen.py is reproducible from tools/references.py."""

import pytest

import frozen

pytest.importorskip("mpmath")
import references  # noqa: E402  (needs mpmath)

REGENERATED = references.regenerate()


@pytest.mark.parametrize("name", sorted(REGENERATED))
def test_checked_in_reference_is_within_one_ulp(name):
    regenerated = float(REGENERATED[name])
    assert references.ulps_apart(getattr(frozen, name), regenerated) <= 1.0


def test_every_frozen_float_has_a_formula_and_every_formula_a_float():
    floats = {name for name, value in vars(frozen).items() if not name.startswith("_") and isinstance(value, float)}
    assert floats == set(REGENERATED)
