"""Every frozen 50-digit reference is reproducible from tools/references.py."""

import importlib.util
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "references.py"
_spec = importlib.util.spec_from_file_location("references", _TOOL)
references = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(references)

REGENERATED = references.regenerate()


@pytest.mark.parametrize("name", sorted(references.LOCATIONS))
def test_checked_in_reference_is_within_one_ulp(name):
    regenerated = float(REGENERATED[name])
    assert references.ulps_apart(references.checked_in(name), regenerated) <= 1.0
