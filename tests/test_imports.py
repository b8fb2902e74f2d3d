"""The analytic commands, ``simulate`` and ``mc-verify`` run without loading numpy; ``verify`` does load it.

None of those commands loads ``dataclasses`` or ``inspect`` either: their
import is about a third of ``import chainrate.cli``, so chainrate's records
are named tuples. Each case runs in a fresh interpreter, so a module imported
by an earlier test cannot hide or fake the import.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainrate

SRC = str(Path(chainrate.__file__).resolve().parent.parent)

SCRIPT = """
import contextlib, io, sys
import chainrate.cli as cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(" ".join(sys.modules))
"""

IMPORT_MONTECARLO = """
import sys
import chainrate.montecarlo
print(" ".join(sys.modules))
"""

#: What a bare interpreter loads in this environment, ``site`` and its hooks included.
BARE = "import sys; print(' '.join(sys.modules))"

#: The README's analytic commands.
ANALYTIC = (
    ["rate-finite", "--sweep", "N"],
    ["rate-finite", "--sweep", "qx", "--rounds", "1e8"],
    ["rate-asymptotic"],
    ["noise", "--steps", "9", "--honest", "1,2,3,4"],
    ["bounds", "--rounds", "1e7", "--epsilon", "1e-36"],
)
SIMULATE = ["simulate", "--rounds", "1e4"]
MC_VERIFY = ["mc-verify", "--rounds", "2000", "--trials", "200"]


@functools.cache
def loaded_modules(argv: tuple[str, ...], script: str = SCRIPT) -> frozenset[str]:
    """Names in ``sys.modules`` after ``script`` ran with ``argv`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return frozenset(result.stdout.split())


def loads_numpy(argv, script=SCRIPT):
    return "numpy" in loaded_modules(tuple(argv), script)


@pytest.mark.parametrize("argv", [[], *ANALYTIC], ids=lambda argv: " ".join(argv) or "import")
def test_analytic_paths_do_not_load_numpy(argv):
    assert not loads_numpy(argv)


def test_simulate_does_not_load_numpy():
    assert not loads_numpy(SIMULATE)


def test_montecarlo_import_does_not_load_numpy():
    assert not loads_numpy([], script=IMPORT_MONTECARLO)


def test_mc_verify_does_not_load_numpy():
    assert not loads_numpy(MC_VERIFY)


@pytest.mark.parametrize("argv", [[], *ANALYTIC, SIMULATE, MC_VERIFY], ids=lambda argv: " ".join(argv) or "import")
def test_command_paths_do_not_load_dataclasses(argv):
    # Only what the command adds to a bare interpreter counts, so a site hook can neither fake nor hide it.
    added = loaded_modules(tuple(argv)) - loaded_modules((), BARE)
    assert not added & {"dataclasses", "inspect"}


def test_verify_loads_numpy():
    # Control: the check sees an import when one happens (the density-matrix oracle needs numpy).
    assert loads_numpy(["verify"])
