"""The analytic commands, ``simulate`` and ``mc-verify`` run without loading numpy; ``verify`` does load it.

None of those commands loads ``dataclasses`` or ``inspect`` either: their
import is about a third of ``import chainrate.cli``, so chainrate's records
are named tuples. Each case runs in a fresh interpreter, so a module imported
by an earlier test cannot hide or fake the import. The exhaustive subset
estimator must also run where numpy cannot be imported.
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


#: The exhaustive subset estimator with numpy made unimportable.
EXHAUSTIVE_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from chainrate.literal import exhaustive_failure
print(exhaustive_failure([1, 1, 0, 0, 1, 0, 0, 0], 4, (0.2, 0.6)))
"""


def run_fresh(script: str, *argv: str) -> str:
    """Stdout of ``script`` run with ``argv`` in a fresh interpreter, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@functools.cache
def loaded_modules(argv: tuple[str, ...], script: str = SCRIPT) -> frozenset[str]:
    """Names in ``sys.modules`` after ``script`` ran with ``argv`` in a fresh interpreter."""
    return frozenset(run_fresh(script, *argv).split())


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


def test_exhaustive_failure_runs_with_numpy_blocked():
    # Any numpy import in the estimator's path raises ImportError, so the run must not need one.
    # Every sample deviates by 1/4 or more; the 10 of 70 holding none or all 3 ones deviate by 3/4.
    assert run_fresh(EXHAUSTIVE_WITHOUT_NUMPY).strip() == repr((1.0, 10 / 70))


def test_verify_loads_numpy():
    # Control: the check sees an import when one happens (the density-matrix oracle needs numpy).
    assert loads_numpy(["verify"])
