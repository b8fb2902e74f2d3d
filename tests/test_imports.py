"""The analytic commands, ``simulate`` and ``mc-verify`` run without loading numpy; ``verify`` does load it.

None of those commands loads ``dataclasses`` or ``inspect`` either: their
import is about a third of ``import chainrate.cli``, so chainrate's records
are named tuples. Each case runs in a fresh interpreter, so a module imported
by an earlier test cannot hide or fake the import. The exhaustive subset
estimator must also run where numpy cannot be imported.

``chainrate``'s entry point runs numpy's BLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is set: ``test_entry_runs_blas_on_one_thread`` counts
the process's threads after ``entry()`` has run ``verify``, and ``verify``
must print the same bytes on one BLAS thread and on two.
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


#: ``entry()`` running ``chainrate verify``, which loads numpy and must pass; prints the BLAS variable and the
#: process's thread count on one line, then what ``verify`` printed.
THREADS_AFTER_ENTRY = """
import contextlib, io, os, sys
import chainrate.cli as cli
sys.argv = ["chainrate", "verify"]
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    try:
        cli.entry()
    except SystemExit as exc:
        assert exc.code == 0, exc.code
with open("/proc/self/status") as status:
    threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"), threads)
print(printed.getvalue(), end="")
"""

#: The variables OpenBLAS reads its thread count from.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(script: str, *argv: str, environ: dict[str, str] | None = None) -> str:
    """Stdout of ``script`` run with ``argv`` in a fresh interpreter, which must exit 0.

    ``environ`` replaces the inherited environment; ``PYTHONPATH`` is prefixed with the package either way.
    """
    environ = os.environ if environ is None else environ
    env = {**environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))}
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


@functools.cache
def threads_after_entry(**blas_variables: str) -> tuple[str, int, str]:
    """OPENBLAS_NUM_THREADS, the thread count and ``verify``'s stdout after ``entry()``, under ``blas_variables`` alone."""
    environ = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    first, printed = run_fresh(THREADS_AFTER_ENTRY, environ={**environ, **blas_variables}).split("\n", 1)
    variable, threads = first.split()
    return variable, int(threads), printed


needs_proc_status = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")


@needs_proc_status
def test_entry_runs_blas_on_one_thread():
    # By default OpenBLAS starts a worker per CPU at import; verify's small products never use them.
    variable, threads, printed = threads_after_entry()
    assert (variable, threads) == ("1", 1)
    assert printed == threads_after_entry(OPENBLAS_NUM_THREADS="2")[2]


@needs_proc_status
def test_entry_keeps_a_thread_count_the_user_set():
    # Control: the probe sees the pool. OpenBLAS counts the CPUs this process may run on.
    variable, threads, printed = threads_after_entry(OPENBLAS_NUM_THREADS="2")
    assert variable == "2"
    if len(os.sched_getaffinity(0)) >= 2:
        assert threads == 2
    # The oracle's stacked products must not make a printed float depend on the thread count.
    assert printed == threads_after_entry()[2]
