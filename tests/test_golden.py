"""The CLI contract and the README's output, pinned byte for byte.

``tests/golden/cli/cases.txt`` is the one list of pinned ``chainrate``
invocations; next to it, each case's recorded stdout (``NAME.out``), stderr
(``NAME.err``) and exit code (``NAME.exit``), written by ``tools/golden.py``.
A change that alters output on purpose reruns the tool and says so; a change
that claims identical output leaves the recordings as they are.
``tests/golden/readme_library.txt`` holds what the README's Library code
prints. Each block of output the README prints must also appear in its
golden file, so the README cannot drift from what the program prints.

The manifest is numpy-free, so ``test_recordings_hold_on_other_pythons`` also
runs every case under Python 3.10, 3.12 and 3.13 where this machine has them:
the recordings must hold on every supported Python, not only on the one that
wrote them.
"""

import contextlib
import functools
import io
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
README = (ROOT / "README.md").read_text(encoding="utf-8")

CASES = golden.read_manifest()

#: The Pythons besides the one running the suite that every recording must hold on.
OTHER_PYTHONS = ("3.10", "3.12", "3.13")

#: Runs every manifest case through ``tools/golden.py``; prints the number of cases, then each mismatch's name.
MISMATCHES = """
import sys
sys.path.insert(0, sys.argv[1])
import golden
cases = golden.read_manifest()
print(len(cases))
for name, argv in cases.items():
    if golden.run(argv) != golden.recorded(name):
        print(name)
"""


def readme_blocks() -> list[tuple[str, str]]:
    """Every fenced block of the README as (language, body)."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_case_matches_its_recording(name):
    # stdout, stderr and exit code, each compared exactly.
    assert golden.run(CASES[name]) == golden.recorded(name)


def interpreter(version: str) -> str | None:
    """A ``python<version>`` that runs and reports that version: installed beside this Python, or on ``PATH``."""
    name = f"python{version}"
    beside = sorted(Path(sys.base_prefix).parent.glob(f"*/bin/{name}"))
    for candidate in filter(None, [*map(str, beside), shutil.which(name)]):
        # A version manager's shim may be on PATH and still exit 127 for a version it does not select.
        probe = subprocess.run([candidate, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                               capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return candidate
    return None


@functools.cache
def runs_on_other_pythons() -> dict[str, str | subprocess.CompletedProcess]:
    """Version -> its interpreter's run of every case, all runs started at once, or why there is none."""
    runs: dict[str, str | subprocess.Popen] = {}
    for version in OTHER_PYTHONS:
        if version == "%d.%d" % sys.version_info[:2]:
            runs[version] = "this interpreter runs the cases in process"
        elif (python := interpreter(version)) is None:
            runs[version] = f"no python{version} found"
        else:
            # -B keeps another release's bytecode out of the checkout; -W error fails on any warning, as the suite does.
            command = [python, "-B", "-W", "error", "-c", MISMATCHES, str(ROOT / "tools")]
            runs[version] = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    finished: dict[str, str | subprocess.CompletedProcess] = {}
    for version, run in runs.items():
        if isinstance(run, subprocess.Popen):
            out, err = run.communicate(timeout=120)
            run = subprocess.CompletedProcess(run.args, run.returncode, out, err)
        finished[version] = run
    return finished


@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_recordings_hold_on_other_pythons(version):
    # From 3.12 on, builtin sum() adds floats with compensation: bytes recorded on one release may differ on another.
    result = runs_on_other_pythons()[version]
    if isinstance(result, str):
        pytest.skip(result)
    assert result.returncode == 0, result.stderr
    checked, *mismatched = result.stdout.splitlines()
    assert (int(checked), mismatched) == (len(CASES), []), result.args[0]


def test_every_recording_belongs_to_a_case():
    expected = {name + suffix for name in CASES for suffix in golden.SUFFIXES}
    assert golden.recordings() == expected


def test_readme_commands_are_cases():
    commands = [body for _, body in readme_blocks() if body.startswith("chainrate ") and body.count("\n") == 1]
    assert len(commands) == 7
    for command in commands:
        assert shlex.split(command)[1:] in CASES.values(), command


def test_readme_sweep_rows_are_in_the_golden_file():
    blocks = [body for _, body in readme_blocks()]
    printed = blocks[blocks.index("chainrate rate-finite --sweep N\n") + 1]
    recorded = (GOLDEN / "cli" / "rate-finite_sweep_N.out").read_text(encoding="utf-8")
    chunks = printed.split("...\n")
    assert len(chunks) == 2
    assert recorded.startswith(chunks[0]) and recorded.endswith(chunks[1])


def test_readme_library_example_prints_its_golden_file():
    (code,) = [body for lang, body in readme_blocks() if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    expected = (GOLDEN / "readme_library.txt").read_text(encoding="utf-8")
    assert out.getvalue() == expected
    comments = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    assert len(comments) == 3
    for comment in comments:
        assert comment + "\n" in expected
