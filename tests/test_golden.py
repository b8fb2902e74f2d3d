"""The CLI contract and the README's output, pinned byte for byte.

``tests/golden/cli/cases.txt`` is the one list of pinned ``chainrate``
invocations; next to it, each case's recorded stdout (``NAME.out``), stderr
(``NAME.err``) and exit code (``NAME.exit``), written by ``tools/golden.py``.
A change that alters output on purpose reruns the tool and says so; a change
that claims identical output leaves the recordings as they are.
``tests/golden/readme_library.txt`` holds what the README's Library code
prints. Each block of output the README prints must also appear in its
golden file, so the README cannot drift from what the program prints.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import golden

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
README = (ROOT / "README.md").read_text(encoding="utf-8")

CASES = golden.read_manifest()


def readme_blocks() -> list[tuple[str, str]]:
    """Every fenced block of the README as (language, body)."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_case_matches_its_recording(name):
    # stdout, stderr and exit code, each compared exactly.
    assert golden.run(CASES[name]) == golden.recorded(name)


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
