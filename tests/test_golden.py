"""The README's analytic commands and its Library example, pinned byte for byte.

``tests/golden/cli/`` holds the stdout of each analytic command the README
shows, and ``tests/golden/readme_library.txt`` what the README's Library code
prints. A change that alters output on purpose updates a file and says so; a
change that claims identical output leaves them as they are. Each block of
output the README prints must also appear in its golden file, so the README
cannot drift from what the program prints.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from chainrate import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
README = (ROOT / "README.md").read_text(encoding="utf-8")

#: Golden file under ``tests/golden/cli/`` -> the README command's arguments.
COMMANDS = {
    "rate-finite_sweep_N.csv": ("rate-finite", "--sweep", "N"),
    "rate-finite_sweep_qx_rounds_1e8.csv": ("rate-finite", "--sweep", "qx", "--rounds", "1e8"),
    "rate-asymptotic.csv": ("rate-asymptotic",),
    "noise_steps_9_honest_1234.csv": ("noise", "--steps", "9", "--honest", "1,2,3,4"),
    "bounds_rounds_1e7_epsilon_1e-36.json": ("bounds", "--rounds", "1e7", "--epsilon", "1e-36"),
}


def readme_blocks() -> list[tuple[str, str]]:
    """Every fenced block of the README as (language, body)."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_prints_its_golden_file(name, capsys):
    assert cli.main(list(COMMANDS[name])) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / "cli" / name).read_bytes()


def test_pinned_commands_are_the_readme_commands():
    commands = {body for _, body in readme_blocks()}
    for argv in COMMANDS.values():
        assert f"chainrate {' '.join(argv)}\n" in commands


def test_readme_sweep_rows_are_in_the_golden_file():
    blocks = [body for _, body in readme_blocks()]
    printed = blocks[blocks.index("chainrate rate-finite --sweep N\n") + 1]
    golden = (GOLDEN / "cli" / "rate-finite_sweep_N.csv").read_text(encoding="utf-8")
    chunks = printed.split("...\n")
    assert len(chunks) == 2
    assert golden.startswith(chunks[0]) and golden.endswith(chunks[1])


def test_readme_library_example_prints_its_golden_file():
    (code,) = [body for lang, body in readme_blocks() if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    golden = (GOLDEN / "readme_library.txt").read_text(encoding="utf-8")
    assert out.getvalue() == golden
    comments = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    assert len(comments) == 3
    for comment in comments:
        assert comment + "\n" in golden
