"""Record what each command of the CLI golden manifest prints and returns.

``tests/golden/cli/cases.txt`` lists one case per line: a name, then the
arguments of one ``chainrate`` invocation as shell words. For every case this
script runs ``chainrate.cli.main`` in process from the repository root, with
warnings turned into errors, and writes three files next to the manifest:
``NAME.out`` (the stdout bytes), ``NAME.err`` (the stderr bytes) and
``NAME.exit`` (the exit code). It takes no flags; run from anywhere:

    python tools/golden.py

It rewrites every recording and removes those of cases no longer listed, so
``git diff tests/golden/cli`` is the review of what changed.
``tests/test_golden.py`` runs the same cases and compares all three facts
byte for byte; its ``test_recordings_hold_on_other_pythons`` is the
cross-Python check, which runs ``read_manifest``, ``run`` and ``recorded``
under Python 3.10, 3.12 and 3.13. Standard library only.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "cli" / "cases.txt"
#: The recorded facts of a case, one file each: stdout, stderr, exit code.
SUFFIXES = (".out", ".err", ".exit")

sys.path.insert(0, str(ROOT / "src"))
from chainrate import cli  # noqa: E402  (the checkout's package, not an installed one)


def read_manifest() -> dict[str, list[str]]:
    """Case name -> argv, in manifest order; a repeated name or argv is an error."""
    cases: dict[str, list[str]] = {}
    for number, line in enumerate(MANIFEST.read_text(encoding="utf-8").splitlines(), 1):
        words = shlex.split(line, comments=True)
        if not words:
            continue
        name, *argv = words
        if name in cases or argv in cases.values():
            raise ValueError(f"{MANIFEST.name}:{number}: case {name!r} repeats a name or an argv")
        cases[name] = argv
    return cases


def run(argv: list[str]) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of ``chainrate *argv``, run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors by exiting
                code = exc.code
    finally:
        os.chdir(cwd)
    return out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), code


def recorded(name: str) -> tuple[bytes, bytes, int]:
    """The checked-in stdout, stderr and exit code of case ``name``."""
    out, err, code = (MANIFEST.with_name(name + suffix).read_bytes() for suffix in SUFFIXES)
    return out, err, int(code)


def recordings() -> set[str]:
    """Names of every recording file next to the manifest."""
    return {path.name for path in MANIFEST.parent.iterdir() if path.suffix in SUFFIXES}


def main() -> int:
    outcomes = {name: run(argv) for name, argv in read_manifest().items()}
    for stale in recordings():
        (MANIFEST.parent / stale).unlink()
    for name, (out, err, code) in outcomes.items():
        for suffix, data in zip(SUFFIXES, (out, err, f"{code}\n".encode())):
            MANIFEST.with_name(name + suffix).write_bytes(data)
    print(f"recorded {len(outcomes)} cases in {MANIFEST.parent.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
