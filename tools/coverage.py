"""Gate the statements of ``src/chainrate`` that the tests never run.

Runs the tier-1 tests (``tests/``) in process through ``pytest.main`` under a
``sys.settrace`` tracer that line-traces only code objects from
``src/chainrate/``. Every executable statement of the package (found with
``ast``) that never ran is then listed as ``file:line: source``. The gate
passes only when that list matches ``ALLOWED`` below, keyed by file name and
the statement's first source line: a statement that never ran and is not
allowed fails it, and so does an allowed entry that now runs or is gone.
A failing test run fails it too. Standard library and pytest only; run from
anywhere:

    python tools/coverage.py

Line tracing slows the suite several times over.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chainrate"

#: (file, first source line) -> why the tests never run that statement.
ALLOWED = {
    ("cli.py", "entry()"): "the `python -m chainrate.cli` guard's call; the tests call entry() and main() in process",
    ("montecarlo.py", "continue"): "BTRS retry when rng.random() returns exactly 0.0, probability 2**-53 per draw",
}


def statements(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last line, first source line stripped) of each executable statement in ``path``.

    The span of a compound statement is its header, decorators included, so that
    a line event in its body does not count for it. A docstring or other bare
    constant is no statement here.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found.append((first, last, lines[node.lineno - 1].strip()))
    return sorted(found)


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args`` and, per package file name, the lines that ran."""
    hits: dict[str, set[int]] = {}
    files = {str(path): path.name for path in PACKAGE.glob("*.py")}
    traced: dict[str, str | None] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in traced:
            traced[filename] = files.get(os.path.realpath(filename))
        name = traced[filename]
        if name is None:
            return None
        ran = hits.setdefault(name, set())

        def on_line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    import chainrate

    if Path(chainrate.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"the tests imported chainrate from {chainrate.__file__}, not from {PACKAGE}")
    return int(code), hits


def main() -> int:
    code, hits = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        print(f"coverage: the tests failed (pytest exit code {code}); no coverage verdict", file=sys.stderr)
        return code
    missed = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(path.name, set())
        for first, last, text in statements(path):
            total += 1
            if ran.isdisjoint(range(first, last + 1)):
                missed.append((path.name, first, text))
    keys = {(name, text) for name, _, text in missed}
    unexpected = keys - ALLOWED.keys()
    stale = sorted(ALLOWED.keys() - keys)
    for name, line, text in missed:
        reason = ALLOWED.get((name, text))
        print(f"src/chainrate/{name}:{line}: {text}  [{'allowed: ' + reason if reason else 'NOT ALLOWED'}]")
    for name, text in stale:
        print(f"allowed but ran or gone: src/chainrate/{name}: {text}")
    ok = not unexpected and not stale
    print(f"coverage: {total} statements, {len(missed)} never ran, "
          f"{len(unexpected)} not allowed, {len(stale)} allowed entries stale: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
