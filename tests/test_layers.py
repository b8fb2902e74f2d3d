"""The fast paths and the literal oracles share only a few definitions, read off each module's imports.

Every import statement counts, also one inside a function body or an
``if TYPE_CHECKING:`` block. Each module of the package is on one side. A
fast-path module imports neither numpy nor an oracle module nor ``verify``, and
an oracle module takes from the package only the shared definitions below, so
only ``cli`` and ``verify`` can import both sides.
"""

import ast
from pathlib import Path

import chainrate

PACKAGE = Path(chainrate.__file__).resolve().parent

FAST_PATH = {"__init__", "bell", "config", "keyrate", "montecarlo", "noise", "sampling"}
ORACLES = {"dm_oracle", "literal"}
BOTH = {"cli", "verify"}

#: The fast-path definitions an oracle may use: a record, the (n, m, epsilon) rule and the deviation event.
SHARED = {
    ("bell", "BellDiagonal"),
    ("sampling", "require_admissible"),
    ("sampling", "subset_deviates"),
    ("sampling", "_require_deviation"),
}

#: (module, function) where a fast-path module may import numpy. The literal round
#: sampler stays in montecarlo because bench/spans.py traces it by that name and
#: bench/tests/test_bench_spans.py calls montecarlo.sample_rounds.
NUMPY_ALLOWED = {("montecarlo", "sample_rounds")}


def imports(module):
    """(enclosing function or None, target, name or None, in package) for each name ``module`` imports.

    A package target is a module name such as ``"bell"``; the name is None when
    the whole module is imported. Another target is its top-level package, such as ``"numpy"``.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                found.append((function, rest or "__init__", None, True) if top == "chainrate" else (function, top, None, False))
        elif isinstance(node, ast.ImportFrom):
            top, _, rest = (node.module or "").partition(".")
            submodule = (node.module if node.level else rest) or "__init__"
            for alias in node.names:
                if not (node.level or top == "chainrate"):
                    found.append((function, top, alias.name, False))
                elif submodule == "__init__" and (PACKAGE / f"{alias.name}.py").exists():
                    found.append((function, alias.name, None, True))  # `from . import bell` imports a whole module
                else:
                    found.append((function, submodule, alias.name, True))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), None)
    return found


def test_every_module_is_on_exactly_one_side():
    on_disk = {path.stem for path in PACKAGE.glob("*.py")}
    assert not (FAST_PATH & ORACLES or FAST_PATH & BOTH or ORACLES & BOTH)
    assert on_disk == FAST_PATH | ORACLES | BOTH


def test_fast_paths_import_no_numpy_oracle_or_verify():
    for module in sorted(FAST_PATH):
        for function, target, _, in_package in imports(module):
            if in_package:
                assert target not in ORACLES | BOTH, f"{module} imports {target}"
            elif target == "numpy":
                assert (module, function) in NUMPY_ALLOWED, f"{module} imports numpy at {function or 'module level'}"


def test_oracles_import_only_shared_definitions():
    for module in sorted(ORACLES):
        for _, target, name, in_package in imports(module):
            if in_package:
                assert (target, name) in SHARED, f"{module} imports {(target, name)}"

