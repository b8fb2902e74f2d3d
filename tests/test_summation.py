"""No float in the package is added by builtin ``sum()``, read off each module's syntax tree.

From Python 3.12 on, ``sum()`` adds floats with Neumaier compensation; before,
it added them one by one in index order. A float ``sum()`` would thus print
different bytes, and accept different records, on different supported Pythons.
The package writes each float sum out in index order from ``0.0``, which is
what ``sum()`` computed before 3.12, so every Python prints the same bytes.
``sum()`` stays only where every term is an int, which it adds exactly on any Python.
"""

import ast
from pathlib import Path

import chainrate

PACKAGE = Path(chainrate.__file__).resolve().parent

#: (module, source text of the expression that names ``sum``, whitespace collapsed) -> why every term is an int.
INTEGER_SUMS = {
    ("literal", "sum(bits)"): "a bit word, which _as_bits makes a list of int 0s and 1s",
    ("literal", "map(sum, itertools.combinations(left, j))"): "subsets of that bit word",
    ("literal", "map(sum, itertools.combinations(right, m - j))"): "subsets of that bit word",
    (
        "literal",
        "sum( subsets for ones, subsets in histogram.items() if subset_deviates(ones, total_ones - ones, m, n, delta) )",
    ): "Counter values, each a sum of products of Counter values",
    ("cli", "sum(1 for r in results if r.ok)"): "counts the checks that pass",
}


def sum_sites():
    """(module, source text) of each expression that calls ``sum`` or passes it on, e.g. to ``map``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if any(isinstance(child, ast.Name) and child.id == "sum" for child in ast.iter_child_nodes(node)):
                found.add((path.stem, " ".join(ast.get_source_segment(source, node).split())))
    return found


def test_every_builtin_sum_adds_ints():
    floats = sorted(sum_sites() - set(INTEGER_SUMS))
    assert not floats, f"sum() of floats depends on the Python version; add in index order from 0.0: {floats}"


def test_every_allowlisted_sum_is_still_there():
    assert set(INTEGER_SUMS) <= sum_sites()
