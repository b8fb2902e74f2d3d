"""Each rule of the package is written once, read off the messages its ``raise`` statements build.

A message template is the text of an exception's first argument with every
interpolated value replaced by ``{}``: ``f"got {q!r}"`` and ``f"got {p}"``
share the template ``got {}``. Two ``raise`` sites with one template are one
rule written twice, so the second should call the first's helper instead. A
template without a letter, such as ``{}: {}``, only puts a key path in front of
another message and states no rule of its own.
"""

import ast
from collections import defaultdict
from pathlib import Path

import chainrate

PACKAGE = Path(chainrate.__file__).resolve().parent


def template(node):
    """The message template of a string or f-string node, or None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return None


def raise_sites():
    """Message template -> the ``file:line`` of each ``raise`` that builds it."""
    sites = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                text = template(node.exc.args[0])
                if text is not None and any(c.isalpha() for c in text):
                    sites[text].append(f"{path.name}:{node.lineno}")
    return sites


def test_no_two_raise_sites_share_a_message_template():
    sites = raise_sites()
    # The scan reads f-strings: keyrate's p* rule is found, in keyrate alone.
    assert [site.split(":")[0] for site in sites["honest-zone parameter must be in [0, 0.5), got {}"]] == ["keyrate.py"]
    repeated = {text: where for text, where in sites.items() if len(where) > 1}
    assert not repeated, f"one rule raised from several places: {repeated}"
