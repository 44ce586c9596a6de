"""Every public name of the package has a caller in the package or the
benchmark; test-only helpers live under tests/ instead."""

import ast
from collections import Counter
from pathlib import Path

import qfano

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qfano").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# Entry points called from outside both trees.
EXEMPT = {"cli.main"} | {
    "%s.%s" % (getattr(qfano, name).__module__.rsplit(".", 1)[1], name)
    for name in qfano.__all__}


def _references(node):
    """Names a subtree reads: variables, attributes and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _public_definitions(path, tree):
    """(qualified name, node) for each public module-level function or
    class and each public method."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield "%s.%s" % (path.stem, node.name), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield "%s.%s.%s" % (path.stem, node.name, item.name), item


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in CALLERS}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    unused = []
    for path in SOURCES:
        for qualified, node in _public_definitions(path, trees[path]):
            if qualified in EXEMPT:
                continue
            # a recursive call is not a caller
            if total[node.name] - _references(node)[node.name] <= 0:
                unused.append(qualified)
    assert unused == [], unused
