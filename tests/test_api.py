import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tripletsim

PACKAGE = Path(tripletsim.__file__).resolve().parent


def test_every_exported_name_resolves():
    # `from tripletsim import *` fails on a name listed in __all__ that the
    # package no longer defines, so a removed export must leave __all__ too
    missing = [name for name in tripletsim.__all__ if not hasattr(tripletsim, name)]
    assert missing == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tripletsim.no_such_name


def test_importing_the_package_loads_no_physics_and_no_numpy():
    # a fresh interpreter, where no export has been resolved yet: `dir` must
    # list every export without importing it
    script = (
        "import json, sys, tripletsim\n"
        "missing = sorted(set(tripletsim.__all__) - set(dir(tripletsim)))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('tripletsim', 'numpy'))\n"
        "print(json.dumps([loaded, missing]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["tripletsim", "tripletsim._version"], []]


def _names_used(node):
    """Every name a subtree reads, writes, imports or takes as an attribute."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            counts[sub.name] += 1
    return counts


def _private_definitions(tree):
    """Module-level `_name` functions, classes and constants with their statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_private_module_level_name_is_dead():
    # a private helper, class or constant that nothing in the package reads
    # outside its own definition is dead code; public names are API
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if used[name] - _names_used(node)[name] == 0
    ]
    assert dead == []
