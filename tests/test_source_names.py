"""Every name that src/ defines at module or class level has a use outside
its tests: it is mentioned elsewhere in src/, in a perfbench/*.py file or in
the README.  Mentions are word-bounded, so strings and comments count, and a
name the benchmark's tracer patches stays in use for as long as it does.
Every name that a src/ module other than the package's __init__ imports is
read in that module."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scanned(tree: ast.Module):
    """(qualified name, name) of each def and class at module or class level."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFS):
                    yield f"{node.name}.{member.name}", member.name


def unused_names():
    trees = {path: ast.parse(path.read_text()) for path in SRC}
    # a word-bounded mention of a name is a maximal run of word characters
    src_words = Counter(re.findall(r"\w+", "\n".join(path.read_text() for path in SRC)))
    other_words = set(re.findall(r"\w+", "\n".join(
        path.read_text() for path in [*(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"])))
    # every def or class statement mentions its own name once
    definitions = Counter(node.name for tree in trees.values() for node in ast.walk(tree)
                          if isinstance(node, DEFS))
    unused = []
    for path, tree in trees.items():
        for qualified, name in _scanned(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if src_words[name] == definitions[name] and name not in other_words:
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_defined_name_has_a_use_outside_the_tests():
    assert unused_names() == []


def unused_imports(paths=SRC):
    """module.name for each name a module imports and never reads as a name
    (annotations count: they are expressions under postponed evaluation)."""
    unused = []
    for path in paths:
        if path.stem == "__init__":   # the package's imports are its exports
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}.{name}")
    return unused


def test_every_imported_name_is_used():
    assert unused_imports() == []


def test_an_unused_import_is_caught(tmp_path):
    module = tmp_path / "lifting.py"
    module.write_text("from __future__ import annotations\n\n"
                      "from fractions import Fraction\nimport os.path\n\n"
                      "def f(x: Fraction) -> int:\n    return 1\n\n"
                      "def g():\n    from math import comb\n    return os\n")
    assert unused_imports([module]) == ["lifting.comb"]
    module.write_text("from fractions import Fraction\n")
    assert unused_imports([module]) == ["lifting.Fraction"]
