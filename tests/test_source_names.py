"""Every name that src/ defines at module or class level has a use outside
its tests: it is mentioned elsewhere in src/, in a perfbench/*.py file or in
the README.  Mentions are word-bounded, so strings and comments count, and a
name the benchmark's tracer patches stays in use for as long as it does."""

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
