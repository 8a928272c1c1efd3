"""The package's public surface: ``__all__`` and the names ``__init__`` binds
agree, each exported name and each definition is used outside the unit
tests, and the source stays within its line ceiling."""

import ast
import types
from collections import Counter
from pathlib import Path

import hctcodec

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in hctcodec.__all__ if not hasattr(hctcodec, name)]
    assert missing == []
    assert len(set(hctcodec.__all__)) == len(hctcodec.__all__)


def test_every_public_binding_is_exported():
    bound = {
        name for name, value in vars(hctcodec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound - set(hctcodec.__all__) == set()


PACKAGE = sorted((ROOT / "src" / "hctcodec").glob("*.py"))
# The product, the benchmark and the acceptance criteria: the callers that
# count.  __init__ only re-binds names, so it calls none of them.
CALLERS = [
    *(path for path in PACKAGE if path.name != "__init__.py"),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _identifiers(tree: ast.AST) -> Counter[str]:
    """How often each name, attribute and imported name occurs under ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def _used() -> Counter[str]:
    return sum((_identifiers(_tree(path)) for path in CALLERS), Counter())


def test_every_exported_name_has_a_caller_beyond_the_unit_tests():
    # A public name that only unit tests call is surface without a user:
    # the product, the benchmark or the acceptance criteria must name it.
    assert sorted(set(hctcodec.__all__) - _used().keys()) == []


def test_every_definition_has_a_caller_beyond_the_unit_tests():
    # The same rule for each module-level function and each method,
    # property and classmethod of a module-level class: a name outside its
    # own def, in the callers above, must name it.  Dunders are called by
    # the language, and nested functions by the def around them.
    used, unused = _used(), []
    for path in PACKAGE:
        tree = _tree(path)
        defs = [(None, node) for node in tree.body]
        defs += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
                 for item in node.body]
        for owner, node in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if used[node.name] == _identifiers(node)[node.name]:
                unused.append(f"{path.name}: {owner + '.' if owner else ''}{node.name}")
    assert unused == []


# Non-blank lines under src/hctcodec.  A change that needs more raises this
# ceiling and says why in CHANGES.md.
SOURCE_LINES = 1601


def test_source_lines_stay_at_or_below_their_ceiling():
    lines = sum(bool(line.strip()) for path in PACKAGE for line in path.read_text().splitlines())
    assert lines <= SOURCE_LINES, lines
