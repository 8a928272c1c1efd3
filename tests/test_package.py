"""The package's public surface: ``__all__`` and the names ``__init__`` binds
agree, and each exported name is used outside the unit tests."""

import ast
import types
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


def _identifiers(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_name_has_a_caller_beyond_the_unit_tests():
    # A public name that only unit tests call is surface without a user:
    # the product, the scripts, the benchmark or the acceptance criteria
    # must name it.
    sources = [
        *(p for p in (ROOT / "src" / "hctcodec").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "bench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    used = set().union(*map(_identifiers, sources))
    assert sorted(set(hctcodec.__all__) - used) == []
