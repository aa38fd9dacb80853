"""The package's top-level names: what the demos import, and nothing that does not resolve."""

import ast
from pathlib import Path

import pytest

import hankelshift

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "hankelshift":
            names.update(alias.name for alias in node.names)
    return names


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_only_public_names(demo):
    names = _top_level_imports(demo)
    assert names
    assert names <= set(hankelshift.__all__), sorted(names - set(hankelshift.__all__))


def test_every_public_name_resolves():
    assert len(hankelshift.__all__) == len(set(hankelshift.__all__))
    for name in hankelshift.__all__:
        assert getattr(hankelshift, name, None) is not None, name
