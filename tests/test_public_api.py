"""The package's public names: __all__ and the imports of __init__ agree."""

import ast
from pathlib import Path

import filippov


def test_all_names_resolve():
    missing = [name for name in filippov.__all__ if not hasattr(filippov, name)]
    assert missing == []


def test_imported_public_names_are_exported():
    tree = ast.parse(Path(filippov.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(filippov.__all__)) == []
    assert len(filippov.__all__) == len(set(filippov.__all__))
