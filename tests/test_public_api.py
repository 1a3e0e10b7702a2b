"""The package's public names: __all__ and the imports of __init__ agree."""

import ast
import re
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


def test_readme_lists_every_exported_name_once():
    # the README's API list is the contract: a name exported but not listed,
    # or listed twice, fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("### Library API", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`([^`]+)`", listed)
    assert {name: names.count(name) for name in filippov.__all__ if names.count(name) != 1} == {}
