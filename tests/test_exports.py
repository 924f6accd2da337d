"""The package's export list matches what its __init__ imports."""

import ast
from pathlib import Path

import starprod


def test_all_lists_each_imported_public_name_once():
    exported = starprod.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(starprod, name), name
    tree = ast.parse(Path(starprod.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {n for n in imported if not n.startswith("_")} <= set(exported)
