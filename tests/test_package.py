import ast
from pathlib import Path

import lexigauge


def test_every_exported_name_resolves():
    assert [name for name in lexigauge.__all__ if not hasattr(lexigauge, name)] == []


def test_export_list_names_exactly_the_imported_names():
    # __init__.py writes each export twice, once imported and once in
    # __all__; the two lists must not drift apart
    tree = ast.parse(Path(lexigauge.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert set(imported) == set(lexigauge.__all__)
    assert len(lexigauge.__all__) == len(set(lexigauge.__all__))
