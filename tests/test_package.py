import ast
from pathlib import Path

import lexigauge


def test_every_exported_name_resolves():
    assert [name for name in lexigauge.__all__ if not hasattr(lexigauge, name)] == []


def test_every_exported_name_is_used_inside_the_package():
    # an export that no other module of the package reads is kept alive only
    # by its tests and demos
    used = set()
    for path in Path(lexigauge.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert [name for name in lexigauge.__all__ if name not in used] == []
