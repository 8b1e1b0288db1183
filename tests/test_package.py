import lexigauge


def test_every_exported_name_resolves():
    assert [name for name in lexigauge.__all__ if not hasattr(lexigauge, name)] == []
