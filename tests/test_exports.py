"""The package's public names: each one ``uavcov.__all__`` lists is importable, once."""

import uavcov


def test_every_exported_name_resolves_once():
    assert len(uavcov.__all__) == len(set(uavcov.__all__))
    assert [name for name in uavcov.__all__ if not hasattr(uavcov, name)] == []
