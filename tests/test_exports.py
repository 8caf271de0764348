"""The package's public names: each one ``uavcov.__all__`` lists is importable, once, and
README names it."""

import re
from pathlib import Path

import uavcov

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(uavcov.__all__) == len(set(uavcov.__all__))
    assert [name for name in uavcov.__all__ if not hasattr(uavcov, name)] == []


def test_readme_names_every_export():
    text = README.read_text(encoding="utf-8")
    assert [name for name in uavcov.__all__ if not re.search(rf"\b{name}\b", text)] == []
