"""The package's public names: every export resolves, once."""

import re
from pathlib import Path

import ncsched


def test_every_export_resolves():
    missing = [name for name in ncsched.__all__ if not hasattr(ncsched, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(ncsched.__all__) == len(set(ncsched.__all__))


def test_star_import():
    namespace: dict = {}
    exec("from ncsched import *", namespace)
    assert set(ncsched.__all__) <= namespace.keys()


def test_readme_entry_points_are_exported():
    # every plain name quoted in README's "Lower-level entry points" paragraph
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme.split("Lower-level entry points:", 1)[1].split("\n\n", 1)[0]
    names = [
        quoted
        for quoted in re.findall(r"`([^`]+)`", paragraph)
        if re.fullmatch(r"[A-Za-z_]\w*", quoted)
    ]
    assert len(names) >= 10
    assert [name for name in names if name not in ncsched.__all__] == []
