"""The package's public names: every export resolves, once."""

import re
from pathlib import Path

import argparse

import ncsched
from ncsched.cli import build_parser


def test_every_export_resolves():
    missing = [name for name in ncsched.__all__ if not hasattr(ncsched, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(ncsched.__all__) == len(set(ncsched.__all__))


def test_star_import():
    namespace: dict = {}
    exec("from ncsched import *", namespace)
    assert set(ncsched.__all__) <= namespace.keys()


def readme_paragraph(opening: str) -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split(opening, 1)[1].split("\n\n", 1)[0]


def test_readme_entry_points_are_exported():
    # every plain name quoted in README's "Lower-level entry points" paragraph
    paragraph = readme_paragraph("Lower-level entry points:")
    names = [
        quoted
        for quoted in re.findall(r"`([^`]+)`", paragraph)
        if re.fullmatch(r"[A-Za-z_]\w*", quoted)
    ]
    assert len(names) >= 10
    assert [name for name in names if name not in ncsched.__all__] == []


def test_readme_flags_exist():
    # every --flag named in README's "Flags:" paragraph is a gen or solve option
    flags = set(re.findall(r"--[a-z][a-z-]*", readme_paragraph("Flags:")))
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    known = {
        flag
        for name in ("gen", "solve")
        for flag in commands.choices[name]._option_string_actions
    }
    assert len(flags) >= 4
    assert flags - known == set()
