"""The package's public names: every export resolves, once."""

import re
from pathlib import Path

import argparse

import numpy as np

import ncsched
from ncsched.cli import build_parser
from ncsched.report import SolveReport, report_to_dict


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


def test_readme_report_fields_are_the_written_keys():
    # the key names quoted in README's report bullet: plain names, and the
    # "quoted" keys of the control's JSON layout
    bullet = readme_paragraph("* **report**:").split("\n* ", 1)[0]
    quoted = re.findall(r"`([^`]+)`", bullet)
    named = {q for q in quoted if re.fullmatch(r"[A-Za-z_]\w*", q)}
    named |= {key for q in quoted for key in re.findall(r'"(\w+)":', q)}
    rep = SolveReport(method="lane-plan", plan=None, control=np.array([[0.5, 0.0], [0.0, 2.0]]),
                      verified=True, residuals=[0.0, 0.0])
    data = report_to_dict(rep)
    assert named == set(data) | set(data["control"])
    assert set(data["control"]) == {"shape", "u"}
