"""The package's public names: every export resolves, once."""

import re
from pathlib import Path

import argparse

import numpy as np

import ncsched
from ncsched import solve_instance
from ncsched.cli import build_parser
from ncsched.report import SolveReport, report_to_dict

from conftest import one_burst_instance, scalar_instance


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


def plain_names(text: str) -> set[str]:
    """The plain key names quoted in ``text``."""
    return {q for q in re.findall(r"`([^`]+)`", text) if re.fullmatch(r"[A-Za-z_]\w*", q)}


def test_readme_report_fields_are_the_written_keys():
    # the key names quoted in README's report bullet: plain names, and the
    # "quoted" keys of the control's JSON layout
    bullet = readme_paragraph("* **report**:").split("\n* ", 1)[0]
    named = plain_names(bullet)
    named |= {key for q in re.findall(r"`([^`]+)`", bullet) for key in re.findall(r'"(\w+)":', q)}
    rep = SolveReport(method="lane-plan", plan=None, control=np.array([[0.5, 0.0], [0.0, 2.0]]),
                      verified=True, residuals=[0.0, 0.0])
    data = report_to_dict(rep)
    assert named == set(data) | set(data["control"])
    assert set(data["control"]) == {"shape", "u"}


def test_readme_plan_keys_are_the_written_keys(demo_instance):
    # README's plan bullet: the keys every plan object has, then one line of
    # its own keys per route kind
    bullet = readme_paragraph("* **plan**:").split("\n* ", 1)[0]
    head, *lines = bullet.split("\n  - ")
    assert head.startswith(" null for brute force.")
    shared = plain_names(head)
    documented = {re.match(r'`"(\w+)"`:', line)[1]: shared | plain_names(line) for line in lines}
    written = {}
    for inst, method in [(demo_instance, "lane"), (demo_instance, "block"),
                         (one_burst_instance(), "relax")]:
        plan = report_to_dict(solve_instance(inst, method=method))["plan"]
        written[plan["kind"]] = set(plan)
    assert written == documented
    assert documented["relaxation"] == {"kind", "sparsity", "open_loop"}
    brute = solve_instance(scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=3), method="brute")
    assert report_to_dict(brute)["plan"] is None
