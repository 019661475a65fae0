"""Smoke runs of every benchmark workload, traced and untraced.

Each run does only the workload's check instances (``--seconds 0``) and must
print a correct result line whose metrics are exactly those BENCHMARK.json
names for that mode.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    detail = json.loads(next(
        line.removeprefix("detail: ") for line in proc.stdout.splitlines()
        if line.startswith("detail: ")
    ))
    assert not detail["problems"]
    if trace:
        assert detail["counts_match_recheck"] and detail["reports_match_untraced"]
        assert result["metrics"]["trace.uncovered_share"]["value"] < 0.1


def test_refuses_without_library(tmp_path):
    """Outside a checkout with the library source, it fails without a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        (bench / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
