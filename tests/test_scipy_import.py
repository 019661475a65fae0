"""scipy loads on the first LP only: every other path runs on numpy alone.

Each test runs its script in a fresh interpreter, since this one has loaded
scipy long ago. The script's last line of output is a JSON result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

PRELUDE = """
import json
import sys


def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
"""

NUMPY_ONLY_PATHS = PRELUDE + """
from pathlib import Path

from ncsched import (
    ControlLogic,
    generate_instance,
    read_report,
    solve_instance,
    verify_logic,
    write_report,
)
from ncsched.cli import main
from ncsched.report import export_plots

out = Path(sys.argv[1])
inst = generate_instance(3, 2, 6, [1, 2, 2], seed=3).instance
for method in ("lane", "block", "brute"):
    path = out / f"{method}.json"
    write_report(path, solve_instance(inst, method=method))
    assert verify_logic(inst, ControlLogic(read_report(path).control)).verified
    export_plots(inst, path, out / f"{method}-plots")
files = [str(out / name) for name in ("inst.json", "lane-cli.json", "relax-cli.json")]
codes = [
    main(["gen", "--dims", "1,2,2", "--capacity", "2", "--horizon", "6",
          "--seed", "3", "--out", files[0]]),
    main(["solve", files[0], "--method", "lane", "--out", files[1]]),
    main(["verify", files[0], files[1]]),
    main(["plots", files[0], files[1], "--out-dir", str(out / "cli-plots")]),
]
before_lp = scipy_loaded()
codes.append(main(["solve", files[0], "--method", "relax", "--out", files[2]]))
relax = read_report(files[2])
print(json.dumps({"codes": codes, "before_lp": before_lp, "after_lp": scipy_loaded(),
                  "relax_method": relax.method, "relax_verified": relax.verified}))
"""

FIRST_LP_TWICE = PRELUDE + """
from conftest import triangle_instance
from ncsched import solve_instance
from ncsched.instances import dump_json
from ncsched.report import report_to_dict

before = scipy_loaded()
reports = [solve_instance(triangle_instance()) for _ in range(2)]
print(json.dumps({"before": before, "methods": [r.method for r in reports],
                  "warnings": [r.warnings for r in reports],
                  "dumps": [dump_json(report_to_dict(r)) for r in reports]}))
"""


def run_fresh(script: str, *args: str) -> dict:
    """The JSON result ``script`` prints last, run in a new interpreter that
    finds the package and the test helpers."""
    paths = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_only_the_relaxation_loads_scipy(tmp_path):
    result = run_fresh(NUMPY_ONLY_PATHS, str(tmp_path))
    assert result["before_lp"] == []
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["relax_method"] == "relaxation" and result["relax_verified"]
    assert {"scipy", "scipy.optimize", "scipy.sparse"} <= set(result["after_lp"])


def test_first_lp_report_matches_the_next():
    # scipy is imported inside the cascade's warning capture on the first LP;
    # a warning raised by that import would reach the first report only
    result = run_fresh(FIRST_LP_TWICE)
    assert result["before"] == []
    assert result["methods"] == ["relaxation", "relaxation"]
    uniqueness = ["l1 minimizer uniqueness is assumed for every plant, not certified"]
    assert result["warnings"] == [uniqueness, uniqueness]
    first, second = result["dumps"]
    assert first == second
