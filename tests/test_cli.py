import base64
import csv
import json
import warnings

import numpy as np
import pytest

from conftest import huge_initial_norm_instance, scalar_instance
from ncsched import (
    InstanceFile,
    NcsInstance,
    PlantDynamics,
    SchemaError,
    generate_instance,
    read_report,
    solve_instance,
    windowed_inputs,
    write_instance,
    write_report,
)
import ncsched.report
from ncsched.cli import main, parse_dims
from ncsched.instances import instance_from_dict
from ncsched.report import SolveReport, export_plots, report_from_dict, report_to_dict


def packed(*values):
    """Inputs as a report stores them: little-endian float64 bytes in base64."""
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


class TestParseDims:
    def test_expands_counts(self):
        assert parse_dims("2x3,3x2") == [2, 2, 2, 3, 3]

    def test_plain_list(self):
        assert parse_dims("1,2,3") == [1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_dims(",")

    @pytest.mark.parametrize("spec", ["2x0,3", "2x-4,1", "3x0"])
    def test_rejects_non_positive_count(self, spec):
        with pytest.raises(ValueError, match="bad dimension spec"):
            parse_dims(spec)

    def test_gen_with_zero_count_exits_3(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main([
            "gen", "--dims", "2x0,3,3", "--capacity", "1", "--horizon", "8",
            "--out", str(out),
        ]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
    def test_gen_with_range_that_overflows_exits_3(self, tmp_path, capsys, value):
        out = tmp_path / "inst.json"
        assert main([
            "gen", "--dims", "2,2,1", "--capacity", "1", "--horizon", "8",
            "--range", value, "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: value range must be positive with 2 * range finite")
        assert "Traceback" not in err
        assert not out.exists()

    def test_gen_with_negative_seed_exits_3(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main([
            "gen", "--dims", "2,2,1", "--capacity", "1", "--horizon", "8",
            "--seed", "-1", "--out", str(out),
        ]) == 3
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_gen_rejects_overflowing_draws_silently(self, tmp_path, capsys):
        # every controllability matrix overflows, so every draw is unreachable
        out = tmp_path / "inst.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "gen", "--dims", "2,2,1", "--capacity", "1", "--horizon", "8",
                "--range", "1e200", "--out", str(out),
            ]) == 3
        err = capsys.readouterr().err
        assert err == "error: plant 1: no unstable reachable draw in 10000 tries\n"


class TestCliFlow:
    def test_gen_solve_verify_plots(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        assert main([
            "gen", "--dims", "2x3,3x3", "--capacity", "2", "--horizon", "20",
            "--seed", "4", "--out", str(inst_path),
        ]) == 0
        assert main([
            "solve", str(inst_path), "--out", str(rep_path),
        ]) == 0
        assert main(["verify", str(inst_path), str(rep_path)]) == 0
        out_dir = tmp_path / "csv"
        assert main(["plots", str(inst_path), str(rep_path), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "control.csv").exists()
        assert (out_dir / "schedule.csv").exists()
        assert (out_dir / "trajectories.csv").exists()
        captured = capsys.readouterr()
        assert "verified=true" in captured.out

    def test_solve_reruns_byte_identical(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--dims", "2x4", "--capacity", "2", "--horizon", "15",
              "--seed", "9", "--out", str(inst_path)])
        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        assert main(["solve", str(inst_path), "--out", str(rep_a)]) == 0
        assert main(["solve", str(inst_path), "--out", str(rep_b)]) == 0
        assert rep_a.read_bytes() == rep_b.read_bytes()

    def test_solve_prints_write_time_only_with_out(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--dims", "2x4", "--capacity", "2", "--horizon", "15",
              "--seed", "9", "--out", str(inst_path)])
        capsys.readouterr()
        assert main(["solve", str(inst_path)]) == 0
        assert "time write" not in capsys.readouterr().out
        assert main(["solve", str(inst_path), "--out", str(tmp_path / "rep.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("  time write: ")
        assert lines[-2].startswith("  time total: ")

    def test_infeasible_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--dims", "1,1", "--capacity", "1", "--horizon", "1",
              "--seed", "1", "--out", str(inst_path)])
        rep_path = tmp_path / "rep.json"
        code = main(["solve", str(inst_path), "--out", str(rep_path)])
        assert code == 2
        report = read_report(rep_path)
        assert not report.verified
        assert report.method is None
        assert any("necessary condition" in line for line in report.diagnostics)
        # a failure report holds no control to replay
        capsys.readouterr()
        out_dir = tmp_path / "csv"
        assert main(["verify", str(inst_path), str(rep_path)]) == 3
        assert main(["plots", str(inst_path), str(rep_path), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: report holds no control matrix to verify",
            "error: report has no control matrix to export",
        ]
        assert not out_dir.exists()

    def test_overflow_during_verification_exit_code(self, tmp_path, capsys):
        # the burst (-4e307 at slot 1) is finite, but 10 times it passes the
        # largest float in the state at step 2; the nilpotent plant's open-loop
        # state passes it at step 1 (1e10 * 1e300), before its burst begins
        cases = [
            (PlantDynamics(np.diag([0.0, -2.0]), [10.0, 1.0]), [0.0, 1e307],
             "block-plan: state overflowed at step 2"),
            (PlantDynamics([[0.0, 1e10], [0.0, 0.0]], [0.0, 1.0]), [0.0, 1e300],
             "block-plan: open-loop state overflowed before the burst of window [0, 3)"),
        ]
        inst_path = tmp_path / "inst.json"
        for plant, xi, reason in cases:
            inst = NcsInstance((plant, PlantDynamics([[2.0]], [1.0])), (xi, [1.0]), 1, 5)
            write_instance(inst_path, InstanceFile(inst))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # overflow must not leak as a warning
                code = main(["solve", str(inst_path), "--method", "block",
                             "--out", str(tmp_path / "rep.json")])
            assert code == 2
            assert reason in capsys.readouterr().out

    def test_solve_prints_the_longest_slot_without_a_second_schedule(
        self, tmp_path, capsys, monkeypatch
    ):
        # the write reads the schedule off the control once; the printed
        # occupancy counts the control's nonzeros, building no schedule
        inst_path, rep_path = tmp_path / "inst.json", tmp_path / "rep.json"
        main(["gen", "--dims", "2x3,3x3", "--capacity", "2", "--horizon", "20",
              "--seed", "4", "--out", str(inst_path)])
        built, slot_members = [], ncsched.report.slot_members
        monkeypatch.setattr(
            ncsched.report, "slot_members", lambda *a, **k: built.append(1) or slot_members(*a, **k)
        )
        capsys.readouterr()
        assert main(["solve", str(inst_path), "--out", str(rep_path)]) == 0
        assert built == [1]
        assert capsys.readouterr().out.splitlines()[0] == (
            "verified=true method=lane-plan max_occupancy=2 worst_residual=0.000e+00"
        )
        assert max(map(len, read_report(rep_path).schedule)) == 2

    def test_solve_sets_aside_a_plant_within_terminal_rtol(self, tmp_path, capsys):
        # 0.01^4 ends within terminal_rtol without input, so two windows fit
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, InstanceFile(scalar_instance([0.01, 1.5, 1.5], 1, 4)))
        assert main(["solve", str(inst_path)]) == 0
        assert capsys.readouterr().out.startswith("verified=true method=lane-plan ")

    def test_verify_rejects_a_zero_row_left_away_from_zero(self, tmp_path, capsys):
        # plant 1 decays from 2e154 to 3.1e152 (2^-6 of its start) without
        # input; its zero row must not pass although 2e154 squared overflows
        inst = scalar_instance([0.5, 1.5, 1.5], 1, 6, states=[2e154, 1.0, 1.0])
        u = np.zeros((3, 6))
        u[1] = windowed_inputs(inst.plants[1], inst.xi[1], 0, 2, 6)
        u[2] = windowed_inputs(inst.plants[2], inst.xi[2], 2, 2, 6)
        inst_path, rep_path = tmp_path / "inst.json", tmp_path / "rep.json"
        write_instance(inst_path, InstanceFile(inst))
        write_report(rep_path, SolveReport(
            method=None, plan=None, control=u, verified=True, residuals=[0.0, 0.0, 0.0],
        ))
        assert main(["verify", str(inst_path), str(rep_path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "replay verified=false max_occupancy=1 worst_residual=1.562e-02",
            "  violation: 1 plants end away from zero (first few, 1-based: 1)",
        ]

    def test_overflowing_burst_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--dims", "2x155,3x155", "--capacity", "2", "--horizon", "620",
              "--seed", "1", "--out", str(inst_path)])
        assert main(["solve", str(inst_path), "--method", "lane"]) == 2
        assert "lane-plan: deadbeat burst overflowed" in capsys.readouterr().out

    def test_verify_rejects_vacuous_tolerance(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        main(["gen", "--dims", "2x3,3x3", "--capacity", "2", "--horizon", "20",
              "--seed", "4", "--out", str(inst_path)])
        assert main(["solve", str(inst_path), "--out", str(rep_path)]) == 0
        report = read_report(rep_path)
        report.control = np.zeros_like(report.control)
        write_report(rep_path, report)
        assert main(["verify", str(inst_path), str(rep_path)]) == 2
        capsys.readouterr()
        assert main(["verify", str(inst_path), str(rep_path), "--terminal-rtol", "nan"]) == 3
        assert "terminal_rtol must lie strictly between 0 and 1" in capsys.readouterr().err

    def test_verify_reports_replay_overflow_as_failed_verification(self, tmp_path, capsys):
        inst_path, rep_path = write_overflowing_replay(tmp_path)
        assert main(["verify", str(inst_path), str(rep_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "replay verified=false",
            "  violation: state overflowed at step 31",
        ]
        assert captured.err == ""

    def test_verify_fails_zero_row_for_initial_norm_past_the_float_range(self, tmp_path, capsys):
        # a hand-written all-zero report: plant 1's initial norm overflows
        inst_path, rep_path = tmp_path / "inst.json", tmp_path / "rep.json"
        write_instance(inst_path, InstanceFile(huge_initial_norm_instance()))
        write_report(rep_path, SolveReport(
            method=None, plan=None, control=np.zeros((2, 6)), verified=True,
            residuals=[0.0, 0.0],
        ))
        assert main(["verify", str(inst_path), str(rep_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "replay verified=false",
            "  violation: state overflowed at step 0",
        ]
        assert captured.err == ""

    def test_plots_reports_replay_overflow_as_failed_verification(self, tmp_path, capsys):
        inst_path, rep_path = write_overflowing_replay(tmp_path)
        out_dir = tmp_path / "csv"
        assert main(["plots", str(inst_path), str(rep_path), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "replay verified=false",
            "  violation: state overflowed at step 31",
        ]
        assert captured.err == ""
        assert not out_dir.exists()

    def test_solve_prints_route_warnings(self, tmp_path, capsys):
        # the relaxation verifies here (the plants' l1 rows use slots 0 and 3)
        # and always warns that l1 uniqueness is assumed
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, InstanceFile(scalar_instance([2.0, 0.5], capacity=1, horizon=4)))
        assert main(["solve", str(inst_path), "--method", "relax"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("verified=true method=relaxation ")
        assert lines[-1] == (
            "  warning: l1 minimizer uniqueness is assumed for every plant, not certified"
        )

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 3

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 99}')
        assert main(["solve", str(bad)]) == 3

    @pytest.mark.parametrize(
        "field, value, name",
        [("N", 2.0, "N"), ("M", 1.0, "capacity"), ("T", 8.0, "horizon"), ("M", True, "capacity")],
    )
    def test_non_integer_size_exit_code(self, tmp_path, capsys, field, value, name):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--dims", "1,2", "--capacity", "1", "--horizon", "8",
              "--seed", "1", "--out", str(inst_path)])
        data = json.loads(inst_path.read_text())
        data[field] = value
        inst_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["solve", str(inst_path)]) == 3
        assert f"{name} must be an integer, got {value!r}" in capsys.readouterr().err

    # each case puts a non-number where the generated 1,2 instance has numbers,
    # or a wrong type in its seed or provenance
    @pytest.mark.parametrize("path, value", [
        (("plants", 0, "A"), ["-1.42"]),
        (("plants", 0, "b"), [True]),
        (("plants", 1, "A"), [[1.0, 2.0], [3.0, 4.0]]),
        (("xi", 0), ["0.5"]),
        (("xi",), [[0.5], [[0.5, 1.0]]]),
        (("seed",), "1"),
        (("seed",), 1.0),
        (("seed",), True),
        (("provenance",), 5),
        (("provenance",), None),
    ], ids=[
        "A-string", "b-bool", "A-nested", "xi-string", "xi-nested", "seed-string",
        "seed-float", "seed-bool", "provenance-int", "provenance-null",
    ])
    def test_non_json_types_in_instance_exit_3(self, tmp_path, capsys, path, value):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--dims", "1,2", "--capacity", "1", "--horizon", "8",
              "--seed", "1", "--out", str(inst_path)])
        data = json.loads(inst_path.read_text())
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(SchemaError):
            instance_from_dict(data)
        inst_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["solve", str(inst_path)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    # each case breaks one rule of a 2 x 3 control whose schedule is
    # [[1], [2], []] and whose packed inputs are [0.5, -1.25], or of the
    # fields that must agree with it, and is refused with that rule's reason;
    # "schedule", "residuals" and "control" replace the report's own fields,
    # the other keys the control's
    @pytest.mark.parametrize("fields, reason", [
        ({"u": packed(0.5)}, "schedule holds 2 plants but control packs 1 inputs"),
        ({"schedule": [[0], [2], []]}, "plants 1..2 strictly ascending"),
        ({"schedule": [[1], [3], []]}, "plants 1..2 strictly ascending"),
        ({"schedule": [[1], [], [], [2]]}, "schedule has 4 slots for the control's 3 steps"),
        ({"schedule": [[1, 1], [], []]}, "plants 1..2 strictly ascending"),
        ({"schedule": [[2, 1], [], []], "u": packed(-1.25, 0.5)},
         "plants 1..2 strictly ascending"),
        ({"schedule": [[True], [2], []]}, "schedule slots must be a list of integers"),
        ({"schedule": [[1], 2, []]}, "schedule slots must be a list of integers"),
        ({"u": packed(0.0, -1.25)}, "zero input"),
        ({"shape": [2]}, "must be [N, T]"),
        ({"shape": [2.0, 3]}, "shape must be a list of integers"),
        ({"shape": [2, -3]}, "must be [N, T]"),
        ({"shape": [2, 4]}, "does not match the instance"),
        # allocating this dense matrix would fail
        ({"shape": [10**9, 10**9], "u": ""}, "does not match the instance"),
        # the schema-2 layout of the inputs
        ({"u": [0.5, -1.25]}, "base64 string"),
        # a lenient decoder would drop the "*" and read the two inputs
        ({"u": "AAAAAAAA*4D8AAAAAAAD0vw=="}, "not valid base64"),
        ({"u": base64.b64encode(bytes(12)).decode()}, "12 bytes"),
        ({"u": packed(float("nan"), -1.25)}, "non-finite input"),
        ({"u": packed(0.5, float("-inf"))}, "non-finite input"),
        ({"control": None}, "a report with a null control lists a schedule"),
        ({"control": None, "schedule": []}, "a report with a null control lists residuals"),
        ({"control": None, "schedule": [], "residuals": []},
         "a report with a null control lists verified: true"),
        ({"residuals": [0.0]}, "1 residuals for the control's 2 plants"),
    ], ids=[
        "unequal-lengths", "plant-0", "plant-N+1", "t-T", "duplicate", "out-of-order",
        "bool-plant", "slot-not-a-list", "zero-u", "shape-length", "shape-float",
        "shape-negative", "shape-not-instance", "shape-huge", "u-list", "u-bad-base64",
        "u-12-bytes", "u-nan", "u-inf", "null-control-schedule", "null-control-residuals",
        "null-control-verified", "residuals-not-N",
    ])
    def test_malformed_control_exits_3_before_writing(self, tmp_path, capsys, fields, reason):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        main(["gen", "--dims", "1,2", "--capacity", "1", "--horizon", "3",
              "--seed", "1", "--out", str(inst_path)])
        write_report(rep_path, sample_report())
        assert main(["plots", str(inst_path), str(rep_path), "--out-dir",
                     str(tmp_path / "ok")]) == 0
        data = json.loads(rep_path.read_text())
        assert data["schedule"] == [[1], [2], []]
        assert data["control"]["u"] == packed(0.5, -1.25)
        for key, value in fields.items():
            (data if key in ("schedule", "residuals", "control") else data["control"])[key] = value
        rep_path.write_text(json.dumps(data))
        capsys.readouterr()
        out_dir = tmp_path / "csv"
        assert main(["plots", str(inst_path), str(rep_path), "--out-dir", str(out_dir)]) == 3
        assert main(["verify", str(inst_path), str(rep_path)]) == 3
        err = capsys.readouterr().err
        assert err.count(reason) == 2 and "Traceback" not in err
        assert "control" in err or "schedule" in err
        assert list(out_dir.glob("*.csv")) == []

    def test_v1_report_exits_3(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        main(["gen", "--dims", "2x3,3x3", "--capacity", "2", "--horizon", "20",
              "--seed", "4", "--out", str(inst_path)])
        assert main(["solve", str(inst_path), "--out", str(rep_path)]) == 0
        # the version 1 layout: a dense control and the state norms
        rep = read_report(rep_path)
        data = json.loads(rep_path.read_text())
        data.update(schema_version=1, control=rep.control.tolist(),
                    state_norms=np.zeros((6, 21)).tolist())
        rep_path.write_text(json.dumps(data))
        capsys.readouterr()
        out_dir = tmp_path / "csv"
        assert main(["verify", str(inst_path), str(rep_path)]) == 3
        assert main(["plots", str(inst_path), str(rep_path), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.count("error: unsupported report schema_version 1") == 2
        assert not out_dir.exists()

    def test_v2_report_exits_3(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        main(["gen", "--dims", "2x3,3x3", "--capacity", "2", "--horizon", "20",
              "--seed", "4", "--out", str(inst_path)])
        assert main(["solve", str(inst_path), "--out", str(rep_path)]) == 0
        # the version 2 layout: the nonzero inputs as a JSON list of numbers
        rep = read_report(rep_path)
        data = json.loads(rep_path.read_text())
        data["schema_version"] = 2
        data["control"]["u"] = rep.control[rep.control != 0].tolist()
        rep_path.write_text(json.dumps(data))
        capsys.readouterr()
        out_dir = tmp_path / "csv"
        assert main(["verify", str(inst_path), str(rep_path)]) == 3
        assert main(["plots", str(inst_path), str(rep_path), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.count("error: unsupported report schema_version 2") == 2
        assert not out_dir.exists()


    @staticmethod
    def write_v3_report(tmp_path):
        """Instance and report paths; the report in the version 3 layout: the
        nonzeros' plants and steps in row-major order beside the schedule, and
        an occupancy histogram. Returns the paths and the report's dict."""
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        main(["gen", "--dims", "2x3,3x3", "--capacity", "2", "--horizon", "20",
              "--seed", "4", "--out", str(inst_path)])
        assert main(["solve", str(inst_path), "--out", str(rep_path)]) == 0
        rep = read_report(rep_path)
        data = json.loads(rep_path.read_text())
        plant, t = np.nonzero(rep.control)
        counts = np.bincount(list(map(len, rep.schedule))).tolist()
        histogram = [[k, c] for k, c in enumerate(counts) if c]
        data.update(schema_version=3, occupancy_histogram=histogram)
        data["control"] = {"shape": [6, 20], "plant": (plant + 1).tolist(), "t": t.tolist(),
                           "u": base64.b64encode(rep.control[plant, t].tobytes()).decode()}
        rep_path.write_text(json.dumps(data))
        return inst_path, rep_path, data

    def test_v3_report_exits_3(self, tmp_path, capsys):
        inst_path, rep_path, _ = self.write_v3_report(tmp_path)
        capsys.readouterr()
        out_dir = tmp_path / "csv"
        assert main(["verify", str(inst_path), str(rep_path)]) == 3
        assert main(["plots", str(inst_path), str(rep_path), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.count("error: unsupported report schema_version 3") == 2
        assert not out_dir.exists()

    def test_v3_report_relabelled_4_exits_3(self, tmp_path, capsys):
        # a version 3 report whose version is edited to 4 keeps its histogram
        # and the nonzeros' plants and steps; the reader names them
        inst_path, rep_path, data = self.write_v3_report(tmp_path)
        data["schema_version"] = 4
        top = "report has keys that schema 4 does not write: occupancy_histogram"
        inner = "control has keys that schema 4 does not write: plant, t"
        for reason in (top, inner):
            rep_path.write_text(json.dumps(data))
            with pytest.raises(SchemaError, match=f"^{reason}$"):
                read_report(rep_path)
            capsys.readouterr()
            assert main(["verify", str(inst_path), str(rep_path)]) == 3
            assert capsys.readouterr().err == f"error: {reason}\n"
            data.pop("occupancy_histogram", None)

    def test_warnings_and_diagnostics_stay_optional(self):
        rep = SolveReport(method=None, plan=None, control=np.array([[0.5, 0.0], [0.0, 2.0]]),
                          verified=True, residuals=[0.0, 0.0], warnings=["w"], diagnostics=["d"])
        data = report_to_dict(rep)
        del data["warnings"], data["diagnostics"]
        back = report_from_dict(data)
        assert back.warnings == back.diagnostics == []
        assert back.schedule == [[1], [2]]

    def test_self_contradicting_reports_exit_3(self, tmp_path, capsys):
        # a paper-demo report hand-edited so that its schedule, and no longer
        # its inputs, empties slot 0 and puts 12 plants in slot 49 at M = 10;
        # one with no control and a 250-slot schedule; one with 1 residual
        # for 100 plants
        inst_path, rep_path = tmp_path / "inst.json", tmp_path / "rep.json"
        main(["gen", "--dims", "2x50,3x50", "--capacity", "10", "--horizon", "50",
              "--seed", "12345", "--out", str(inst_path)])
        assert main(["solve", str(inst_path), "--out", str(rep_path)]) == 0
        good = json.loads(rep_path.read_text())
        assert good["schedule"][0] == [] and len(good["schedule"][49]) != 12
        moved = json.loads(rep_path.read_text())
        moved["schedule"][0], moved["schedule"][49] = [], list(range(1, 13))
        no_control = {**good, "control": None, "schedule": [[1]] * 250}
        one_residual = {**good, "residuals": [0.0]}
        for data, reason in (
            (moved, "plants but control packs"),
            (no_control, "a report with a null control lists a schedule"),
            (one_residual, "1 residuals for the control's 100 plants"),
        ):
            rep_path.write_text(json.dumps(data))
            with pytest.raises(SchemaError, match=reason):
                read_report(rep_path)
            capsys.readouterr()
            assert main(["verify", str(inst_path), str(rep_path)]) == 3
            assert reason in capsys.readouterr().err


def write_overflowing_replay(tmp_path):
    """Valid instance and report files whose zero control lets the 1e10
    plant's state pass the largest float at step 31: a failed verification,
    not an input error."""
    inst_path = tmp_path / "inst.json"
    rep_path = tmp_path / "rep.json"
    inst = scalar_instance([1e10, 2.0], capacity=1, horizon=40)
    write_instance(inst_path, InstanceFile(inst))
    write_report(rep_path, SolveReport(
        method=None, plan=None, control=np.zeros((2, 40)), verified=False,
        residuals=[0.0, 0.0],
    ))
    return inst_path, rep_path


def sample_report():
    return SolveReport(
        method="lane-plan",
        plan={"kind": "lane", "lanes": [[1, 2]], "widths": [[1, 2], [2, 2]],
              "open_loop": []},
        control=np.array([[0.5, 0.0, 0.0], [0.0, -1.25, 0.0]]),
        verified=True,
        residuals=[0.0, 1e-12],
        state_norms=np.array([[1.0, 0.5, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]]),
        warnings=["w"],
        diagnostics=["d"],
        timings={"total": 0.25},
    )


class TestReportRoundTrip:
    def test_round_trip_preserves_canonical_fields(self, tmp_path):
        rep = sample_report()
        path = tmp_path / "rep.json"
        write_report(path, rep)
        back = read_report(path)
        assert report_to_dict(back) == report_to_dict(rep)
        data = json.loads(path.read_text())
        # the schedule, and the inputs over it, 0.5 and -1.25, as
        # little-endian float64 bytes in base64
        assert data["schedule"] == back.schedule == rep.schedule == [[1], [2], []]
        assert data["control"] == {"shape": [2, 3], "u": "AAAAAAAA4D8AAAAAAAD0vw=="}
        # timings and state norms are never serialized
        assert back.timings == {} and back.state_norms is None
        assert "timings" not in data and "state_norms" not in data

    @pytest.mark.parametrize("field, value", [
        ("verified", "false"), ("verified", 0), ("verified", None),
        ("schedule", [["1"], [2], []]), ("schedule", [[True], [2], []]),
        ("schedule", [[1.0], [2], []]), ("schedule", [[1], [2], None]),
        ("residuals", ["0.0", 1e-12]), ("residuals", [False, 1e-12]),
        ("warnings", "abc"), ("warnings", [1]), ("diagnostics", [None]), ("method", 5),
        ("plan", 5), ("plan", "abc"),
    ])
    def test_rejects_non_json_types(self, field, value):
        data = report_to_dict(sample_report())
        data[field] = value
        with pytest.raises(SchemaError):
            report_from_dict(data)

    def test_unallocatable_control_is_a_schema_error(self, tmp_path):
        # no instance shape is passed, so the dense matrix is attempted; this
        # one, 10**15 plants over three empty slots, fails to allocate at once
        data = report_to_dict(sample_report())
        data["schedule"], data["control"] = [[], [], []], {"shape": [10**15, 3], "u": ""}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="cannot be allocated"):
            read_report(path)

    def test_write_read_write_byte_identical(self, tmp_path):
        rep = sample_report()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_report(path_a, rep)
        write_report(path_b, read_report(path_a))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_round_trip_keeps_every_bit_of_the_inputs(self, tmp_path):
        # subnormal, largest finite and inexact decimal inputs of both signs
        control = np.array([[5e-324, -5e-324, 0.0],
                            [1.7976931348623157e308, -1.7976931348623157e308, -0.1]])
        rep = SolveReport(method=None, plan=None, control=control, verified=False,
                          residuals=[0.0, 0.0])
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(path_a, rep)
        back = read_report(path_a)
        assert np.array_equal(back.control.view(np.uint64), control.view(np.uint64))
        write_report(path_b, back)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_dict_round_trip(self):
        rep = sample_report()
        assert report_to_dict(report_from_dict(report_to_dict(rep))) == report_to_dict(rep)

    def test_solved_report_round_trips_at_scale(self, tmp_path):
        dims = [2] * 200 + [3] * 200
        rec = generate_instance(len(dims), 40, 50, dims, seed=12345)
        rep = solve_instance(rec.instance)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(path_a, rep)
        back = read_report(path_a)
        write_report(path_b, back)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert np.array_equal(back.control, rep.control) and back.control.dtype == float
        for r in (rep, back):
            # plain JSON types, and the bytes the writer writes
            data = report_to_dict(r)
            assert type(data["control"]["u"]) is str
            text = json.dumps(data, sort_keys=True) + "\n"
            assert text.encode() == path_a.read_bytes()

        # the replayed trajectories are the solve's own state norms
        out_a, out_b = tmp_path / "csv_a", tmp_path / "csv_b"
        export_plots(rec.instance, path_a, out_a)
        export_plots(rec.instance, path_b, out_b)
        with (tmp_path / "want.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "plant", "state_norm_2"])
            for i, series in enumerate(rep.state_norms.tolist()):
                w.writerows([t, i + 1, repr(norm)] for t, norm in enumerate(series))
        assert (out_a / "trajectories.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        for name in ("control.csv", "schedule.csv", "trajectories.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestExportPlots:
    def test_csv_contents(self, tmp_path):
        # plant 1 coasts (x -> 2x); plant 2's one input zeroes it (x -> 4x + u)
        inst = scalar_instance([2.0, 4.0], capacity=1, horizon=2)
        rep = SolveReport(
            method="lane-plan",
            plan=None,
            control=np.array([[0.0, 0.0], [-4.0, 0.0]]),
            verified=True,
            residuals=[0.0, 0.0],
        )
        rep_path = tmp_path / "rep.json"
        write_report(rep_path, rep)
        out = tmp_path / "csv"
        export_plots(inst, rep_path, out)

        with (out / "schedule.csv").open() as fh:
            rows = list(csv.reader(fh))
        # header, then exactly one active member: plant 2 at t=0; plant 1
        # never transmits and slot t=1 is empty, so neither appears
        assert rows == [["t", "plant"], ["0", "2"]]

        with (out / "control.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "plant", "u"]
        assert len(rows) == 1 + 4  # every (t, plant) pair

        with (out / "trajectories.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [["t", "plant", "state_norm_2"],
                        ["0", "1", "1.0"], ["1", "1", "2.0"], ["2", "1", "4.0"],
                        ["0", "2", "1.0"], ["1", "2", "0.0"], ["2", "2", "0.0"]]
