import csv
import json
import warnings

import numpy as np
import pytest

from ncsched import read_report, write_report
from ncsched.cli import main, parse_dims
from ncsched.report import SolveReport, export_plots, report_from_dict, report_to_dict


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
        assert main(["plots", str(rep_path), "--out-dir", str(out_dir)]) == 0
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

    def test_overflow_during_verification_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--dims", "2x100,3x100", "--capacity", "2", "--horizon", "400",
              "--seed", "7", "--out", str(inst_path)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow must not leak as a warning
            code = main(["solve", str(inst_path), "--method", "block",
                         "--out", str(tmp_path / "rep.json")])
        assert code == 2
        assert "block-plan: state overflowed at step 319" in capsys.readouterr().out

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

    @pytest.mark.parametrize("norms", [[1.0, 2.0], None])
    def test_plots_rejects_bad_state_norms_before_writing(self, tmp_path, capsys, norms):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        main(["gen", "--dims", "2x3,3x3", "--capacity", "2", "--horizon", "20",
              "--seed", "4", "--out", str(inst_path)])
        assert main(["solve", str(inst_path), "--out", str(rep_path)]) == 0
        data = json.loads(rep_path.read_text())
        data["state_norms"] = norms
        rep_path.write_text(json.dumps(data))
        capsys.readouterr()
        out_dir = tmp_path / "csv"
        assert main(["plots", str(rep_path), "--out-dir", str(out_dir)]) == 3
        assert "state norms" in capsys.readouterr().err.replace("_", " ")
        assert list(out_dir.glob("*.csv")) == []


class TestReportRoundTrip:
    def _sample_report(self):
        return SolveReport(
            method="lane-plan",
            plan={"kind": "lane", "lanes": [[1, 2]], "widths": [[1, 2], [2, 2]],
                  "open_loop": []},
            schedule=[[1], [2], []],
            control=np.array([[0.5, 0.0, 0.0], [0.0, -1.25, 0.0]]),
            verified=True,
            residuals=[0.0, 1e-12],
            occupancy_histogram=[[0, 1], [1, 2]],
            state_norms=[[1.0, 0.5, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]],
            warnings=["w"],
            diagnostics=["d"],
            timings={"total": 0.25},
        )

    def test_round_trip_preserves_canonical_fields(self, tmp_path):
        rep = self._sample_report()
        path = tmp_path / "rep.json"
        write_report(path, rep)
        back = read_report(path)
        assert report_to_dict(back) == report_to_dict(rep)
        # timings are console diagnostics, never serialized
        assert back.timings == {}
        assert "timings" not in json.loads(path.read_text())

    def test_write_read_write_byte_identical(self, tmp_path):
        rep = self._sample_report()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_report(path_a, rep)
        write_report(path_b, read_report(path_a))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_dict_round_trip(self):
        rep = self._sample_report()
        assert report_to_dict(report_from_dict(report_to_dict(rep))) == report_to_dict(rep)


class TestExportPlots:
    def test_csv_contents(self, tmp_path):
        rep = SolveReport(
            method="lane-plan",
            plan=None,
            schedule=[[2], []],
            control=np.array([[0.0, 0.0], [-4.0, 0.0]]),
            verified=True,
            residuals=[0.0, 0.0],
            occupancy_histogram=[[0, 1], [1, 1]],
            state_norms=[[1.0, 2.0, 4.0], [1.0, 0.0, 0.0]],
        )
        rep_path = tmp_path / "rep.json"
        write_report(rep_path, rep)
        out = tmp_path / "csv"
        export_plots(rep_path, out)

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
        assert rows[0] == ["t", "plant", "state_norm_2"]
        assert len(rows) == 1 + 6
