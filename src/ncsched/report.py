"""Solve reports: canonical JSON serialization and CSV exports for plotting.

Wall-clock timings live only on the in-memory object (and the CLI's console
output); the serialized report is fully deterministic so that identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .instances import SCHEMA_VERSION, dump_json


@dataclass
class SolveReport:
    """Everything one solve run produced, plus diagnostics."""

    method: str | None
    plan: dict | None
    schedule: list[list[int]]
    control: np.ndarray | None
    verified: bool
    residuals: list[float]
    occupancy_histogram: list[list[int]]
    state_norms: np.ndarray | None  # N x (T+1) state 2-norms
    warnings: list[str] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


def _fields(rep: SolveReport) -> dict:
    """The serialized fields, with the two matrices as float arrays."""
    control, norms = (
        None if m is None else np.asarray(m, dtype=float) for m in (rep.control, rep.state_norms)
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "method": rep.method,
        "plan": rep.plan,
        "schedule": rep.schedule,
        "control": control,
        "verified": rep.verified,
        "residuals": [float(r) for r in rep.residuals],
        "occupancy_histogram": rep.occupancy_histogram,
        "state_norms": norms,
        "warnings": rep.warnings,
        "diagnostics": rep.diagnostics,
    }


def report_to_dict(rep: SolveReport) -> dict:
    """The serialized report as plain JSON types."""
    data = _fields(rep)
    for key in ("control", "state_norms"):
        if data[key] is not None:
            data[key] = data[key].tolist()
    return data


def report_from_dict(data: dict) -> SolveReport:
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {data['schema_version']}")
        control, norms = data["control"], data["state_norms"]
        if control is not None:
            control = np.asarray(control, dtype=float)
            if control.ndim != 2:
                raise SchemaError("control must be an N x T matrix")
        # null, or N lists of T+1 numbers for the N x T control
        shape = None if control is None else (control.shape[0], control.shape[1] + 1)
        if norms is not None:
            norms = np.asarray(norms)
            if norms.shape != shape or norms.dtype.kind not in "fiu":
                raise SchemaError("state_norms must be null or N lists of T+1 numbers")
            norms = norms.astype(float)
        return SolveReport(
            method=data["method"],
            plan=data["plan"],
            schedule=[list(map(int, slot)) for slot in data["schedule"]],
            control=control,
            verified=bool(data["verified"]),
            residuals=[float(r) for r in data["residuals"]],
            occupancy_histogram=[list(map(int, row)) for row in data["occupancy_histogram"]],
            state_norms=norms,
            warnings=list(data.get("warnings", [])),
            diagnostics=list(data.get("diagnostics", [])),
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed report file: {exc}") from exc


def write_report(path, rep: SolveReport) -> None:
    Path(path).write_text(dump_json(_fields(rep)))


def read_report(path) -> SolveReport:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return report_from_dict(data)


def export_plots(report_path, out_dir) -> list[Path]:
    """Write control.csv, schedule.csv, trajectories.csv next to any plot tool.

    The report is checked in full before any file is written, so a report
    that cannot be exported leaves ``out_dir`` untouched.

    Plant columns are 1-based; time columns are 0-based steps. schedule.csv
    has one row per active slot member, so empty slots and always-silent
    plants simply contribute no rows.
    """
    rep = read_report(report_path)
    if rep.control is None:
        raise SchemaError("report has no control matrix to export")
    if rep.state_norms is None:
        raise SchemaError("report has no state norms to export")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    def write(name: str, header: list[str], rows) -> Path:
        with (out / name).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)  # a float is written as its repr
        return out / name

    control = np.asarray(rep.control).T.tolist()
    norms = np.asarray(rep.state_norms).tolist()
    return [
        write("control.csv", ["t", "plant", "u"],
              ([t, i, u] for t, col in enumerate(control) for i, u in enumerate(col, 1))),
        write("schedule.csv", ["t", "plant"],
              ([t, i] for t, slot in enumerate(rep.schedule) for i in sorted(slot))),
        write("trajectories.csv", ["t", "plant", "state_norm_2"],
              ([t, i, x] for i, series in enumerate(norms, 1) for t, x in enumerate(series))),
    ]
