"""Solve reports: canonical JSON serialization and CSV exports for plotting.

A report file (schema version 4) is one line of canonical JSON
(``instances.dump_json``, the format of instance files too), read back with
the same JSON type checks. It stores only what cannot be recomputed: the
route, plan, verdict and residuals, and the control over its schedule, the
control's nonzero pattern written once (per slot, the 1-based plants whose
input is nonzero, ascending). The control is ``{"shape": [N, T], "u": "..."}``:
``u`` holds those inputs in the schedule's order (slot 0's plants, then
slot 1's, ...) as little-endian IEEE float64 bytes, base64 encoded with the
standard alphabet and padding (RFC 4648), so every bit survives and a
write -> read -> write is byte-identical. A reader refuses a ``u`` that is
not such a string or holds a zero or non-finite input, a schedule that is
not T strictly ascending slots of plants 1..N holding one plant per input,
other than N residuals, and a null control with a schedule, residuals or
``verified: true``. ``verify`` and ``plots`` pass the instance's (N, T), so a
control of another shape is refused before its matrix is allocated, and
replay the states instead of reading them. Reports of versions 1
(a dense control and the state norms), 2 (``u`` as a list of numbers) and
3 (the nonzeros' plants and steps, and an occupancy histogram) are refused,
and so is a key that schema 4 does not write, at the top level or inside
``control``.
Wall-clock timings and the state norms live only on the in-memory object.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .core import ControlLogic, NcsInstance
from .errors import SchemaError
from .instances import _ints, _numbers, dump_json
from .sim import SimulationResult, slot_mask, slot_members, verify_logic

SCHEMA_VERSION = 4
# the byte layout of a control's packed inputs
PACKED_INPUT = np.dtype("<f8")
# the fields a solve's report builds on first read
BUILT_ON_READ = ("plan", "residuals")


@dataclass
class SolveReport:
    """Everything one solve run produced, plus diagnostics.

    ``schedule`` is the control's nonzero pattern, derived at each read. A
    solve's report (``solved``) keeps the plan object and the verifier's
    residual array, which give ``BUILT_ON_READ`` on first read, once, or
    inside ``report_to_dict``.
    """

    method: str | None
    plan: dict | None
    control: np.ndarray | None
    verified: bool
    residuals: list[float]
    # N x (T+1) state 2-norms from verification; like timings, never serialized
    state_norms: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @classmethod
    def solved(cls, method: str, plan, open_loop: list[int], outcome: SimulationResult,
               warnings: list[str], diagnostics: list[str], timings: dict[str, float]):
        """The report of a route whose logic ``outcome`` verified; ``plan`` gives
        the plan dict through ``to_report_dict()`` (brute force has none), and
        ``open_loop`` lists the 1-based plants that keep zero rows."""
        rep = cls.__new__(cls)
        rep.__dict__.update(
            method=method, control=outcome.control.u, verified=True, state_norms=outcome.norms,
            warnings=warnings, diagnostics=diagnostics, timings=timings,
            _kept=(plan, open_loop, outcome.terminal_residuals),
        )
        return rep

    @property
    def schedule(self) -> list[list[int]]:
        """Per slot, the 1-based plants whose input is nonzero; ``[]`` for no control."""
        return [] if self.control is None else slot_members(slot_mask(self.control), first=1)

    def __getattr__(self, name):
        # reached only for a field that is not set: the lists of a solve's report
        kept = self.__dict__.get("_kept")
        if kept is None or name not in BUILT_ON_READ:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        plan, open_loop, residuals = kept
        if name == "plan":
            value = None if plan is None else {**plan.to_report_dict(), "open_loop": open_loop}
        else:
            value = residuals.tolist()
        setattr(self, name, value)
        return value


def _pack(values: np.ndarray) -> str:
    """``values`` as little-endian float64 bytes in base64 (RFC 4648)."""
    return base64.b64encode(values.astype(PACKED_INPUT, copy=False).tobytes()).decode("ascii")


def _unpack(text) -> np.ndarray:
    """The floats ``_pack`` wrote into ``text``, checked to be whole float64s."""
    if not isinstance(text, str):
        raise SchemaError("control inputs must be a base64 string of little-endian float64")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise SchemaError(f"control inputs are not valid base64: {exc}") from exc
    if len(raw) % PACKED_INPUT.itemsize:
        raise SchemaError(f"control inputs hold {len(raw)} bytes, not a whole number "
                          f"of {PACKED_INPUT.itemsize}-byte floats")
    return np.frombuffer(raw, dtype=PACKED_INPUT)


def report_to_dict(rep: SolveReport) -> dict:
    """The serialized report as plain JSON types; the schedule and the packed
    inputs, in its order, are read off one nonzero mask of the control."""
    schedule, control = [], None
    if rep.control is not None:
        u = np.asarray(rep.control, dtype=float)
        mask = slot_mask(u)
        schedule = slot_members(mask, first=1)
        control = {"shape": list(u.shape), "u": _pack(u.T[mask])}
    return {
        "schema_version": SCHEMA_VERSION,
        "method": rep.method,
        "plan": rep.plan,
        "schedule": schedule,
        "control": control,
        "verified": rep.verified,
        "residuals": list(map(float, rep.residuals)),
        "warnings": rep.warnings,
        "diagnostics": rep.diagnostics,
    }


def _strings(values, what: str) -> list[str]:
    """``values`` if it is a JSON list of strings."""
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise SchemaError(f"{what} must be a list of strings")
    return values


def _refuse_unknown_keys(data: dict, known: tuple[str, ...], what: str) -> None:
    """``SchemaError`` naming, sorted, the keys of ``data`` outside ``known``."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise SchemaError(f"{what} has keys that schema {SCHEMA_VERSION} does not write: "
                          f"{', '.join(unknown)}")


def _dense_control(data: dict, schedule, expected: tuple[int, int] | None) -> np.ndarray:
    """The N x T float matrix of a control's packed inputs over ``schedule``, checked
    in full; a shape other than ``expected`` (when given) is refused before allocating."""
    shape = _ints(data["shape"], "control shape")
    _refuse_unknown_keys(data, ("shape", "u"), "control")
    if len(shape) != 2 or min(shape) < 0:
        raise SchemaError(f"control shape must be [N, T], got {shape}")
    if expected is not None and shape != list(expected):
        raise SchemaError(f"control shape {shape} does not match the instance's "
                          f"[N, T] = {list(expected)}")
    n, horizon = shape
    if len(schedule) != horizon:
        raise SchemaError(f"schedule has {len(schedule)} slots for the control's {horizon} steps")
    sizes = [len(_ints(slot, "schedule slots")) for slot in schedule]
    plant = np.fromiter(chain.from_iterable(schedule), dtype=np.int64, count=sum(sizes)) - 1
    t = np.repeat(np.arange(horizon), sizes)
    u = _unpack(data["u"])
    if plant.size != u.size:
        raise SchemaError(f"schedule holds {plant.size} plants but control packs {u.size} inputs")
    # within a slot each plant exceeds the one before it
    if plant.size and not (plant.min() >= 0 and plant.max() < n
                           and np.all((np.diff(plant) > 0) | (np.diff(t) > 0))):
        raise SchemaError(f"schedule slots must list plants 1..{n} strictly ascending")
    if np.any(u == 0):
        raise SchemaError("control lists a zero input")
    if not np.all(np.isfinite(u)):
        raise SchemaError("control lists a non-finite input")
    try:
        dense = np.zeros((n, horizon))
    except MemoryError as exc:
        raise SchemaError(f"control shape {shape} cannot be allocated") from exc
    dense[plant, t] = u
    return dense


def report_from_dict(data: dict, shape: tuple[int, int] | None = None) -> SolveReport:
    """The report a dict holds; ``shape`` is the instance's (N, T), if known."""
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(f"unsupported report schema_version {data['schema_version']}")
        _refuse_unknown_keys(data, ("schema_version", "method", "plan", "schedule", "control",
                                    "verified", "residuals", "warnings", "diagnostics"), "report")
        if type(data["verified"]) is not bool:
            raise SchemaError(f"verified must be true or false, got {data['verified']!r}")
        if data["method"] is not None and not isinstance(data["method"], str):
            raise SchemaError(f"method must be a string or null, got {data['method']!r}")
        if data["plan"] is not None and not isinstance(data["plan"], dict):
            raise SchemaError(f"plan must be an object or null, got {data['plan']!r}")
        residuals = [float(r) for r in _numbers(data["residuals"], "residuals")]
        control = None
        if data["control"] is None:
            for listed, what in ((data["schedule"] != [], "a schedule"), (residuals, "residuals"),
                                 (data["verified"], "verified: true")):
                if listed:
                    raise SchemaError(f"a report with a null control lists {what}")
        else:
            control = _dense_control(data["control"], data["schedule"], shape)
            if len(residuals) != len(control):
                raise SchemaError(f"{len(residuals)} residuals for the control's "
                                  f"{len(control)} plants")
        return SolveReport(
            method=data["method"],
            plan=data["plan"],
            control=control,
            verified=data["verified"],
            residuals=residuals,
            warnings=_strings(data.get("warnings", []), "warnings"),
            diagnostics=_strings(data.get("diagnostics", []), "diagnostics"),
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed report file: {exc}") from exc


def write_report(path, rep: SolveReport) -> None:
    Path(path).write_text(dump_json(report_to_dict(rep)))


def read_report(path, shape: tuple[int, int] | None = None) -> SolveReport:
    """The report in ``path``. Pass the instance's (N, T) as ``shape`` to have
    a control of another shape refused before its matrix is built."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return report_from_dict(data, shape)


def _write_csv(path: Path, header: str, *columns: list) -> Path:
    """Equal-length columns of ints and floats, one row per entry, as
    ``csv.writer`` writes them: a float as its repr, rows ended by CRLF."""
    rows = map(",".join, zip(*(map(repr, c) for c in columns)))
    path.write_text("\r\n".join([header, *rows, ""]), newline="")
    return path


def export_plots(inst: NcsInstance, report_path, out_dir) -> list[Path]:
    """Write control.csv, schedule.csv, trajectories.csv next to any plot tool.

    The state norms come from replaying the report's control on ``inst``
    with ``verify_logic`` at the default tolerances. The report is read and
    replayed before any file is written, so a report that cannot be exported
    leaves ``out_dir`` untouched.

    Plant columns are 1-based; time columns are 0-based steps. control.csv
    has a row for every (t, plant) pair, in t-major order, and
    trajectories.csv one for every (plant, t) pair up to T, in plant-major
    order. schedule.csv has one row per member of the control's schedule,
    so empty slots and always-silent plants simply contribute no rows.
    """
    rep = read_report(report_path, (inst.n, inst.horizon))
    if rep.control is None:
        raise SchemaError("report has no control matrix to export")
    norms = verify_logic(inst, ControlLogic(rep.control)).norms
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n, horizon = rep.control.shape
    steps, plants = np.arange(horizon + 1), np.arange(1, n + 1)
    slots = [(t, i) for t, slot in enumerate(rep.schedule) for i in slot]
    return [
        _write_csv(out / "control.csv", "t,plant,u", np.repeat(steps[:-1], n).tolist(),
                   np.tile(plants, horizon).tolist(), rep.control.T.ravel().tolist()),
        _write_csv(out / "schedule.csv", "t,plant", [t for t, _ in slots], [i for _, i in slots]),
        _write_csv(out / "trajectories.csv", "t,plant,state_norm_2",
                   np.tile(steps, n).tolist(), np.repeat(plants, horizon + 1).tolist(),
                   norms.ravel().tolist()),
    ]
