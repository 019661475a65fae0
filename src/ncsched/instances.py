"""Instance files: seeded generation and lossless JSON round-tripping."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import NcsInstance, PlantDynamics, PlantGroup, lifted_matrices, rank_and_cond
from .errors import RejectionBudgetError, SchemaError

SCHEMA_VERSION = 1
SPECTRAL_RADIUS_MIN = 1.0 + 1e-9
REJECTION_BUDGET = 10_000


@dataclass(frozen=True)
class InstanceFile:
    """An instance plus the metadata needed to reproduce and audit it."""

    instance: NcsInstance
    seed: int | None = None
    provenance: str = ""


def spectral_radius(A: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))).max())


def generate_instance(
    n: int,
    capacity: int,
    horizon: int,
    dims: list[int],
    value_range: float = 2.0,
    seed: int = 0,
    max_draws: int = REJECTION_BUDGET,
) -> InstanceFile:
    """Random instance family: open-loop unstable, reachable plants.

    Each plant's matrices are drawn entrywise uniform on
    [-value_range, value_range] and redrawn until the state map's spectral
    radius exceeds 1 and the pair passes the reachability rank test. Initial
    states are uniform on [-1, 1]^d, redrawn if exactly zero. Deterministic
    for a fixed seed: the draws come in this order, one plant after the
    other, and only the checks of each run of equal dimensions are batched.
    """
    if len(dims) != n:
        raise ValueError(f"got {len(dims)} dimensions for {n} plants")
    if not 0 < capacity < n:
        raise ValueError(f"capacity must satisfy 0 < M < N, got M={capacity}, N={n}")
    if not (value_range > 0 and math.isfinite(2.0 * value_range)):
        raise ValueError(f"value range must be positive with 2 * range finite: {value_range!r}")
    if min(dims) < 1:
        raise ValueError("plant dimensions must be positive")
    rng = np.random.default_rng(seed)
    runs: dict[int, list] = {}  # per dimension, the drawn runs' stacks
    first = 0
    for d, run in itertools.groupby(dims):
        need = len(list(run))
        stacks = _draw_plants(rng, d, need, value_range, max_draws, first)
        runs.setdefault(d, []).append((np.arange(first, first + need), *stacks))
        first += need
    starts = np.cumsum([0, *dims[:-1]])
    states = _draw_states(rng, dims, starts)
    groups = []
    for d, parts in sorted(runs.items()):
        idx, A, b, psi, reachable, cond = (np.concatenate(f) for f in zip(*parts))
        xi = states[starts[idx, None] + np.arange(d)]
        groups.append(PlantGroup(idx, A, b, xi, psi, reachable, cond))
    instance = NcsInstance._from_groups(groups, capacity, horizon)
    provenance = (
        f"generated: n={n} capacity={capacity} horizon={horizon} "
        f"range={value_range} seed={seed}"
    )
    return InstanceFile(instance=instance, seed=seed, provenance=provenance)


def _draw_plants(
    rng: np.random.Generator,
    d: int,
    need: int,
    value_range: float,
    max_draws: int,
    first: int,
) -> tuple[np.ndarray, ...]:
    """``need`` consecutive plants of dimension ``d``, numbered from ``first``.

    Returns the stacks ``A``, ``b``, ``psi``, ``reachable`` and ``cond`` of a
    ``PlantGroup``. Every candidate, accepted or not, takes the next
    ``d*d + d`` uniforms (A row-major, then b), so blocks of candidates are
    drawn and checked at once. The first block holds as many candidates as
    plants are needed, and each later one as many as the acceptance rate
    seen so far says the rest need, plus a tenth. The stream is then rewound
    and advanced past the last acceptance, leaving the generator where
    drawing one candidate at a time would have left it.
    """
    width = d * d + d
    state = rng.bit_generator.state
    kept = []  # per block, the accepted candidates' rows and controllability facts
    accepted = drawn = 0
    last = -1  # the latest acceptance's position, counted from the run start
    while accepted < need:
        misses = drawn - last - 1  # rejections since the previous acceptance
        if misses >= max_draws:
            raise RejectionBudgetError(
                f"plant {first + accepted + 1}: "
                f"no unstable reachable draw in {max_draws} tries"
            )
        left = need - accepted
        size = left if not drawn else math.ceil(1.1 * left * drawn / max(accepted, 1))
        size = min(size + 8, max_draws - misses)
        block = rng.uniform(-value_range, value_range, (size, width))
        A = block[:, : d * d].reshape(size, d, d)
        unstable = np.flatnonzero(np.abs(np.linalg.eigvals(A)).max(axis=-1) > SPECTRAL_RADIUS_MIN)
        psi = lifted_matrices(A[unstable], block[unstable, d * d :], d)
        full, cond = rank_and_cond(psi)
        # the block ends within max_draws of the previous acceptance, so an
        # acceptance inside it is always within the budget
        take = np.flatnonzero(full)[:left]
        if take.size:
            kept.append((block[unstable[take]], psi[take], full[take], cond[take]))
            accepted += take.size
            last = drawn + unstable[take[-1]]
        drawn += size
    rng.bit_generator.state = state
    rng.uniform(-value_range, value_range, (last + 1) * width)
    rows, psi, reachable, cond = (np.concatenate(f) for f in zip(*kept))
    return rows[:, : d * d].reshape(need, d, d), rows[:, d * d :], psi, reachable, cond


def _draw_states(rng: np.random.Generator, dims, starts: np.ndarray) -> np.ndarray:
    """The initial states, concatenated (state i at ``starts[i]``): uniform on
    [-1, 1]^d, redrawn if exactly zero."""
    # one uniform per state entry unless a state comes out exactly zero
    state = rng.bit_generator.state
    flat = rng.uniform(-1.0, 1.0, sum(dims))
    if np.logical_or.reduceat(flat != 0, starts).all():
        return flat
    rng.bit_generator.state = state
    xi = []
    for d in dims:
        x = rng.uniform(-1.0, 1.0, d)
        while not x.any():
            x = rng.uniform(-1.0, 1.0, d)
        xi.append(x)
    return np.concatenate(xi)


def instance_to_dict(rec: InstanceFile) -> dict:
    inst = rec.instance
    return {
        "schema_version": SCHEMA_VERSION,
        "N": inst.n,
        "M": inst.capacity,
        "T": inst.horizon,
        "plants": [
            {"A": p.A.reshape(-1).tolist(), "b": p.b.tolist()} for p in inst.plants
        ],
        "xi": [x.tolist() for x in inst.xi],
        "seed": rec.seed,
        "provenance": rec.provenance,
    }


def instance_from_dict(data: dict) -> InstanceFile:
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {data['schema_version']}"
            )
        n, capacity, horizon = data["N"], data["M"], data["T"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise SchemaError(f"N must be an integer, got {n!r}")
        plants = []
        for entry in data["plants"]:
            b = np.asarray(entry["b"], dtype=float)
            d = b.shape[0]
            A = np.asarray(entry["A"], dtype=float)
            if A.size != d * d:
                raise SchemaError(
                    f"state map has {A.size} entries, expected {d * d}"
                )
            plants.append(PlantDynamics(A.reshape(d, d), b))
        if len(plants) != n:
            raise SchemaError(f"N={n} but {len(plants)} plants listed")
        xi = [np.asarray(x, dtype=float) for x in data["xi"]]
        instance = NcsInstance(
            plants=tuple(plants), xi=tuple(xi), capacity=capacity, horizon=horizon
        )
        return InstanceFile(
            instance=instance,
            seed=data.get("seed"),
            provenance=data.get("provenance", ""),
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed instance file: {exc}") from exc


def dump_json(data: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    The text equals ``json.dumps(data, indent=2, sort_keys=True) + "\\n"``,
    but lists of plain floats or ints are joined in one call instead of
    going through the pure-Python encoder item by item. Floats use Python's
    shortest round-trip representation, so write -> read -> write is
    byte-identical.
    Unlike ``json.dumps``, a dict key that is not a ``str`` raises
    ``TypeError``; no caller has one.
    """
    out: list[str] = []
    _encode(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(obj, newline: str, out: list[str]) -> None:
    """Append the text of one JSON value to ``out``.

    ``newline`` is a line break plus the current indent. Pieces are appended,
    not concatenated, so a large report is copied once, by the final join,
    instead of once per nesting level.
    """
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        items = _join_numbers(obj, sep)
        if items is not None:
            out.append("[" + inner + items + newline + "]")
            return
        out.append("[" + inner)
        for k, item in enumerate(obj):
            if k:
                out.append(sep)
            _encode(item, inner, out)
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + inner)
        # encode_basestring_ascii raises TypeError on a key that is not a str
        for k, key in enumerate(sorted(obj)):
            out.append((sep if k else "") + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, out)
        out.append(newline + "}")
    else:
        out.append(_encode_scalar(obj))


def _encode_scalar(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _encode_float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _join_numbers(items, sep: str) -> str | None:
    """All-int or all-float items, joined by ``sep``; None for any other list.

    The first item picks the join. ``int.__repr__`` and ``float.__repr__``
    raise on every other type except bool, an int subclass that JSON spells
    ``true``/``false``. A non-finite float shows as ``nan``/``inf``, which
    JSON spells ``NaN``/``Infinity``.
    """
    try:
        if isinstance(items[0], int):
            return None if bool in set(map(type, items)) else sep.join(map(int.__repr__, items))
        if isinstance(items[0], float):
            text = sep.join(map(float.__repr__, items))
            return None if "n" in text else text
    except TypeError:
        pass
    return None


def write_instance(path, rec: InstanceFile) -> None:
    Path(path).write_text(dump_json(instance_to_dict(rec)))


def read_instance(path) -> InstanceFile:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(data)
