"""Instance files: seeded generation and lossless JSON round-tripping."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import NcsInstance, PlantDynamics, full_rank, reach_matrices
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
    if value_range <= 0:
        raise ValueError("value range must be positive")
    if min(dims) < 1:
        raise ValueError("plant dimensions must be positive")
    rng = np.random.default_rng(seed)
    plants = []
    for d, run in itertools.groupby(dims):
        plants += _draw_plants(rng, d, len(list(run)), value_range, max_draws, len(plants))
    # one uniform per state entry unless a state comes out exactly zero
    state = rng.bit_generator.state
    flat = rng.uniform(-1.0, 1.0, sum(dims))
    starts = np.cumsum([0, *dims[:-1]])
    if np.logical_or.reduceat(flat != 0, starts).all():
        xi = np.split(flat, starts[1:])
    else:
        rng.bit_generator.state = state
        xi = []
        for d in dims:
            x = rng.uniform(-1.0, 1.0, d)
            while not x.any():
                x = rng.uniform(-1.0, 1.0, d)
            xi.append(x)
    instance = NcsInstance(
        plants=tuple(plants), xi=tuple(xi), capacity=capacity, horizon=horizon
    )
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
) -> list[PlantDynamics]:
    """``need`` consecutive plants of dimension ``d``, numbered from ``first``.

    Every candidate, accepted or not, takes the next ``d*d + d`` uniforms
    (A row-major, then b), so blocks of candidates are drawn and checked at
    once. The stream is then rewound and exactly the candidates up to the
    last acceptance are drawn again, leaving the generator where drawing one
    candidate at a time would have left it.
    """
    width = d * d + d
    state = rng.bit_generator.state
    accepted: list[int] = []  # candidate positions counted from the run start
    drawn = 0
    while len(accepted) < need:
        # rejections since the previous acceptance
        misses = drawn - (accepted[-1] if accepted else -1) - 1
        if misses >= max_draws:
            raise RejectionBudgetError(
                f"plant {first + len(accepted) + 1}: "
                f"no unstable reachable draw in {max_draws} tries"
            )
        size = min(2 * (need - len(accepted)) + 8, max_draws - misses)
        block = rng.uniform(-value_range, value_range, (size, width))
        A = block[:, : d * d].reshape(size, d, d)
        ok = np.abs(np.linalg.eigvals(A)).max(axis=-1) > SPECTRAL_RADIUS_MIN
        ok[ok] = full_rank(reach_matrices(A[ok], block[ok, d * d :]))
        # the block ends within max_draws of the previous acceptance, so an
        # acceptance inside it is always within the budget
        accepted += (drawn + np.flatnonzero(ok)).tolist()[: need - len(accepted)]
        drawn += size
    rng.bit_generator.state = state
    used = rng.uniform(-value_range, value_range, (accepted[-1] + 1, width))[accepted]
    return [PlantDynamics(row[: d * d].reshape(d, d), row[d * d :]) for row in used]


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
    byte-identical. Unlike ``json.dumps``, a dict key that is not a ``str``
    raises ``TypeError``; no caller has one.
    """
    return _encode(data, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """One JSON value; ``newline`` is a line break plus the current indent."""
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
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = _join_numbers(obj, sep)
        if items is None:
            items = sep.join(_encode(item, inner) for item in obj)
        return "[" + inner + items + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = sep.join(
            encode_basestring_ascii(key) + ": " + _encode(obj[key], inner)
            for key in sorted(obj)
        )
        return "{" + inner + items + newline + "}"
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
    """All-float or all-int items, joined by ``sep``; None for any other list.

    ``float.__repr__`` and ``int.__repr__`` reject every other type except
    bool, an int subclass that JSON spells ``true``/``false``. A non-finite
    float shows as ``nan``/``inf``, which JSON spells ``NaN``/``Infinity``.
    """
    try:
        text = sep.join(map(float.__repr__, items))
    except TypeError:
        pass
    else:
        return None if "n" in text else text
    if bool in set(map(type, items)):
        return None
    try:
        return sep.join(map(int.__repr__, items))
    except TypeError:
        return None


def write_instance(path, rec: InstanceFile) -> None:
    Path(path).write_text(dump_json(instance_to_dict(rec)))


def read_instance(path) -> InstanceFile:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(data)
