"""Instance files: seeded generation and lossless JSON round-tripping.

Instance and report files share one format, ``dump_json``: a single line of
JSON with sorted keys, as the standard library's encoder writes it. Readers
accept JSON numbers only where numbers belong (``_ints``, ``_numbers``), so a
string or boolean in a matrix, a size or a control index is a ``SchemaError``.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CERTIFICATE_SLACK,
    NcsInstance,
    PlantDynamics,
    PlantGroup,
    _as_int,
    _checked_sizes,
    det,
    lifted_matrices,
    reachability,
)
from .errors import RejectionBudgetError, SchemaError

SCHEMA_VERSION = 1
SPECTRAL_RADIUS_MIN = 1.0 + 1e-9
REJECTION_BUDGET = 10_000
# smaller blocks go straight to eigvals: the instability certificate's dozen
# numpy calls cost more than the eigenvalue work it saves on them
CERTIFICATE_MIN_BLOCK = 32


@dataclass(frozen=True)
class InstanceFile:
    """An instance plus the metadata needed to reproduce and audit it."""

    instance: NcsInstance
    seed: int | None = None
    provenance: str = ""


def generate_instance(
    n: int,
    capacity: int,
    horizon: int,
    dims: list[int],
    value_range: float = 2.0,
    seed: int = 0,
) -> InstanceFile:
    """Random instance family: open-loop unstable, reachable plants.

    Each plant's matrices are drawn entrywise uniform on
    [-value_range, value_range] and redrawn until the state map's spectral
    radius exceeds 1 and the pair passes the reachability rank test, at most
    ``REJECTION_BUDGET`` times in a row (``RejectionBudgetError``). Initial
    states are uniform on [-1, 1]^d, redrawn if exactly zero. Deterministic
    for a fixed seed: the draws come in this order, one plant after the
    other, and only the checks of each run of equal dimensions are batched.
    The sizes are checked as an instance checks them, the plant count, the
    dimensions and the seed as integers and the value range as a non-bool
    real, before anything is drawn. The instance is built from the accepted
    stacks (``NcsInstance._from_groups``); its ``plants`` and ``xi`` views
    are made on first read.
    """
    if len(dims) != _as_int("n", n):
        raise ValueError(f"got {len(dims)} dimensions for {n} plants")
    capacity, horizon = _checked_sizes(capacity, horizon, n)
    if not isinstance(value_range, numbers.Real) or isinstance(value_range, bool):
        raise ValueError(f"value range must be a real number, got {value_range!r}")
    if not (value_range > 0 and math.isfinite(2.0 * value_range)):
        raise ValueError(f"value range must be positive with 2 * range finite: {value_range!r}")
    if not set(map(type, dims)) <= {int}:
        dims = [_as_int(f"the dimension of plant {i + 1}", d) for i, d in enumerate(dims)]
    if min(dims) < 1:
        raise ValueError("plant dimensions must be positive")
    if _as_int("seed", seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    runs: dict[int, list] = {}  # per dimension, the drawn runs' stacks
    first = 0
    for d, run in itertools.groupby(dims):
        need = len(list(run))
        stacks = _draw_plants(rng, d, need, value_range, first)
        runs.setdefault(d, []).append((np.arange(first, first + need), *stacks))
        first += need
    starts = np.cumsum([0, *dims[:-1]])
    states = _draw_states(rng, dims, starts)
    groups = []
    for d, parts in sorted(runs.items()):
        idx, A, b, psi, reachable, settled = (np.concatenate(f) for f in zip(*parts))
        xi = states[starts[idx, None] + np.arange(d)]
        groups.append(PlantGroup(idx, A, b, xi, psi, reachable, settled))
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
    first: int,
) -> tuple[np.ndarray, ...]:
    """``need`` consecutive plants of dimension ``d``, numbered from ``first``.

    Returns the stacks ``A``, ``b``, ``psi``, ``reachable`` and ``settled`` of
    a ``PlantGroup``. Every candidate, accepted or not, takes the next
    ``d*d + d`` uniforms (A row-major, then b), so blocks of candidates are
    drawn and checked at once: the instability test by ``_unstable``, which
    certifies most candidates without ``eigvals``, then the rank test of the
    unstable ones by ``reachability``, which settles most of them without an
    SVD. The first block holds as many candidates as plants are needed, and
    each later one as many as the acceptance rate seen so far says the rest
    need plus a tenth; each then takes 8 more, within the rejection budget.
    The stream is then rewound and advanced past the last acceptance, leaving
    the generator where drawing one candidate at a time would have left it.
    """
    width = d * d + d
    state = rng.bit_generator.state
    kept = []  # per block, the accepted candidates' rows and controllability facts
    accepted = drawn = 0
    last = -1  # the latest acceptance's position, counted from the run start
    while accepted < need:
        misses = drawn - last - 1  # rejections since the previous acceptance
        if misses >= REJECTION_BUDGET:
            raise RejectionBudgetError(
                f"plant {first + accepted + 1}: "
                f"no unstable reachable draw in {REJECTION_BUDGET} tries"
            )
        left = need - accepted
        size = left if not drawn else math.ceil(1.1 * left * drawn / max(accepted, 1))
        size = min(size + 8, REJECTION_BUDGET - misses)
        block = rng.uniform(-value_range, value_range, (size, width))
        A = block[:, : d * d].reshape(size, d, d)
        unstable = _unstable(A)
        psi = lifted_matrices(A[unstable], block[unstable, d * d :], d)
        full, settled = reachability(psi)
        # the block ends within REJECTION_BUDGET draws of the previous
        # acceptance, so an acceptance inside it is always within the budget
        take = np.flatnonzero(full)[:left]
        if take.size:
            kept.append((block[unstable[take]], psi[take], full[take], settled[take]))
            accepted += take.size
            last = drawn + unstable[take[-1]]
        drawn += size
    rng.bit_generator.state = state
    rng.uniform(-value_range, value_range, (last + 1) * width)
    rows, psi, reachable, settled = (np.concatenate(f) for f in zip(*kept))
    return rows[:, : d * d].reshape(need, d, d), rows[:, d * d :], psi, reachable, settled


def _unstable(A: np.ndarray) -> np.ndarray:
    """Indices of the stacked candidates ``A`` whose spectral radius, as
    ``np.linalg.eigvals`` computes it, exceeds ``SPECTRAL_RADIUS_MIN``.

    Most are certified without ``eigvals``. The spectral radius rho bounds
    rho^d >= |det A| and rho^2 >= |tr A^2| / d. LAPACK's eigenvalues are the
    exact ones of some A + E with ||E|| of order eps ||A|| (backward
    stability), so their determinant and trace of the square differ from A's
    by O(d eps max(1, sum |a_ij|)^max(d, 2)), as do the computed ones
    (``core.det`` is within O(d eps) of the permanent of |A|, at most
    (sum |a_ij|)^d). A bound that clears the threshold
    by ``CERTIFICATE_SLACK`` times that scale therefore gives LAPACK's
    verdict; a bound that is not finite certifies nothing. Only the other
    candidates go to ``eigvals``, and so do blocks of fewer than
    ``CERTIFICATE_MIN_BLOCK`` candidates.
    """
    if len(A) < CERTIFICATE_MIN_BLOCK:
        return np.flatnonzero(np.abs(np.linalg.eigvals(A)).max(axis=-1) > SPECTRAL_RADIUS_MIN)
    d = A.shape[-1]
    with np.errstate(all="ignore"):
        slack = CERTIFICATE_SLACK * np.maximum(1.0, np.abs(A).sum(axis=(1, 2))) ** max(d, 2)
        bounds = np.abs([det(A), np.einsum("kij,kji->k", A, A) / d])
        need = np.array([[SPECTRAL_RADIUS_MIN**d], [SPECTRAL_RADIUS_MIN**2]]) + slack
        sure = ((bounds > need) & (bounds < np.inf)).any(axis=0)
    rest = np.flatnonzero(~sure)
    if rest.size:
        sure[rest] = np.abs(np.linalg.eigvals(A[rest])).max(axis=-1) > SPECTRAL_RADIUS_MIN
    return np.flatnonzero(sure)


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


def _ints(values, what: str) -> list[int]:
    """``values`` if it is a JSON list of integers (booleans excluded)."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise SchemaError(f"{what} must be a list of integers")
    return values


def _numbers(values, what: str) -> list:
    """``values`` if it is a JSON list of numbers (booleans excluded)."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise SchemaError(f"{what} must be a list of numbers")
    return values


def instance_from_dict(data: dict) -> InstanceFile:
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {data['schema_version']}"
            )
        n, capacity, horizon = data["N"], data["M"], data["T"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise SchemaError(f"N must be an integer, got {n!r}")
        seed, provenance = data.get("seed"), data.get("provenance", "")
        if seed is not None and type(seed) is not int:
            raise SchemaError(f"seed must be an integer or null, got {seed!r}")
        if not isinstance(provenance, str):
            raise SchemaError(f"provenance must be a string, got {provenance!r}")
        plants = []
        for entry in data["plants"]:
            b = np.array(_numbers(entry["b"], "input map b"), dtype=float)
            d = b.shape[0]
            A = np.array(_numbers(entry["A"], "state map A"), dtype=float)
            if A.size != d * d:
                raise SchemaError(
                    f"state map has {A.size} entries, expected {d * d}"
                )
            plants.append(PlantDynamics(A.reshape(d, d), b))
        if len(plants) != n:
            raise SchemaError(f"N={n} but {len(plants)} plants listed")
        xi = [np.array(_numbers(x, "initial state xi"), dtype=float) for x in data["xi"]]
        instance = NcsInstance(
            plants=tuple(plants), xi=tuple(xi), capacity=capacity, horizon=horizon
        )
        return InstanceFile(instance=instance, seed=seed, provenance=provenance)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed instance file: {exc}") from exc


def dump_json(data: dict) -> str:
    """Canonical JSON: one line with sorted keys, plus a trailing newline.

    This is ``json.dumps(data, sort_keys=True) + "\\n"``, which the standard
    library's C encoder writes. Floats use Python's shortest round-trip
    representation, so write -> read -> write is byte-identical.
    """
    return json.dumps(data, sort_keys=True) + "\n"


def write_instance(path, rec: InstanceFile) -> None:
    Path(path).write_text(dump_json(instance_to_dict(rec)))


def read_instance(path) -> InstanceFile:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(data)
