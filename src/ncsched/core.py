"""Plant models, problem instances, and the controllability objects built on them.

Conventions used throughout the package:

* plant indices are 0-based in code and 1-based in every file or message shown
  to a user;
* an entry (state or input) counts as zero when its magnitude is at most
  ``ZERO_RTOL`` times the relevant running sup-norm, floored at 1 — absolute
  thresholds are useless here because unstable plants reach ~1e14 within a
  50-step horizon;
* terminal states are accepted as zero at the looser ``TERMINAL_RTOL``;
* numerics run on plants of one dimension stacked into arrays
  (``group_by_dim``); the single-plant scan, reachability test, rollout and
  deadbeat window run as stacks of one, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError

ZERO_RTOL = 1e-9
TERMINAL_RTOL = 1e-6


def check_tolerances(zero_rtol: float, terminal_rtol: float) -> None:
    """Raise ``ValueError`` unless both tolerances lie strictly between 0 and 1.

    Outside that range the zero tests turn vacuous: at 1 or above (or NaN) a
    state that never moved counts as steered to zero.
    """
    for name, value in (("zero_rtol", zero_rtol), ("terminal_rtol", terminal_rtol)):
        if not 0 < value < 1:
            raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PlantDynamics:
    """Single-input linear plant ``x(t+1) = A x(t) + b u(t)``."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"state map must be square, got shape {A.shape}")
        if b.shape[0] != A.shape[0]:
            raise ValueError(
                f"input map has length {b.shape[0]}, expected {A.shape[0]}"
            )
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("plant matrices must be finite")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def d(self) -> int:
        """State dimension."""
        return self.A.shape[0]


class PlantGroup(NamedTuple):
    """Plants of one state dimension, stacked for batched numerics.

    Row k of ``A`` (n_d x d x d), ``b`` and ``xi`` (n_d x d) belongs to plant
    ``idx[k]``; the indices are 0-based and ascending.
    """

    idx: np.ndarray
    A: np.ndarray
    b: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class NcsInstance:
    """A full co-design problem: plants, initial states, channel capacity, horizon."""

    plants: tuple[PlantDynamics, ...]
    xi: tuple[np.ndarray, ...]
    capacity: int
    horizon: int
    # derived: the plants stacked by dimension, smallest first (``group_by_dim``)
    groups: tuple[PlantGroup, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plants = tuple(self.plants)
        xi = tuple(_freeze(np.array(x, dtype=float).reshape(-1)) for x in self.xi)
        n = len(plants)
        if len(xi) != n:
            raise ValueError(f"{len(xi)} initial states for {n} plants")
        for name in ("capacity", "horizon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0 < self.capacity < n:
            raise ValueError(
                f"capacity must satisfy 0 < M < N, got M={self.capacity}, N={n}"
            )
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        for i, (p, x) in enumerate(zip(plants, xi)):
            if x.shape[0] != p.d:
                raise ValueError(f"initial state {i + 1} has wrong length")
            if not np.isfinite(x).all():
                raise ValueError(f"initial state {i + 1} is not finite")
            if not x.any():
                raise ValueError(f"initial state {i + 1} is zero")
        object.__setattr__(self, "plants", plants)
        object.__setattr__(self, "xi", xi)
        members: dict[int, list[int]] = {}
        for i, p in enumerate(plants):
            members.setdefault(p.d, []).append(i)
        groups = tuple(
            PlantGroup(
                idx=_freeze(np.array(ix)),
                A=_freeze(np.array([plants[i].A for i in ix])),
                b=_freeze(np.array([plants[i].b for i in ix])),
                xi=_freeze(np.array([xi[i] for i in ix])),
            )
            for _, ix in sorted(members.items())
        )
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return len(self.plants)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.d for p in self.plants)


@dataclass(frozen=True)
class ControlLogic:
    """Stacked input matrix: row i, column t holds plant i's input at time t."""

    u: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        if u.ndim != 2:
            raise ValueError(f"control logic must be an N x T matrix, got {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("control logic entries must be finite")
        object.__setattr__(self, "u", _freeze(u))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def horizon(self) -> int:
        return self.u.shape[1]

    def row_scales(self) -> np.ndarray:
        """Per-plant zero-test scale: sup-norm of the input row, floored at 1."""
        if self.horizon == 0:
            return np.ones(self.n)
        return np.maximum(1.0, np.abs(self.u).max(axis=1))

    def nonzero_mask(self, zero_rtol: float = ZERO_RTOL) -> np.ndarray:
        """Boolean N x T mask of inputs that count as nonzero."""
        return np.abs(self.u) > zero_rtol * self.row_scales()[:, None]

    def thresholded(self, zero_rtol: float = ZERO_RTOL) -> "ControlLogic":
        """Copy with sub-threshold entries set to exactly zero."""
        out = np.where(self.nonzero_mask(zero_rtol), self.u, 0.0)
        return ControlLogic(out)

    def occupancy(self, zero_rtol: float = ZERO_RTOL) -> np.ndarray:
        """Number of active plants in each time slot."""
        return self.nonzero_mask(zero_rtol).sum(axis=0)


@dataclass(frozen=True)
class SchedulingLogic:
    """Per-slot sets of plants granted channel access (0-based internally)."""

    slots: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(frozenset(s) for s in self.slots))

    @property
    def horizon(self) -> int:
        return len(self.slots)

    def max_occupancy(self) -> int:
        return max((len(s) for s in self.slots), default=0)

    def as_report_lists(self) -> list[list[int]]:
        """Slots as sorted 1-based plant lists, for files and messages."""
        return [sorted(i + 1 for i in s) for s in self.slots]


def group_by_dim(inst: NcsInstance, subset=None) -> list[PlantGroup]:
    """The instance's plants (or the given subset) stacked by dimension, smallest first."""
    if subset is None:
        return list(inst.groups)
    chosen = np.zeros(inst.n, dtype=bool)
    chosen[list(subset)] = True
    out = []
    for g in inst.groups:
        keep = chosen[g.idx]
        if keep.any():
            out.append(PlantGroup(*(arr[keep] for arr in g)))
    return out


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked products ``A[k] @ x[k]``.

    A stacked ``matmul`` runs the same kernel per plant as ``A @ x`` on one
    plant, so results are bit-identical to it (``einsum`` is not).
    """
    return (A @ x[..., None])[..., 0]


def mat_powers(A: np.ndarray, exponents) -> np.ndarray:
    """``A[k]`` raised to ``exponents[k]`` for a stack of square matrices.

    Iterated multiplication from the identity, one stacked product per step.
    A power that overflows comes back non-finite, without a warning; the
    caller decides what that means.
    """
    e = np.asarray(exponents)
    if (e < 0).any() or (e != np.floor(e)).any():
        raise ValueError("exponent must be a nonnegative integer")
    out = np.empty(A.shape)
    power = np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(e.max(initial=0)) + 1):
            if k:
                power = power @ A
            at_k = e == k
            out[at_k] = power[at_k]
    return out


def mat_pow(A: np.ndarray, k: int) -> np.ndarray:
    """k-th power of a square matrix by iterated multiplication; A^0 = I."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if k < 0 or int(k) != k:
        raise ValueError("exponent must be a nonnegative integer")
    out = np.eye(A.shape[0])
    for _ in range(int(k)):
        out = out @ A
    if not np.isfinite(out).all():
        raise NonFiniteError(f"matrix power overflowed at exponent {k}")
    return out


def reach_matrices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked controllability matrices [A^(d-1) b, ..., A b, b]."""
    d = A.shape[-1]
    psi = np.empty(A.shape)
    col = b
    psi[..., d - 1] = col
    for j in range(d - 2, -1, -1):
        col = matvec(A, col)
        psi[..., j] = col
    return psi


def full_rank(psi: np.ndarray) -> np.ndarray:
    """Per-matrix full numerical rank of stacked square matrices.

    Rank counts singular values above d * eps * sigma_max, the standard
    scale-free cutoff (numpy's default for square matrices).
    """
    return np.linalg.matrix_rank(psi) == psi.shape[-1]


def rank_and_cond(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix full rank (as ``full_rank``) and 2-norm condition number
    of stacked square matrices, from one SVD.

    Gives the bits of ``full_rank(psi)`` and ``np.linalg.cond(psi)``, which
    take an SVD each: the same cutoff, and a singular matrix's 0/0 read as
    infinite unless the matrix holds a NaN.
    """
    s = np.linalg.svd(psi, compute_uv=False)
    cutoff = s.max(axis=-1, keepdims=True) * (psi.shape[-1] * np.finfo(float).eps)
    full = (s > cutoff).all(axis=-1)
    with np.errstate(all="ignore"):
        cond = s[..., 0] / s[..., -1]
    cond[np.isnan(cond) & ~np.isnan(psi).any(axis=(-2, -1))] = np.inf
    return full, cond


def is_reachable(p: PlantDynamics) -> bool:
    """True iff the controllability matrix has full numerical rank."""
    return bool(full_rank(reach_matrices(p.A[None], p.b[None]))[0])


def lifted_matrix(p: PlantDynamics, horizon: int) -> np.ndarray:
    """d x T map from an input sequence to its effect on the state at time T.

    Column t (0-based) is ``A^(T-1-t) b``, so the full terminal state is
    ``A^T x(0) + lifted_matrix(p, T) @ u``.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    cols = [p.b]
    for _ in range(horizon - 1):
        cols.append(p.A @ cols[-1])
    out = np.column_stack(cols[::-1])
    if not np.isfinite(out).all():
        raise NonFiniteError("lifted matrix overflowed")
    return out


def open_loop_hit_times(
    A: np.ndarray, xi: np.ndarray, horizon: int, zero_rtol: float = ZERO_RTOL
) -> np.ndarray:
    """Stacked open-loop scan: per plant, the earliest step in 1..horizon at
    which ``A^tau xi`` is zero relative to ``|xi|``, or 0 when there is none.

    A state that overflows counts as never reaching zero; the overflow itself
    is not reported.
    """
    limit = zero_rtol * np.sqrt(np.vecdot(xi, xi))
    hit = np.zeros(xi.shape[0], dtype=int)
    x = xi
    with np.errstate(over="ignore", invalid="ignore"):
        for tau in range(1, horizon + 1):
            x = matvec(A, x)
            hit[(hit == 0) & (np.sqrt(np.vecdot(x, x)) <= limit)] = tau
            if hit.all():
                break
    return hit


def open_loop_hit_time(
    p: PlantDynamics, xi: np.ndarray, horizon: int, zero_rtol: float = ZERO_RTOL
) -> int | None:
    """Earliest step in 1..horizon at which the uncontrolled state reaches zero.

    Returns None when ``A^tau xi`` stays away from zero (relative to ``|xi|``)
    for the whole horizon.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != p.d:
        raise ValueError("initial state has wrong length")
    tau = int(open_loop_hit_times(p.A[None], xi[None], horizon, zero_rtol)[0])
    return tau or None
