"""Plant models, problem instances, and the controllability objects built on them.

Conventions used throughout the package:

* plant indices are 0-based in code and 1-based in every file or message shown
  to a user;
* an entry (state or input) counts as zero when its magnitude is at most
  ``ZERO_RTOL`` times the relevant running sup-norm, floored at 1 — absolute
  thresholds are useless here because unstable plants reach ~1e14 within a
  50-step horizon;
* terminal states are accepted as zero at the looser ``TERMINAL_RTOL``; the
  open-loop scan applies both tests, as the verifier does, and state norms
  span the float range (``column_norms``);
* numerics run on plants of one dimension stacked into arrays
  (``group_by_dim``), whose controllability matrices and rank test are
  computed once, when the instance is built (a generated instance takes its
  stacks, and those facts, from the generator's draws): a determinant
  certificate (``well_conditioned``) settles almost every matrix, and only
  the rest go to an SVD (``rank_and_cond``); the
  relaxation and brute force read each group's terminal system
  (``terminal_systems``), and the single-plant scan, rollout and deadbeat
  window run as stacks of one, so both give the same bits;
* the two state recursions, the open-loop scan and the verifier's rollout,
  hold their states d-major (d x n, entry j of every plant in one row) and
  step them with one kernel, ``column_step``, whose sums run left to right
  over the leading axis (``leading_sum``), as do their squared norms
  (``sum_squares``): the bits follow from the order of IEEE operations,
  whatever the number of plants. The scan's states are the verifier's
  zero-input states, unscaled, and it keeps every one (``OpenLoopStates``).
  A solve scans each dimension group once (``planner.split_open_loop``, one
  ``OpenLoopStates`` per dimension) and every route reads that scan:
  deadbeat synthesis each window-end state, and the relaxation's and brute
  force's terminal systems their states at T. Lifted matrices stay stacked
  ``matmul`` products.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError

ZERO_RTOL = 1e-9
TERMINAL_RTOL = 1e-6
# the open-loop scan takes its new states' norms and compares them with their
# running sup once per this many steps: a check takes several numpy calls, and
# norms taken over the whole buffer after the last step measured slower
SCAN_CHECK = 8
# the determinant certificates (``well_conditioned``, ``instances._unstable``)
# hold when a bound clears its threshold by this much times the bound's scale:
# a million times the O(d eps) by which rounding, or LAPACK's backward error,
# may move the bound
CERTIFICATE_SLACK = 1e-8


def check_tolerances(zero_rtol: float, terminal_rtol: float = TERMINAL_RTOL) -> None:
    """Raise ``ValueError`` unless both tolerances are real numbers in (0, 1).

    Outside that range the zero tests turn vacuous: at 1 or above (or NaN) a
    state that never moved counts as steered to zero.
    """
    for name, value in (("zero_rtol", zero_rtol), ("terminal_rtol", terminal_rtol)):
        if not isinstance(value, numbers.Real) or not 0 < value < 1:
            raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")


def nonzero_entries(u: np.ndarray, zero_rtol: float = ZERO_RTOL) -> np.ndarray:
    """Boolean mask of the entries of the rows of ``u`` (n x T) that count as
    nonzero: above ``zero_rtol`` times the row's sup-norm, floored at 1."""
    magnitude = np.abs(u)
    scales = np.maximum(1.0, magnitude.max(axis=1, initial=0.0))
    return magnitude > zero_rtol * scales[:, None]


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
    ``idx[k]``; the indices are 0-based and ascending. ``psi`` holds the
    controllability matrices [A^(d-1) b, ..., A b, b] (non-finite if they
    overflow), ``reachable`` and ``settled`` their ``reachability``: numpy's
    full-rank verdict, and whether the determinant certificate gave it, which
    puts numpy's condition number below 1 / ``CERTIFICATE_SLACK``.
    """

    idx: np.ndarray
    A: np.ndarray
    b: np.ndarray
    xi: np.ndarray
    psi: np.ndarray
    reachable: np.ndarray
    settled: np.ndarray


def stack_plants(idx, plants, xi) -> PlantGroup:
    """Plants ``idx`` (of one dimension) and their states, as a ``PlantGroup``."""
    A = np.array([plants[i].A for i in idx])
    b = np.array([plants[i].b for i in idx])
    psi = lifted_matrices(A, b, A.shape[-1])
    stacked = (np.array(idx), A, b, np.array([xi[i] for i in idx]), psi, *reachability(psi))
    return PlantGroup(*map(_freeze, stacked))


def _as_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def checked_horizon(horizon) -> int:
    """The horizon as an int; ``ValueError`` unless it is a positive integer."""
    horizon = _as_int("horizon", horizon)
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return horizon


def checked_state(p: PlantDynamics, xi) -> np.ndarray:
    """``xi`` as plant ``p``'s flat float state, the row of a stack of one;
    ``ValueError`` unless it has d entries."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != p.d:
        raise ValueError("initial state has wrong length")
    return xi


def _checked_sizes(capacity, horizon, n: int) -> tuple[int, int]:
    """Capacity and horizon as ints, checked against ``n`` plants."""
    capacity = _as_int("capacity", capacity)
    if not 0 < capacity < n:
        raise ValueError(f"capacity must satisfy 0 < M < N, got M={capacity}, N={n}")
    return capacity, checked_horizon(horizon)


def _check_states(groups) -> None:
    """Raise for the first initial state, in plant order, that is not finite or is zero."""
    bad = []
    for g in groups:
        finite = np.isfinite(g.xi).all(axis=1)
        for k in np.flatnonzero(~finite | ~g.xi.any(axis=1))[:1]:
            bad.append((int(g.idx[k]), "is zero" if finite[k] else "is not finite"))
    if bad:
        i, problem = min(bad)
        raise ValueError(f"initial state {i + 1} {problem}")


def _in_plant_order(groups, per_group) -> tuple:
    """Each group's items, one per row, placed at its plants' indices ``g.idx``."""
    out = [None] * sum(len(g.idx) for g in groups)
    for g, items in zip(groups, per_group):
        for i, item in zip(g.idx.tolist(), items):
            out[i] = item
    return tuple(out)


def _plant_views(g: PlantGroup):
    """The group's plants over rows of its frozen, already checked stacks,
    with no per-plant copy or check."""
    for A, b in zip(g.A, g.b):
        p = object.__new__(PlantDynamics)
        object.__setattr__(p, "A", A)
        object.__setattr__(p, "b", b)
        yield p


@dataclass(frozen=True)
class NcsInstance:
    """A full co-design problem: plants, initial states, channel capacity, horizon.

    The constructor keeps the plants it is given and stacks them by dimension
    into ``groups``, which every solve reads; ``xi`` holds views of the
    groups' state rows. An instance made from the generator's stacks
    (``_from_groups``) builds ``plants`` and ``xi`` as views of the groups'
    rows on first read, since no solve reads them.
    """

    plants: tuple[PlantDynamics, ...]
    xi: tuple[np.ndarray, ...]
    capacity: int
    horizon: int
    # derived: the plants stacked by dimension, smallest first (``group_by_dim``),
    # and their number
    groups: tuple[PlantGroup, ...] = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plants = tuple(self.plants)
        xi = [np.array(x, dtype=float).reshape(-1) for x in self.xi]
        n = len(plants)
        if len(xi) != n:
            raise ValueError(f"{len(xi)} initial states for {n} plants")
        capacity, horizon = _checked_sizes(self.capacity, self.horizon, n)
        # a state of the wrong length cannot join its group's stack, so only
        # the plants before it are stacked, and checked first
        wrong = next((i for i, (p, x) in enumerate(zip(plants, xi)) if x.shape[0] != p.d), n)
        members: dict[int, list[int]] = {}
        for i, p in enumerate(plants[:wrong]):
            members.setdefault(p.d, []).append(i)
        groups = tuple(stack_plants(ix, plants, xi) for _, ix in sorted(members.items()))
        _check_states(groups)
        if wrong < n:
            raise ValueError(f"initial state {wrong + 1} has wrong length")
        self._adopt(capacity, horizon, groups, n)
        object.__setattr__(self, "plants", plants)
        object.__setattr__(self, "xi", _in_plant_order(groups, [g.xi for g in groups]))

    @classmethod
    def _from_groups(cls, groups, capacity: int, horizon: int) -> "NcsInstance":
        """An instance over plants already stacked by dimension (the generator's draws).

        ``groups`` must be what ``stack_plants`` builds from the same plants:
        sorted by dimension, indices ascending and covering 0..N-1 once, with
        finite, well-shaped matrices. Sizes and states are checked as the
        constructor checks them; ``plants`` and ``xi`` are left to first read.
        """
        groups = tuple(PlantGroup(*map(_freeze, g)) for g in groups)
        n = sum(len(g.idx) for g in groups)
        capacity, horizon = _checked_sizes(capacity, horizon, n)
        _check_states(groups)
        inst = object.__new__(cls)
        inst._adopt(capacity, horizon, groups, n)
        return inst

    def _adopt(self, capacity: int, horizon: int, groups, n: int) -> None:
        for name, value in (("capacity", capacity), ("horizon", horizon), ("groups", groups),
                            ("n", n)):
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # reached only for an attribute that is not set: ``plants`` and ``xi``
        # of an instance from ``_from_groups``, built here once as views of
        # the groups' rows
        groups = self.__dict__.get("groups")
        if groups is None or name not in ("plants", "xi"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        per_group = map(_plant_views, groups) if name == "plants" else [g.xi for g in groups]
        value = _in_plant_order(groups, per_group)
        object.__setattr__(self, name, value)
        return value

    def _dim_array(self) -> np.ndarray:
        """Each plant's state dimension, read off its group's stacks."""
        out = np.empty(self.n, dtype=int)
        for g in self.groups:
            out[g.idx] = g.A.shape[-1]
        return out


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

    @classmethod
    def _own(cls, u: np.ndarray) -> "ControlLogic":
        """A logic over ``u``, a finite N x T float array that nothing else
        holds: frozen as it is, with no copy and no check."""
        logic = object.__new__(cls)
        object.__setattr__(logic, "u", _freeze(u))
        return logic

    def thresholded(self, zero_rtol: float = ZERO_RTOL) -> "ControlLogic":
        """Copy with sub-threshold entries set to +0.0.

        The copy keeps exactly the entries ``nonzero_entries`` marks, all
        nonzero, so its nonzeros are that mask. The zeroing keeps each row's largest
        entry, or clears a row whose scale is 1, so the copy has the same row
        scales and mask, and thresholding it again changes nothing.
        """
        return ControlLogic._own(np.where(nonzero_entries(self.u, zero_rtol), self.u, 0.0))


def group_by_dim(inst: NcsInstance, subset=None) -> list[PlantGroup]:
    """The instance's plants (or the given subset) stacked by dimension, smallest
    first; a group the subset keeps whole is the instance's own, not a copy."""
    if subset is None:
        return list(inst.groups)
    chosen = np.zeros(inst.n, dtype=bool)
    chosen[subset if isinstance(subset, np.ndarray) else list(subset)] = True
    out = []
    for g in inst.groups:
        keep = chosen[g.idx]
        if keep.all():
            out.append(g)
        elif keep.any():
            out.append(PlantGroup(*(arr[keep] for arr in g)))
    return out


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked products ``A[k] @ x[k]``, one BLAS product per plant.

    A stacked ``matmul`` runs the same kernel per plant as ``A @ x`` on one
    plant, so results are bit-identical to it. The state recursions do not
    use it: they step with ``column_step``, whose sums run left to right
    where BLAS may fuse multiply-adds.
    """
    return (A @ x[..., None])[..., 0]


def lifted_matrices(A: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """Stacked lifted matrices [A^(steps-1) b, ..., A b, b] (n x d x steps).

    At ``steps = d`` these are the controllability matrices. A column that
    overflows comes back non-finite, without a warning.
    """
    out = np.empty((*b.shape, steps))
    col = b
    out[..., steps - 1] = col
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps - 2, -1, -1):
            col = matvec(A, col)
            out[..., j] = col
    return out


def det(A: np.ndarray) -> np.ndarray:
    """Determinants of the stacked square matrices ``A``: the cofactor
    expansion for d <= 3, LAPACK's LU (``np.linalg.det``) above. Either is
    within O(d eps) times the permanent of |A| of the exact value (LU's also
    times its pivot growth, at most 2^(d-1))."""
    d = A.shape[-1]
    if d > 3:
        return np.linalg.det(A)
    a = np.moveaxis(A, (-2, -1), (0, 1))  # a[i, j] holds entry (i, j) of every matrix
    if d == 1:
        return a[0, 0].copy()
    if d == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def well_conditioned(psi: np.ndarray) -> np.ndarray:
    """Which stacked square matrices ``psi`` a determinant certifies: full rank
    by numpy's test, with numpy's 2-norm condition number at most about
    1 / ``CERTIFICATE_SLACK``.

    The singular values satisfy sigma_min sigma_max^(d-1) >= |det psi| and
    sigma_max <= ||psi||_F, so |det psi| > ``CERTIFICATE_SLACK`` ||psi||_F^d
    puts sigma_min / sigma_max above the slack. Rounding moves the computed
    determinant by O(d eps) times the permanent of |psi|, at most ||psi||_F^d,
    and LAPACK's singular values are exact for some psi + E with ||E|| of
    order eps ||psi|| (backward stability), so a certified matrix clears
    numpy's rank cutoff of d eps sigma_max by far. The bound must be a finite
    normal float: where ||psi||_F^d overflows, or underflows toward the
    subnormals, whose rounding is absolute and can leave a determinant
    nonzero by noise alone, nothing is certified; nor is a matrix holding NaN
    or inf.
    """
    with np.errstate(all="ignore"):
        norm = np.sqrt(np.einsum("...ij,...ij->...", psi, psi))
        floor = CERTIFICATE_SLACK * norm ** psi.shape[-1]
        size = np.abs(det(psi))
    return (size > floor) & (floor >= np.finfo(float).tiny)


def reachability(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per stacked controllability matrix, numpy's full-rank verdict and
    whether ``well_conditioned`` settled it; ``rank_and_cond`` decides the rest."""
    settled = well_conditioned(psi)
    reachable = settled.copy()
    rest = ~settled
    if rest.any():
        reachable[rest] = rank_and_cond(psi[rest])[0]
    return reachable, settled


def rank_and_cond(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix full numerical rank and 2-norm condition number, one SVD:
    the exact fallback for the matrices ``well_conditioned`` leaves open.

    Rank counts singular values above d * eps * sigma_max, numpy's default
    scale-free cutoff; the bits are those of numpy's rank and ``cond``, which
    take an SVD each. A singular matrix's 0/0 reads as infinite. A matrix that
    is not finite is never full rank, with condition number NaN if it holds a
    NaN (numpy's SVD would raise on it) and infinite otherwise.
    """
    finite = np.isfinite(psi).all(axis=(-2, -1), keepdims=True)
    s = np.linalg.svd(np.where(finite, psi, 0.0), compute_uv=False)
    cutoff = s.max(axis=-1, keepdims=True) * (psi.shape[-1] * np.finfo(float).eps)
    full = (s > cutoff).all(axis=-1)
    with np.errstate(all="ignore"):
        cond = s[..., 0] / s[..., -1]
    cond[np.isnan(cond) & ~np.isnan(psi).any(axis=(-2, -1))] = np.inf
    return full, cond


def terminal_systems(groups, states) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per dimension group, the stacked terminal system ``(Phi, -A^T xi)``.

    ``states`` maps each of the groups' dimensions to its open-loop scan
    (``OpenLoopStates``, as ``split_open_loop`` gives them), whose horizon T
    is the systems'. ``Phi`` (n x d x T) holds the lifted matrices, whose
    column t is ``A^(T-1-t) b``, so ``Phi[k] @ u = target[k]`` zeroes plant
    k's state at time T; the target is minus the scanned state at T, so no
    state is stepped here. Every group's lifted matrices are checked before
    any target: ``NonFiniteError`` when one overflows, and then when a state
    at T is not finite.
    """
    scans = [states[g.A.shape[-1]] for g in groups]
    phis = [lifted_matrices(g.A, g.b, scan.horizon) for g, scan in zip(groups, scans)]
    if not all(np.isfinite(phi).all() for phi in phis):
        raise NonFiniteError("lifted matrix overflowed")
    ends = [scan.at(g.idx, scan.horizon) for g, scan in zip(groups, scans)]
    if not all(np.isfinite(x).all() for x in ends):
        raise NonFiniteError(f"open-loop state overflowed by step {scans[0].horizon}")
    return [(phi, -x) for phi, x in zip(phis, ends)]


def leading_sum(p: np.ndarray, out=None) -> np.ndarray:
    """``p[0] + p[1] + ... + p[-1]``, added left to right, for a C-contiguous ``p``.

    ``np.add.reduce`` over the leading axis adds whole slices in that order,
    except when a slice holds one number: the leading axis is then the
    contiguous one, which it sums pairwise from 8 terms on. There
    ``np.add.accumulate``, which never does, takes its place.
    """
    if len(p) < 8 or p.size > len(p):
        return np.add.reduce(p, axis=0, out=out)
    total = np.add.accumulate(p, axis=0)[-1]
    if out is None:
        return total
    out[...] = total
    return out


def sum_squares(x: np.ndarray) -> np.ndarray:
    """Squared 2-norms of states held d-major (``x[j]`` is entry j of every
    state): the squares summed left to right over the leading axis."""
    return leading_sum(np.ascontiguousarray(x * x))


def column_norms(x: np.ndarray) -> np.ndarray:
    """2-norms of the columns of ``x`` (d x n states) over the float range,
    where ``sqrt(sum_squares(x))`` overflows above 1.34e154: each column is
    scaled by the exact 2^-e that puts its largest entry in [0.5, 1)."""
    e = np.frexp(np.abs(x).max(axis=0, initial=0.0))[1]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ldexp(np.sqrt(sum_squares(np.ldexp(x, -e))), e)


def column_stack(A: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """The columns of stacked ``A`` (n x d x d), then ``b`` (n x d) if given,
    d-major: a C-contiguous (d[+1]) x d x n array whose slice j holds column
    j of every plant's ``A`` (slice d holds ``b``)."""
    cols = A.transpose(2, 1, 0)
    return np.ascontiguousarray(cols if b is None else np.concatenate([cols, b.T[None]]))


def column_step(cols: np.ndarray, v: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One step of the stacked recursion, d-major: ``out = sum_j cols[j] * v[j]``.

    ``v`` holds one column per plant, its state (then its input, against the
    slice of ``b``); ``work`` is a C-contiguous buffer of ``cols``' shape.
    One broadcast product and one left-to-right sum per step, whatever the
    number of plants: the bits are fixed by that order of IEEE operations.
    """
    np.multiply(cols, v[:, None], out=work)
    return leading_sum(work, out=out)


class OpenLoopStates(NamedTuple):
    """The open-loop scan's states of plants ``idx`` (ascending): plant
    ``idx[k]``'s at step t is ``x[:, t, k]``."""

    idx: np.ndarray
    x: np.ndarray

    @property
    def horizon(self) -> int:
        return self.x.shape[1] - 1

    def at(self, plants: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """The states (one row each) of ``plants``, some of ``idx``, at ``steps``;
        one that left the float range is not finite."""
        return self.x[:, steps, np.searchsorted(self.idx, plants)].T


def _scan_norms(x: np.ndarray) -> np.ndarray:
    """Norms of states held d-major, ``sqrt(sum_squares(x))``, retaken by
    ``column_norms`` where that is not finite; NaN where still not finite."""
    norm = np.sqrt(sum_squares(x))
    # norms are nonnegative, so their sum is finite only if each one is
    if not math.isfinite(norm.sum()):
        big = ~np.isfinite(norm)
        norm[big] = column_norms(x[:, big])
        norm[~np.isfinite(norm)] = np.nan
    return norm


def open_loop_scan(
    A: np.ndarray, xi: np.ndarray, horizon: int, zero_rtol=ZERO_RTOL, terminal_rtol=TERMINAL_RTOL
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked open-loop scan under the verifier's zero rule: per plant, the
    step at which ``verify_logic`` clamps its zero-input state (norm at most
    ``zero_rtol`` times the running sup-norm floored at 1), else ``horizon``
    when its terminal norm over that sup is within ``terminal_rtol``, else 0
    (so also when its norm leaves the float range before it clamps); then
    the ``x`` of ``OpenLoopStates``.

    The states are the verifier's zero-input states, bit for bit: stepped by
    its kernel (``column_step``) in a d x (horizon+1) x n buffer, their norms
    taken by its ``sum_squares`` and retaken by ``column_norms`` where those
    overflow. Every ``SCAN_CHECK`` steps the new norms meet their running sup
    (taken only when some norm is within ``zero_rtol`` of the chunk's top), in
    which a norm out of the float range, read as NaN, blocks every later
    clamp. Every plant is stepped through the horizon, clamped or not:
    deadbeat synthesis and the terminal systems read its states.
    """
    n, d = xi.shape
    cols = column_stack(A)
    work = np.empty(cols.shape)
    x = np.empty((d, horizon + 1, n))
    x[:, 0] = xi.T
    # step 0 never counts, so argmax reads 0 for a plant that never clamps
    clamped = np.zeros((horizon + 1, n), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        last = _scan_norms(x[:, 0])
        sup = np.maximum(1.0, last)
        for start in range(0, horizon, SCAN_CHECK):
            stop = min(start + SCAN_CHECK, horizon)
            for t in range(start, stop):
                column_step(cols, x[:, t], work, out=x[:, t + 1])
            norm = _scan_norms(x[:, start + 1 : stop + 1])
            top = np.maximum(norm.max(axis=0), sup)
            if (norm <= zero_rtol * top).any():  # a clamp needs a norm this far below the sup
                low = norm <= zero_rtol * np.maximum(np.maximum.accumulate(norm, axis=0), sup)
                clamped[start + 1 : stop + 1] = low
            sup, last = top, norm[-1]
        terminal = ~clamped.any(axis=0) & (last / sup <= terminal_rtol)
    return np.where(terminal, horizon, clamped.argmax(axis=0)), x


def open_loop_hit_time(
    p: PlantDynamics, xi: np.ndarray, horizon: int, zero_rtol=ZERO_RTOL, terminal_rtol=TERMINAL_RTOL
) -> int | None:
    """``open_loop_scan`` of one plant: the step at which its uncontrolled
    state counts as zero, or None when the verifier would reject its zero row.
    A horizon that is not a positive integer is a ``ValueError``, as for an
    instance, as is a tolerance ``check_tolerances`` refuses."""
    check_tolerances(zero_rtol, terminal_rtol)
    xi = checked_state(p, xi)
    horizon = checked_horizon(horizon)
    tau = int(open_loop_scan(p.A[None], xi[None], horizon, zero_rtol, terminal_rtol)[0][0])
    return tau or None
