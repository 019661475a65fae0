"""Closed-NCS simulation and verification.

The simulator applies two zeroing conventions before and during the forward
recursion so that the reported trajectory is achievable under the reported
schedule and so that a steered state stays at rest:

* input entries below the per-plant zero threshold are physically zeroed, not
  merely ignored while counting, so schedule and actuation agree exactly;
* a state whose norm falls below the zero threshold (relative to the running
  trajectory sup-norm, floored at 1) is clamped to the exact zero vector.
  Without the clamp, the ~1e-15 rounding left at a steering window's end
  regrows under an unstable state map to O(1) or far worse over the remaining
  open-loop steps, reporting failure for runs whose exact-arithmetic
  counterparts are identically zero.

The recursion steps every plant of a stack at every step, and stops after
the first step that is at or past the stack's last nonzero input and at which
every state is clamped. Stopping is exact, bit for bit: from then on the full
recursion would compute ``A @ 0 + b * 0``, a vector of signed zeros whose
norm, 0, is below any threshold (the running sup-norm is at least 1, or
infinite), so every later state is clamped to +0.0 again and every later norm
is written as +0.0, which is what the buffers hold from the start. A plant
whose sup-norm is NaN never clamps, so its stack is stepped to the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TERMINAL_RTOL,
    ZERO_RTOL,
    ControlLogic,
    NcsInstance,
    PlantDynamics,
    check_tolerances,
    checked_state,
    column_norms,
    column_stack,
    column_step,
    group_by_dim,
    nonzero_entries,
    sum_squares,
)
from .errors import NonFiniteError


@dataclass(frozen=True)
class SimulationResult:
    """State norms and the verdict of one closed-NCS run.

    ``norms`` holds each plant's state 2-norm at every step, N x (T+1).
    ``control`` is the thresholded logic that was simulated and judged; its
    nonzero pattern is the schedule (``slot_members(slot_mask(control.u))``).
    Verification keeps no states: ``rollout_stack`` replays them bit for bit.
    """

    norms: np.ndarray
    terminal_residuals: np.ndarray
    max_column_occupancy: int
    verified: bool
    control: ControlLogic
    violations: tuple[str, ...] = ()


def slot_mask(u) -> np.ndarray:
    """The T x N slot-major mask of an N x T control's nonzero inputs: row t marks
    the plants that use slot t."""
    return np.not_equal(np.asarray(u, dtype=float).T, 0.0, order="C")


def slot_members(mask: np.ndarray, first: int = 0) -> list[list[int]]:
    """Per row of a T x N slot-major mask, the plants whose entry is set,
    ascending and numbered from ``first``, read off one ``np.flatnonzero``."""
    horizon, n = mask.shape
    t, plants = np.divmod(np.flatnonzero(mask), n)
    ends = np.cumsum(np.bincount(t, minlength=horizon)).tolist()
    plants = (plants + first).tolist()
    return [plants[start:end] for start, end in zip([0, *ends], ends)]


def rollout_stack(
    A: np.ndarray,
    b: np.ndarray,
    xi: np.ndarray,
    u: np.ndarray,
    zero_rtol: float = ZERO_RTOL,
    keep_states: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Forward recursion of stacked plants of one dimension.

    ``A`` is n x d x d, ``b`` and ``xi`` are n x d and ``u`` is n x T. Returns
    the n x (T+1) x d states (None unless ``keep_states``), their n x (T+1)
    2-norms, and per plant the first step whose state leaves the float range
    (-1 when none; step 0 counts, and later states of such a plant are
    meaningless). Each step is one ``column_step`` over every plant's columns
    of ``A`` and ``b``, held d-major; norms are ``sqrt(sum_squares(x))`` in
    that layout, retaken by ``column_norms`` where that overflows. States are
    clamped to exact zero once below the running-sup zero threshold (see
    module docstring); initial states never are. The loop stops once every
    state is clamped with no input left in any row (see module docstring).
    The states and norms are transposed views of time-major buffers,
    (T+1) x d x n and (T+1) x n, so neither is C-contiguous.
    """
    n, horizon = u.shape
    d = A.shape[-1]
    states = np.zeros((horizon + 1, d, n)) if keep_states else None
    norms = np.zeros((horizon + 1, n))
    overflow = np.full(n, -1)
    # the last slot with a nonzero input in any row, -1 when there is none
    last = np.flatnonzero(u.any(axis=0)).max(initial=-1)
    cols = column_stack(A, b)
    work = np.empty(cols.shape)
    # the plants' states, then their inputs: one column per plant
    v = np.empty((d + 1, n))
    x = v[:d]
    x[...] = xi.T
    if keep_states:
        states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        norms[0] = column_norms(x)
        overflow[~np.isfinite(norms[0])] = 0
        sup = np.maximum(1.0, norms[0])
        for t in range(horizon):
            v[d] = u[:, t]
            column_step(cols, v, work, out=x)
            norm = np.sqrt(sum_squares(x), out=norms[t + 1])
            # norms are nonnegative, so their sum is finite only if each one is
            if not math.isfinite(norm.sum()):
                big = ~np.isfinite(norm)
                norm[big] = column_norms(x[:, big])
                overflow[~np.isfinite(norm) & (overflow < 0)] = t + 1
            sup = np.maximum(sup, norm)
            clamp = norm <= zero_rtol * sup
            x[:, clamp] = 0.0
            norm[clamp] = 0.0
            if keep_states:
                states[t + 1] = x
            if t >= last and clamp.all():
                break
    return (states.transpose(2, 0, 1) if keep_states else None), norms.T, overflow


def rollout(
    p: PlantDynamics,
    xi: np.ndarray,
    u: np.ndarray,
    zero_rtol: float = ZERO_RTOL,
) -> np.ndarray:
    """Forward recursion of one plant; returns the (T+1) x d state array.

    Raises ``NonFiniteError`` when the state overflows, and ``ValueError`` for
    an initial state without d entries, an input row that is not 1-D or not
    finite (as ``ControlLogic`` checks), or a refused ``zero_rtol``.
    """
    check_tolerances(zero_rtol)
    xi = checked_state(p, xi)
    if np.ndim(u) != 1:
        raise ValueError(f"input row must be one-dimensional, got shape {np.shape(u)}")
    u = ControlLogic([u]).u
    states, _, overflow = rollout_stack(p.A[None], p.b[None], xi[None], u, zero_rtol)
    if overflow[0] >= 0:
        raise NonFiniteError(f"state overflowed at step {overflow[0]}")
    return states[0]


def terminal_residuals(A, b, xi, u, zero_rtol: float = ZERO_RTOL) -> tuple:
    """The verifier's test of thresholded input rows ``u`` for stacked plants of one
    dimension: rolled out (``rollout_stack``, keeping no states), they give their
    norms, each terminal norm over its trajectory's sup-norm floored at 1, and the
    overflow steps (-1 for none). The residuals divide the rollout's own norms, the
    ones its clamp compared."""
    _, norms, overflow = rollout_stack(A, b, xi, u, zero_rtol, keep_states=False)
    return norms, norms[:, -1] / np.maximum(1.0, norms.max(axis=1)), overflow


def steers_to_zero(A, b, xi, u, zero_rtol: float, terminal_rtol: float) -> np.ndarray:
    """Per row of ``u``, thresholded: whether ``verify_logic`` finds its plant steered to zero."""
    u = np.where(nonzero_entries(u, zero_rtol), u, 0.0)
    _, residuals, overflow = terminal_residuals(A, b, xi, u, zero_rtol)
    return (overflow < 0) & (residuals <= terminal_rtol)


def verify_logic(
    inst: NcsInstance,
    logic: ControlLogic,
    zero_rtol: float = ZERO_RTOL,
    terminal_rtol: float = TERMINAL_RTOL,
) -> SimulationResult:
    """Run every plant under the (thresholded) logic and judge the outcome.

    Each dimension group's rows, thresholded, are judged by ``terminal_residuals``;
    ``verified`` is true iff every relative terminal residual is at most
    ``terminal_rtol`` and no slot is over capacity. This flag is the single
    source of truth used by the solve pipeline and the acceptance tests. The
    result carries the thresholded logic it judged, which is what a solve
    reports. ``logic`` must be a ``ControlLogic``, and both tolerances must
    lie strictly between 0 and 1.
    """
    check_tolerances(zero_rtol, terminal_rtol)
    if not isinstance(logic, ControlLogic):
        raise ValueError(f"logic must be a ControlLogic, got {type(logic).__name__}")
    if logic.u.shape != (inst.n, inst.horizon):
        raise ValueError(
            f"control logic shape {logic.u.shape} does not match instance "
            f"({inst.n}, {inst.horizon})"
        )
    zeroed = logic.thresholded(zero_rtol)
    groups = group_by_dim(inst)
    norms = np.empty((inst.n, inst.horizon + 1))
    residuals = np.empty(inst.n)
    overflow = np.empty(inst.n, dtype=int)
    for g in groups:
        norms[g.idx], residuals[g.idx], overflow[g.idx] = terminal_residuals(
            g.A, g.b, g.xi, zeroed.u[g.idx], zero_rtol
        )
    if overflow.max() >= 0:
        first = overflow[np.flatnonzero(overflow >= 0)[0]]
        raise NonFiniteError(f"state overflowed at step {first}")
    # the thresholded rows' nonzeros are the mask they were cut to
    occupancy = np.count_nonzero(zeroed.u, axis=0)
    max_occ = int(occupancy.max()) if occupancy.size else 0

    violations = []
    bad = np.nonzero(residuals > terminal_rtol)[0]
    if bad.size:
        shown = ", ".join(str(i + 1) for i in bad[:5])
        violations.append(
            f"{bad.size} plants end away from zero (first few, 1-based: {shown})"
        )
    if max_occ > inst.capacity:
        t_bad = int(np.argmax(occupancy))
        violations.append(
            f"capacity violation: slot {t_bad} holds {max_occ} plants, "
            f"capacity is {inst.capacity}"
        )
    return SimulationResult(
        norms=norms,
        terminal_residuals=residuals,
        max_column_occupancy=max_occ,
        verified=not violations,
        control=zeroed,
        violations=tuple(violations),
    )
