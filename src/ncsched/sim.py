"""Closed-NCS simulation, schedule extraction, and verification.

The simulator applies two zeroing conventions before and during the forward
recursion so that the reported trajectory is achievable under the reported
schedule and so that a steered state stays at rest:

* input entries below the per-plant zero threshold are physically zeroed, not
  merely ignored while counting, so schedule and actuation agree exactly;
* a state whose norm falls below the zero threshold (relative to the running
  trajectory sup-norm, floored at 1) is clamped to the exact zero vector.
  Without the clamp, the ~1e-15 rounding left at a steering window's end
  regrows under an unstable state map to O(1) or far worse over the remaining
  open-loop steps, reporting failure for trajectories whose exact-arithmetic
  counterparts are identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TERMINAL_RTOL,
    ZERO_RTOL,
    ControlLogic,
    NcsInstance,
    PlantDynamics,
    SchedulingLogic,
    group_by_dim,
    matvec,
)
from .errors import CapacityViolationError, NonFiniteError


@dataclass(frozen=True)
class SimulationResult:
    """Trajectories and the verdict of one closed-NCS run.

    ``norms`` holds each plant's state 2-norm at every step, N x (T+1).
    """

    trajectories: tuple[np.ndarray, ...]
    norms: np.ndarray
    terminal_residuals: np.ndarray
    max_column_occupancy: int
    verified: bool
    violations: tuple[str, ...] = ()

    def state_norms(self) -> list[list[float]]:
        """Per-plant 2-norm series, length T+1 each."""
        return self.norms.tolist()


def extract_schedule(
    logic: ControlLogic,
    capacity: int | None = None,
    zero_rtol: float = ZERO_RTOL,
) -> SchedulingLogic:
    """Channel slots implied by a control logic: plants with nonzero input.

    Dropping plants whose input is zero loses nothing, since a closed-loop
    step with zero input equals an open-loop step. When ``capacity`` is given,
    a slot holding more plants raises ``CapacityViolationError``.
    """
    mask = logic.nonzero_mask(zero_rtol)
    slots = tuple(
        frozenset(np.nonzero(mask[:, t])[0].tolist()) for t in range(logic.horizon)
    )
    if capacity is not None:
        for t, slot in enumerate(slots):
            if len(slot) > capacity:
                raise CapacityViolationError(
                    f"slot {t} holds {len(slot)} plants, capacity is {capacity}"
                )
    return SchedulingLogic(slots)


def rollout_stack(
    A: np.ndarray,
    b: np.ndarray,
    xi: np.ndarray,
    u: np.ndarray,
    zero_rtol: float = ZERO_RTOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward recursion of stacked plants of one dimension.

    ``A`` is n x d x d, ``b`` and ``xi`` are n x d and ``u`` is n x T. Returns
    the n x (T+1) x d states, their n x (T+1) 2-norms, and per plant the first
    step whose state norm is not finite (0 when none; later states of such a
    plant are meaningless). States are clamped to exact zero once below the
    running-sup zero threshold (see module docstring); initial states never
    are.
    """
    n, horizon = u.shape
    states = np.empty((n, horizon + 1, A.shape[-1]))
    norms = np.empty((n, horizon + 1))
    overflow = np.zeros(n, dtype=int)
    x = xi
    states[:, 0] = x
    norms[:, 0] = np.sqrt(np.vecdot(xi, xi))
    sup = np.maximum(1.0, norms[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            x = matvec(A, x) + b * u[:, t, None]
            norm = np.sqrt(np.vecdot(x, x))
            overflow[(overflow == 0) & ~np.isfinite(norm)] = t + 1
            sup = np.maximum(sup, norm)
            clamp = norm <= zero_rtol * sup
            x = np.where(clamp[:, None], 0.0, x)
            states[:, t + 1] = x
            norms[:, t + 1] = np.where(clamp, 0.0, norm)
    return states, norms, overflow


def rollout(
    p: PlantDynamics,
    xi: np.ndarray,
    u: np.ndarray,
    zero_rtol: float = ZERO_RTOL,
) -> np.ndarray:
    """Forward recursion of one plant; returns the (T+1) x d state array.

    Raises ``NonFiniteError`` when the state overflows.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    states, _, overflow = rollout_stack(p.A[None], p.b[None], xi[None], u[None], zero_rtol)
    if overflow[0]:
        raise NonFiniteError(f"state overflowed at step {overflow[0]}")
    return states[0]


def simulate(
    inst: NcsInstance,
    logic: ControlLogic,
    zero_rtol: float = ZERO_RTOL,
    terminal_rtol: float = TERMINAL_RTOL,
) -> SimulationResult:
    """Run every plant under the (thresholded) logic and judge the outcome.

    ``verified`` is true iff every relative terminal residual is at most
    ``terminal_rtol`` and no slot is over capacity. The residual denominator
    is the plant's trajectory sup-norm floored at 1.
    """
    if logic.u.shape != (inst.n, inst.horizon):
        raise ValueError(
            f"control logic shape {logic.u.shape} does not match instance "
            f"({inst.n}, {inst.horizon})"
        )
    zeroed = logic.thresholded(zero_rtol)
    trajectories: list = [None] * inst.n
    norms = np.empty((inst.n, inst.horizon + 1))
    residuals = np.empty(inst.n)
    overflow = np.zeros(inst.n, dtype=int)
    for g in group_by_dim(inst):
        states, norms[g.idx], overflow[g.idx] = rollout_stack(
            g.A, g.b, g.xi, zeroed.u[g.idx], zero_rtol
        )
        # residuals are defined with norm(axis=-1), whose last bits can
        # differ from the clamp's vecdot norms
        state_norm = np.linalg.norm(states, axis=-1)
        residuals[g.idx] = state_norm[:, -1] / np.maximum(1.0, state_norm.max(axis=1))
        for k, i in enumerate(g.idx):
            trajectories[i] = states[k]
    if overflow.any():
        first = overflow[np.flatnonzero(overflow)[0]]
        raise NonFiniteError(f"state overflowed at step {first}")
    occupancy = zeroed.occupancy(zero_rtol)
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
        trajectories=tuple(trajectories),
        norms=norms,
        terminal_residuals=residuals,
        max_column_occupancy=max_occ,
        verified=not violations,
        violations=tuple(violations),
    )


def verify_logic(
    inst: NcsInstance,
    logic: ControlLogic,
    zero_rtol: float = ZERO_RTOL,
    terminal_rtol: float = TERMINAL_RTOL,
) -> SimulationResult:
    """Simulate and check both requirements: zero terminal states, capacity.

    The returned ``verified`` flag is the single source of truth used by the
    solve pipeline and the acceptance tests.
    """
    return simulate(inst, logic, zero_rtol=zero_rtol, terminal_rtol=terminal_rtol)
