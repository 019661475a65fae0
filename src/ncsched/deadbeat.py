"""Finite-window input bursts that steer a reachable plant's state to zero.

A window of length ``width > d`` starts with ``width - d`` exact zeros and
ends with the d-entry burst ``-inv(Psi) @ x_open``, where ``Psi`` is the
controllability matrix and ``x_open`` the zero-input state at the window's
end, read off the open-loop scan (``core.OpenLoopStates``), whose states are
the verifier's own. The state at the window's end, ``x_open + Psi @ burst``,
is zero, so each plant needs at most d nonzero inputs however long its window.

``deadbeat_rows``, the one checked path from windows to input rows for a
plan and for one plant alike, checks the windows, warns about ill-conditioned
Psi and runs the kernel ``deadbeat_bursts``, which reports only overflow.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    OpenLoopStates,
    PlantDynamics,
    _as_int,
    checked_horizon,
    checked_state,
    open_loop_scan,
    rank_and_cond,
    stack_plants,
)
from .errors import IllConditionedWarning, NonFiniteError, NotReachableError, WindowOverflowError

COND_WARN_LIMIT = 1e12


def deadbeat_bursts(groups, states, offset, width, horizon: int) -> np.ndarray:
    """Input rows holding the deadbeat burst of every plant of ``groups``.

    ``states`` maps each of the groups' dimensions to its open-loop scan
    (``OpenLoopStates``, as ``split_open_loop`` gives them); ``offset`` and
    ``width`` give each plant's window by plant index, and other rows stay
    zero. Plant i's burst solves
    ``Psi @ burst = -x_open`` (one solve per group, with the group's own
    Psi), ``x_open`` its scanned state at step ``offset[i] + width[i]``, and
    fills the last d slots of its window. Windows, reachability and
    conditioning are not checked here. Raises ``NonFiniteError`` for the
    lowest-index plant whose state overflowed before its burst began, or
    whose burst did.
    """
    u = np.zeros((offset.size, horizon))
    failed = np.zeros(offset.size, dtype=bool)
    lost = np.zeros(offset.size, dtype=bool)
    for g in groups:
        d, scan = g.A.shape[-1], states[g.A.shape[-1]]
        ends = offset[g.idx] + width[g.idx]
        x = scan.at(g.idx, ends)
        # only finite states are solved; the rest count as overflowed
        finite = np.isfinite(x).all(axis=1)
        tails = np.full(x.shape, np.inf)
        tails[finite] = -np.linalg.solve(g.psi[finite], x[finite][..., None])[..., 0]
        failed[g.idx] = ~np.isfinite(tails).all(axis=1)
        if not finite.all():  # did those states overflow before their bursts began?
            lost[g.idx[~finite]] = ~np.isfinite(scan.at(g.idx[~finite], ends[~finite] - d)).all(1)
        # each burst fills the last d slots of its window
        u[g.idx[:, None], (ends - d)[:, None] + np.arange(d)] = tails
    for i in np.flatnonzero(failed)[:1]:
        if lost[i]:
            window = f"[{offset[i]}, {offset[i] + width[i]})"
            raise NonFiniteError(f"open-loop state overflowed before the burst of window {window}")
        raise NonFiniteError("deadbeat burst overflowed")
    return u


def deadbeat_rows(groups, states, offset, width, horizon: int) -> np.ndarray:
    """``deadbeat_bursts`` on checked windows, with its ill-conditioning warnings.

    The lowest-index plant of ``groups`` with a bad window raises: a
    ``ValueError`` when the window is not longer than its dimension, else a
    ``WindowOverflowError`` when it leaves [0, horizon). Then every plant
    whose Psi condition number, as numpy computes it, exceeds
    ``COND_WARN_LIMIT`` warns (``IllConditionedWarning``), in plant order,
    and the kernel builds the rows. A settled plant's is below
    1 / ``CERTIFICATE_SLACK``, under the limit, so only the others' are
    computed (``rank_and_cond``). The callers decide reachability.
    """
    dims = np.zeros(offset.size, dtype=int)
    for g in groups:
        dims[g.idx] = g.A.shape[-1]
    short, outside = width <= dims, (offset < 0) | (offset + width > horizon)
    for i in np.flatnonzero((dims > 0) & (short | outside))[:1]:
        if short[i]:
            raise ValueError(
                f"window length {width[i]} too short for plant {i + 1} of dimension {dims[i]}"
            )
        raise WindowOverflowError(
            f"window [{offset[i]}, {offset[i] + width[i]}) exceeds horizon {horizon}"
        )
    cond = np.zeros(offset.size)
    for g in groups:
        if not g.settled.all():
            cond[g.idx[~g.settled]] = rank_and_cond(g.psi[~g.settled])[1]
    for i in np.flatnonzero(cond > COND_WARN_LIMIT):
        warnings.warn(
            f"controllability matrix condition number {cond[i]:.2e} exceeds "
            f"{COND_WARN_LIMIT:.0e}; window accuracy may degrade",
            IllConditionedWarning,
            stacklevel=3,
        )
    return deadbeat_bursts(groups, states, offset, width, horizon)


def windowed_inputs(
    p: PlantDynamics, xi: np.ndarray, offset: int, width: int, horizon: int
) -> np.ndarray:
    """Full-horizon input row with one deadbeat window at a given offset.

    The plant coasts with zero input on [0, offset); the window is ``width - d``
    zeros, then the burst that cancels the open-loop state at the window's
    end, ``-inv(Psi) @ A^(offset + width) @ xi`` (a solve, not an inverse,
    with the state stepped by the open-loop scan of a stack of one), so the
    state is zero from ``offset + width`` through the horizon.
    A horizon that is not a positive integer is a ``ValueError``, as for an
    instance, and so is an offset or width that is not an integer. An
    unreachable plant raises ``NotReachableError``; the window is checked as
    a plan's are (``deadbeat_rows``, the plant counting as plant 1):
    one not longer than d is a ``ValueError``, one outside [0, horizon) a
    ``WindowOverflowError``. An ill-conditioned Psi warns
    (``IllConditionedWarning``) but still returns the row.
    """
    xi = checked_state(p, xi)
    horizon = checked_horizon(horizon)
    offset, width = _as_int("offset", offset), _as_int("width", width)
    g = stack_plants([0], [p], [xi])
    if not g.reachable[0]:
        raise NotReachableError()
    states = {p.d: OpenLoopStates(g.idx, open_loop_scan(g.A, g.xi, horizon)[1])}
    return deadbeat_rows([g], states, np.array([offset]), np.array([width]), horizon)[0]
