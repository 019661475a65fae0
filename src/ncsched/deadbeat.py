"""Finite-window input bursts that steer a reachable plant's state to zero.

A window of length ``width > d`` starts with ``width - d`` exact zeros and
ends with the d-entry burst ``-inv(Psi) @ A^width @ x``, where ``Psi`` is the
controllability matrix. Forward simulation from ``x`` under the window lands
on the zero state at the window's end, so each plant needs at most d nonzero
inputs no matter how long its window is.

``deadbeat_rows``, the one checked path from windows to input rows for a
plan and for one plant alike, checks the windows, warns about ill-conditioned
Psi and runs the kernel ``deadbeat_bursts``, which reports only overflow.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import PlantDynamics, mat_powers, matvec, stack_plants
from .errors import (
    IllConditionedWarning,
    NonFiniteError,
    NotReachableError,
    WindowOverflowError,
)

COND_WARN_LIMIT = 1e12


def deadbeat_bursts(groups, offset: np.ndarray, width: np.ndarray, horizon: int) -> np.ndarray:
    """Input rows holding the deadbeat burst of every plant of ``groups``.

    ``offset`` and ``width`` give each plant's window by plant index; other
    rows stay zero. Plant i coasts for ``offset[i]`` steps, then the burst
    ``-inv(Psi) A^width A^offset xi`` fills the last d slots of its window
    (one solve per group, with the group's own Psi). Windows, reachability
    and conditioning are not checked here. Raises ``NonFiniteError`` for the
    lowest-index plant whose coast power, window power or burst overflows.
    """
    u = np.zeros((offset.size, horizon))
    # per plant: 0 built, 1 coast power, 2 window power or 3 burst overflowed
    failed = np.zeros(offset.size, dtype=int)
    for g in groups:
        n, d = g.xi.shape
        offsets, widths = offset[g.idx], width[g.idx]
        # one pass for both exponents: each power is the same product sequence from I
        powers = mat_powers(np.concatenate([g.A, g.A]), np.concatenate([offsets, widths]))
        coast, steer = powers[:n], powers[n:]
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = matvec(steer, matvec(coast, g.xi))
        # only finite right-hand sides are solved; the rest count as overflowed
        finite = np.isfinite(rhs).all(axis=1)
        tails = np.full(g.xi.shape, np.inf)
        tails[finite] = -np.linalg.solve(g.psi[finite], rhs[finite][..., None])[..., 0]
        powers_ok = np.isfinite(powers).all(axis=(1, 2))
        coast_ok, steer_ok = powers_ok[:n], powers_ok[n:]
        burst_ok = np.isfinite(tails).all(axis=1)
        failed[g.idx] = np.where(~coast_ok, 1, np.where(~steer_ok, 2, np.where(~burst_ok, 3, 0)))
        # each burst fills the last d slots of its window
        u[g.idx[:, None], (offsets + widths - d)[:, None] + np.arange(d)] = tails
    for i in np.flatnonzero(failed)[:1]:
        if failed[i] == 3:
            raise NonFiniteError("deadbeat burst overflowed")
        exponent = (offset if failed[i] == 1 else width)[i]
        raise NonFiniteError(f"matrix power overflowed at exponent {exponent}")
    return u


def deadbeat_rows(groups, offset: np.ndarray, width: np.ndarray, horizon: int) -> np.ndarray:
    """``deadbeat_bursts`` on checked windows, with its ill-conditioning warnings.

    The lowest-index plant of ``groups`` with a bad window raises: a
    ``ValueError`` when the window is not longer than its dimension, else a
    ``WindowOverflowError`` when it leaves [0, horizon). Then every plant
    whose Psi condition number (its group's ``cond``) exceeds
    ``COND_WARN_LIMIT`` warns (``IllConditionedWarning``), in plant order,
    and the kernel builds the rows. The callers decide reachability.
    """
    dims = np.zeros(offset.size, dtype=int)
    cond = np.zeros(offset.size)
    for g in groups:
        dims[g.idx], cond[g.idx] = g.A.shape[-1], g.cond
    short, outside = width <= dims, (offset < 0) | (offset + width > horizon)
    for i in np.flatnonzero((dims > 0) & (short | outside))[:1]:
        if short[i]:
            raise ValueError(
                f"window length {width[i]} too short for plant {i + 1} of dimension {dims[i]}"
            )
        raise WindowOverflowError(
            f"window [{offset[i]}, {offset[i] + width[i]}) exceeds horizon {horizon}"
        )
    for i in np.flatnonzero(cond > COND_WARN_LIMIT):
        warnings.warn(
            f"controllability matrix condition number {cond[i]:.2e} exceeds "
            f"{COND_WARN_LIMIT:.0e}; window accuracy may degrade",
            IllConditionedWarning,
            stacklevel=3,
        )
    return deadbeat_bursts(groups, offset, width, horizon)


def windowed_inputs(
    p: PlantDynamics, xi: np.ndarray, offset: int, width: int, horizon: int
) -> np.ndarray:
    """Full-horizon input row with one deadbeat window at a given offset.

    The plant coasts with zero input on [0, offset); the window is ``width - d``
    zeros, then the burst ``-inv(Psi) @ A^width @ A^offset @ xi`` (a solve, not an
    inverse), so the state is zero from ``offset + width`` through the horizon.
    An unreachable plant raises ``NotReachableError``; the window is checked
    as a plan's are (``deadbeat_rows``, the plant counting as plant 1): one
    not longer than d is a ``ValueError``, one outside [0, horizon) a
    ``WindowOverflowError``. An ill-conditioned Psi warns
    (``IllConditionedWarning``) but still returns the row.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != p.d:
        raise ValueError("state has wrong length")
    g = stack_plants([0], [p], [xi])
    if not g.reachable[0]:
        raise NotReachableError()
    return deadbeat_rows([g], np.array([offset]), np.array([width]), horizon)[0]
