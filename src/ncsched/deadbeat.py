"""Finite-window input bursts that steer a reachable plant's state to zero.

A window of length ``width > d`` starts with ``width - d`` exact zeros and
ends with the d-entry burst ``-inv(Psi) @ A^width @ x``, where ``Psi`` is the
controllability matrix. Forward simulation from ``x`` under the window lands
on the zero state at the window's end, so each plant needs at most d nonzero
inputs no matter how long its window is.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import PlantDynamics, mat_powers, matvec, rank_and_cond, reach_matrices
from .errors import (
    IllConditionedWarning,
    NonFiniteError,
    NotReachableError,
    WindowOverflowError,
)

COND_WARN_LIMIT = 1e12


def deadbeat_bursts(
    A: np.ndarray, b: np.ndarray, xi: np.ndarray, offsets, widths
) -> tuple[np.ndarray, dict[int, tuple[str | None, Exception | None]]]:
    """Stacked deadbeat bursts for plants of one dimension.

    Row k coasts ``xi[k]`` for ``offsets[k]`` steps and then steers it to zero
    with a window of ``widths[k]`` steps. Returns the n x d window tails
    ``-inv(Psi) A^width A^offset xi``, from one factorization-based solve for
    the stack, and the problems of the rows that have any (a burst that is
    not finite is a ``NonFiniteError``):
    ``{row: (ill-conditioning warning text or None, error or None)}``. A row
    has a warning only if it got as far as the condition check, so replaying
    each row's warning and then its error in plant order (``raise_in_order``)
    repeats what building the windows one plant at a time would do.
    """
    d = A.shape[-1]
    offsets = np.asarray(offsets)
    widths = np.asarray(widths)
    coast = mat_powers(A, offsets)
    # widths <= d fail their own check below; give them a harmless exponent
    steer = mat_powers(A, np.where(widths > d, widths, 0))
    psi = reach_matrices(A, b)
    reachable, cond = rank_and_cond(psi)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = matvec(steer, matvec(coast, xi))
    coast_ok = np.isfinite(coast).all(axis=(1, 2))
    steer_ok = np.isfinite(steer).all(axis=(1, 2))
    ill = cond > COND_WARN_LIMIT
    problems: dict[int, tuple[str | None, Exception | None]] = {}
    # the checks in the order one plant meets them
    for k in np.flatnonzero(~coast_ok | (widths <= d) | ~reachable | ill | ~steer_ok):
        text = error = None
        if not coast_ok[k]:
            error = NonFiniteError(f"matrix power overflowed at exponent {offsets[k]}")
        elif widths[k] <= d:
            error = ValueError(f"window length {widths[k]} must exceed dimension {d}")
        elif not reachable[k]:
            error = NotReachableError()
        else:
            if ill[k]:
                text = (
                    f"controllability matrix condition number {cond[k]:.2e} exceeds "
                    f"{COND_WARN_LIMIT:.0e}; window accuracy may degrade"
                )
            if not steer_ok[k]:
                error = NonFiniteError(f"matrix power overflowed at exponent {widths[k]}")
        problems[int(k)] = (text, error)
    solvable = np.ones(len(xi), dtype=bool)
    solvable[[k for k, (_, error) in problems.items() if error]] = False
    tails = np.zeros(xi.shape)
    tails[solvable] = -np.linalg.solve(psi[solvable], rhs[solvable][..., None])[..., 0]
    # a finite right-hand side can still overflow in the solve
    for k in np.flatnonzero(~np.isfinite(tails).all(axis=1)):
        text = problems.get(int(k), (None, None))[0]
        problems[int(k)] = (text, NonFiniteError("deadbeat burst overflowed"))
    return tails, problems


def raise_in_order(problems: dict[int, tuple[str | None, Exception | None]]) -> None:
    """Per plant in index order: emit its warning, then raise its error."""
    for i in sorted(problems):
        text, error = problems[i]
        if text:
            warnings.warn(text, IllConditionedWarning, stacklevel=3)
        if error:
            raise error


def deadbeat_inputs(p: PlantDynamics, xi: np.ndarray, width: int) -> np.ndarray:
    """Length-``width`` input sequence driving ``xi`` to the zero state.

    Parameters
    ----------
    p : PlantDynamics
        Must be reachable.
    xi : array
        State to annihilate, length ``p.d``.
    width : int
        Window length, strictly greater than ``p.d``.

    Returns
    -------
    ndarray
        ``width - d`` zeros followed by ``-inv(Psi) @ A^width @ xi``, computed
        with a factorization-based solve (never an explicit inverse). A
        condition number above ``COND_WARN_LIMIT`` raises an
        ``IllConditionedWarning`` but still returns the window; the simulator's
        verification is authoritative.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != p.d:
        raise ValueError("state has wrong length")
    return windowed_inputs(p, xi, 0, width, width)


def windowed_inputs(
    p: PlantDynamics, xi: np.ndarray, offset: int, width: int, horizon: int
) -> np.ndarray:
    """Full-horizon input row with one steering window at a given offset.

    The plant coasts with zero input on [0, offset), so the window is built
    for the propagated state ``A^offset xi``; the state is zero from
    ``offset + width`` through the horizon.
    """
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    if offset + width > horizon:
        raise WindowOverflowError(
            f"window [{offset}, {offset + width}) exceeds horizon {horizon}"
        )
    xi = np.asarray(xi, dtype=float).reshape(-1)
    tails, problems = deadbeat_bursts(p.A[None], p.b[None], xi[None], [offset], [width])
    raise_in_order(problems)
    row = np.zeros(horizon)
    row[offset + width - p.d : offset + width] = tails[0]
    return row
