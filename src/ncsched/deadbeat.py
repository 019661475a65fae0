"""Finite-window input bursts that steer a reachable plant's state to zero.

A window of length ``width > d`` starts with ``width - d`` exact zeros and
ends with the d-entry burst ``-inv(Psi) @ A^width @ x``, where ``Psi`` is the
controllability matrix. Forward simulation from ``x`` under the window lands
on the zero state at the window's end, so each plant needs at most d nonzero
inputs no matter how long its window is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import PlantDynamics, mat_powers, matvec, rank_and_cond, reach_matrices
from .errors import (
    IllConditionedWarning,
    NonFiniteError,
    NotReachableError,
    WindowOverflowError,
)

COND_WARN_LIMIT = 1e12


@dataclass(frozen=True)
class DeadbeatWindow:
    """One plant's steering burst placed inside the horizon.

    ``inputs`` has length ``length`` and starts with a run of exact zeros;
    ``start + length`` must not exceed the horizon it is embedded into.
    """

    plant: int
    start: int
    length: int
    inputs: np.ndarray

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=float)
        if self.plant < 0 or self.start < 0:
            raise ValueError("plant index and start must be nonnegative")
        if inputs.shape != (self.length,):
            raise ValueError(
                f"window holds {inputs.shape} inputs, expected ({self.length},)"
            )
        inputs.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)

    @property
    def end(self) -> int:
        return self.start + self.length

    def embed(self, horizon: int) -> np.ndarray:
        """Full-horizon input row: zeros outside [start, start+length)."""
        if self.end > horizon:
            raise WindowOverflowError(
                f"window [{self.start}, {self.end}) exceeds horizon {horizon}"
            )
        row = np.zeros(horizon)
        row[self.start : self.end] = self.inputs
        return row


def deadbeat_bursts(
    A: np.ndarray, b: np.ndarray, xi: np.ndarray, offsets, widths
) -> tuple[np.ndarray, dict[int, tuple[str | None, Exception | None]]]:
    """Stacked deadbeat bursts for plants of one dimension.

    Row k coasts ``xi[k]`` for ``offsets[k]`` steps and then steers it to zero
    with a window of ``widths[k]`` steps. Returns the n x d window tails
    ``-inv(Psi) A^width A^offset xi``, from one factorization-based solve for
    the stack, and the problems of the rows that have any:
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
    return tails, problems


def raise_in_order(problems: dict[int, tuple[str | None, Exception | None]]) -> None:
    """Per plant in index order: emit its warning, then raise its error."""
    for i in sorted(problems):
        text, error = problems[i]
        if text:
            warnings.warn(text, IllConditionedWarning, stacklevel=3)
        if error:
            raise error


def _window_inputs(p: PlantDynamics, xi, offset: int, width: int) -> np.ndarray:
    """One plant's window: ``width - d`` zeros, then its burst; a stack of one."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    tails, problems = deadbeat_bursts(p.A[None], p.b[None], xi[None], [offset], [width])
    raise_in_order(problems)
    u = np.zeros(width)
    u[width - p.d :] = tails[0]
    return u


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
    return _window_inputs(p, xi, 0, width)


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
    return make_window(0, p, xi, offset, width).embed(horizon)


def make_window(
    plant: int, p: PlantDynamics, xi: np.ndarray, offset: int, width: int
) -> DeadbeatWindow:
    """Steering window for a specific plant index, ready to embed into a row."""
    return DeadbeatWindow(
        plant=plant, start=offset, length=width, inputs=_window_inputs(p, xi, offset, width)
    )
