"""Sparsity-constrained feasibility: brute-force search, l1 relaxation, isometry constants.

The stacked feasibility problem asks for input rows that zero every plant's
terminal state while at most M rows are nonzero in any column. Three routes
are exposed:

* ``l0_feasible_bruteforce`` enumerates per-slot access sets at desk scale,
  judging each plant's least-squares row on each slot mask by the verifier's
  own rule (``sim.steers_to_zero``);
* ``min_l1`` solves one convex surrogate ``min |u|_1  s.t.  Phi u = -A^T xi``
  as a split-variable LP;
* ``solve_via_relaxation`` solves every plant's l1 program as one LP
  (``min_l1_stack``: the split systems are blocks of one block-diagonal
  equality system) and stacks the rows; the solve cascade's verifier alone
  judges whether they reach zero with at most M inputs per slot.

Both instance routes read every plant's terminal system ``Phi u = -A^T xi``
from its dimension group's stacks (``core.terminal_systems``), whose target is
the open-loop state at T, not a matrix power, read off the solve's one
open-loop scan: the cascade passes the states ``split_open_loop`` gave it, and
a direct call, given none, runs that scan itself (``_scanned``).

scipy is loaded only by the l1 relaxation, on the first LP of a process:
``min_l1_stack`` imports ``linprog`` and ``block_diag`` where it calls them.
``import ncsched``, generation, the lane, block and brute-force routes,
verification and report export run on numpy alone, and do not pay scipy's
import, which was about three quarters of ``import ncsched``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .core import (
    TERMINAL_RTOL,
    ZERO_RTOL,
    ControlLogic,
    NcsInstance,
    OpenLoopStates,
    _as_int,
    check_tolerances,
    group_by_dim,
    nonzero_entries,
    terminal_systems,
)
from .errors import HorizonTooShortError, SolverStallError, TooLargeError
from .planner import _require_reachable, split_open_loop
from .sim import steers_to_zero

RIP_CERT_BOUND = math.sqrt(2.0) - 1.0
RESIDUAL_RTOL = 1e-8
BRUTE_FORCE_CAP = 10**6
RIP_SUPPORT_CAP = 200_000
RIP_CHUNK_ENTRIES = 1 << 20
# HiGHS's default ``infinite_bound``: a right-hand side this large or larger
# reads as infinite, and the LP fails as a model error
LP_INFINITE_BOUND = 1e20


@dataclass(frozen=True)
class RipReport:
    """Restricted-isometry constant of one matrix at one sparsity order.

    ``certified`` is the recovery test ``delta < sqrt(2) - 1``; it implies
    l1 = sparsest recovery only when ``order`` is twice the solution sparsity.
    """

    order: int
    delta: float
    certified: bool


@dataclass
class RelaxationResult:
    """Outcome of the stacked l1 route.

    ``logic`` stacks every plant's minimum-l1 row; whether it keeps at most M
    inputs per slot is left to ``verify_logic``. ``supports`` lists the slots
    each plant's row uses, so its size is the plant's sparsity.
    """

    logic: ControlLogic
    supports: dict[int, tuple[int, ...]]
    warnings: list[str] = field(default_factory=list)

    def to_report_dict(self) -> dict:
        return {
            "kind": "relaxation",
            "sparsity": [[i + 1, len(supp)] for i, supp in sorted(self.supports.items())],
        }


def _row_space_system(gamma: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``gamma @ u = target`` projected onto the orthonormal basis of its row
    space, as ``(rows, rhs)``; ``SolverStallError`` when the target leaves the
    matrix range by more than ``RESIDUAL_RTOL * (1 + |target|)``."""
    if gamma.ndim != 2 or gamma.shape[0] != target.shape[0]:
        raise ValueError("matrix and target shapes do not match")
    left, sigma, right = np.linalg.svd(gamma, full_matrices=False)
    cutoff = max(gamma.shape) * np.finfo(float).eps * (sigma[0] if sigma.size else 0.0)
    keep = sigma > cutoff
    projected = left.T @ target
    dropped = projected[~keep]
    if gamma.shape[0] > sigma.size:
        # a tall matrix's thin basis does not span the target's space: judge
        # the target's whole residual off the kept directions
        dropped = target - left[:, keep] @ projected[keep]
    if dropped.size and np.abs(dropped).max() > RESIDUAL_RTOL * (
        1.0 + float(np.linalg.norm(target))
    ):
        raise SolverStallError(
            "equality system is inconsistent: target leaves the matrix range"
        )
    return right[keep], projected[keep] / sigma[keep]


def _polish(gamma: np.ndarray, target: np.ndarray, u: np.ndarray, zero_rtol: float) -> np.ndarray:
    """The LP row, or its least-squares re-solve on its support when that has
    the smaller residual. Whether the row steers its plant to zero is left to
    the verifier."""
    resid = float(np.linalg.norm(gamma @ u - target))
    # a vertex solution has few significant entries; a least-squares re-solve
    # on that support pushes the equality residual to machine level
    if resid > 0.0:
        supp = np.flatnonzero(nonzero_entries(u[None], zero_rtol))
        if supp.size:
            w, *_ = np.linalg.lstsq(gamma[:, supp], target, rcond=None)
            polished = np.zeros(u.size)
            polished[supp] = w
            if float(np.linalg.norm(gamma @ polished - target)) < resid:
                return polished
    return u


def min_l1_stack(gammas, targets, zero_rtol: float = ZERO_RTOL) -> list[np.ndarray]:
    """Minimum-l1-norm solutions of every system ``gammas[k] @ u = targets[k]``.

    The systems share no unknowns, so one LP solves them all: the standard
    split form (u = up - un, up/un >= 0, minimize their sum) of each system
    is one block of a block-diagonal equality system, passed to HiGHS in a
    single call. Each system is first projected onto the orthonormal basis of
    its row space (an exact, invertible transformation): lifted matrices of
    unstable plants mix column scales across ~30 orders of magnitude, and
    without this preconditioning the LP backend cannot see the small singular
    direction at all. Each returned row is then polished by least squares on
    its support (entries above ``zero_rtol`` times the larger of 1 and its
    largest magnitude) when that lowers its residual in the original
    coordinates. No residual is judged here: the solve cascade's verifier is
    the only test of whether a row steers its plant to zero. When a system
    has several minimizers, the vertex HiGHS returns for it may depend on the
    other systems in the stack. A system whose matrix or target is not
    finite is a ``ValueError`` naming it, raised before any SVD or LP. An
    inconsistent system, a projected target entry of ``LP_INFINITE_BOUND`` or
    more (refused before the LP runs) or a failed LP raises
    ``SolverStallError``.
    """
    systems = [
        (np.asarray(g, dtype=float), np.asarray(t, dtype=float).reshape(-1))
        for g, t in zip(gammas, targets, strict=True)
    ]
    for k, (g, t) in enumerate(systems):
        if not (np.isfinite(g).all() and np.isfinite(t).all()):
            raise ValueError(f"system {k + 1} of {len(systems)}: matrix or target is not finite")
    if not systems:
        return []
    projected = [_row_space_system(g, t) for g, t in systems]
    for k, (_, rhs) in enumerate(projected):
        peak = np.abs(rhs).max(initial=0.0)
        if not peak < LP_INFINITE_BOUND:
            raise SolverStallError(
                f"system {k + 1} of {len(systems)}: its projected target reaches "
                f"{peak:.3g}, at or past the LP backend's infinite bound {LP_INFINITE_BOUND:g}"
            )
    # imported here, not at the top: only the LP needs scipy, and it costs most of `import ncsched`
    from scipy.optimize import linprog
    from scipy.sparse import block_diag

    a_eq = block_diag([np.hstack([rows, -rows]) for rows, _ in projected], format="csc")
    res = linprog(
        np.ones(a_eq.shape[1]),
        A_eq=a_eq,
        b_eq=np.concatenate([rhs for _, rhs in projected]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise SolverStallError(
            f"LP backend status {res.status}: {res.message} "
            f"({len(systems)} systems, stacked shape {a_eq.shape})"
        )
    # system k owns the columns [x+ | x-] of block k
    ends = np.cumsum([2 * g.shape[1] for g, _ in systems])
    return [
        _polish(g, t, x[: g.shape[1]] - x[g.shape[1] :], zero_rtol)
        for (g, t), x in zip(systems, np.split(res.x, ends[:-1]))
    ]


def min_l1(gamma: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-l1-norm solution of ``gamma @ u = target``: ``min_l1_stack``
    on a stack of one, so its residual is not judged."""
    return min_l1_stack([gamma], [target])[0]


def rip_delta(gamma: np.ndarray, order: int) -> RipReport:
    """Exact restricted-isometry constant by exhausting all column supports.

    ``delta`` is the largest deviation of a support-submatrix Gram spectrum
    from 1. Exhaustive rather than sampled, so the certificate is sound; the
    support count is capped at ``RIP_SUPPORT_CAP`` to keep it at desk scale.
    The sub-Gram matrices are stacked in chunks of supports, one batched
    eigenvalue call each. A support whose spectrum is not finite (overflowed
    Gram entries) gives ``delta = inf``, never a certificate. An ``order``
    that is not an integer is a ``ValueError``.
    """
    order = _as_int("order", order)
    gamma = np.asarray(gamma, dtype=float)
    width = gamma.shape[1]
    if not 1 <= order <= width:
        raise ValueError(f"order must be in 1..{width}, got {order}")
    count = math.comb(width, order)
    if count > RIP_SUPPORT_CAP:
        raise TooLargeError(
            f"{count} supports of size {order} exceed the cap of {RIP_SUPPORT_CAP}"
        )
    gram = gamma.T @ gamma
    lo, hi = np.inf, -np.inf
    supports = combinations(range(width), order)
    # the sub-Gram stack of one chunk holds at most RIP_CHUNK_ENTRIES floats
    chunk = max(1, RIP_CHUNK_ENTRIES // (order * order))
    while batch := list(islice(supports, chunk)):
        idx = np.array(batch)
        eigs = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        if not np.isfinite(eigs).all():
            # an overflowed Gram entry: no finite isometry constant holds
            return RipReport(order=order, delta=math.inf, certified=False)
        lo = min(lo, eigs[:, 0].min())
        hi = max(hi, eigs[:, -1].max())
    delta = max(hi - 1.0, 1.0 - lo, 0.0)
    return RipReport(order=order, delta=float(delta), certified=bool(delta < RIP_CERT_BOUND))


def _access_sets(n: int, capacity: int) -> list[tuple[int, ...]]:
    """Every set of at most ``capacity`` of ``n`` plants, smaller sets first."""
    return [s for size in range(capacity + 1) for s in combinations(range(n), size)]


def _scanned(inst: NcsInstance, states) -> dict[int, OpenLoopStates]:
    """``states``, or when None the instance's own scan (``split_open_loop``)."""
    return split_open_loop(inst)[2] if states is None else states


def _mask_table(inst: NcsInstance, states, zero_rtol: float, terminal_rtol: float):
    """Per plant and slot mask (bit t = slot t), N x 2^T: the least-squares row on the
    mask's columns of the T-terminal lifted matrix (one stacked ``pinv`` of the lifted
    matrices with the other columns zeroed, whose rounding off the mask is cleared),
    and whether ``steers_to_zero`` accepts it; the targets are read off ``states``."""
    horizon, n_masks = inst.horizon, 2**inst.horizon
    bits = np.arange(n_masks)[:, None] >> np.arange(horizon) & 1
    rows = np.empty((inst.n, n_masks, horizon))
    ok = np.empty((inst.n, n_masks), dtype=bool)
    groups = group_by_dim(inst)
    for g, (phi, target) in zip(groups, terminal_systems(groups, states)):
        sub = np.linalg.pinv(phi[:, None] * bits[None, :, None, :])
        rows[g.idx] = (sub @ target[:, None, :, None])[..., 0] * bits
        stack = (np.repeat(a, n_masks, axis=0) for a in (g.A, g.b, g.xi))
        accept = steers_to_zero(*stack, rows[g.idx].reshape(-1, horizon), zero_rtol, terminal_rtol)
        ok[g.idx] = accept.reshape(-1, n_masks)
    return rows, ok


def l0_feasible_bruteforce(
    inst: NcsInstance,
    *,
    zero_rtol: float = ZERO_RTOL,
    terminal_rtol: float = TERMINAL_RTOL,
    states: dict[int, OpenLoopStates] | None = None,
) -> ControlLogic | None:
    """First assignment of at most M plants per slot whose rows the verifier accepts.

    Each plant's slot mask is tried with its least-squares row (``_mask_table``)
    and judged by ``verify_logic``'s own rule at ``zero_rtol`` and
    ``terminal_rtol``. Assignments of per-slot access sets are walked slot by
    slot, smaller sets first, then lexicographic; a branch is entered only
    while every plant's mask so far extends to an accepted mask, so the full
    walk's first accepted assignment is returned. None: no assignment has
    least-squares rows that pass (other inputs on the same masks are not
    tried). Refuses when (number of access sets)^T exceeds ``BRUTE_FORCE_CAP``;
    the message names the count only when it is itself within the cap.
    The targets are read off ``states`` (``split_open_loop``), or off the
    route's own scan, run after the cap refusals, when it is None.
    """
    check_tolerances(zero_rtol, terminal_rtol)
    n, horizon, cap = inst.n, inst.horizon, BRUTE_FORCE_CAP
    # running totals stop at the cap instead of forming huge integers
    n_sets = 0
    for size in range(inst.capacity + 1):
        n_sets += math.comb(n, size)
        if n_sets > cap:
            raise TooLargeError(
                f"more than {cap} access sets per slot ({n} plants, capacity {inst.capacity})"
            )
    assignments = 1
    for _ in range(horizon):
        assignments *= n_sets
        if assignments > cap:
            raise TooLargeError(f"{n_sets}^{horizon} assignments exceed the cap of {cap}")
    subsets = _access_sets(n, inst.capacity)
    rows, ok = _mask_table(inst, _scanned(inst, states), zero_rtol, terminal_rtol)
    # extendable[t][i][mask]: plant i's mask over slots < t extends to an accepted one
    extendable = [ok.reshape(n, -1, 2**t).any(axis=1).tolist() for t in range(horizon + 1)]
    plant_masks = [0] * n

    def search(t: int) -> ControlLogic | None:
        if not all(table[mask] for table, mask in zip(extendable[t], plant_masks)):
            return None
        if t == horizon:
            return ControlLogic(rows[np.arange(n), plant_masks])
        bit = 1 << t
        for subset in subsets:
            for i in subset:
                plant_masks[i] |= bit
            found = search(t + 1)
            for i in subset:
                plant_masks[i] &= ~bit
            if found is not None:
                return found
        return None

    return search(0)


def solve_via_relaxation(
    inst: NcsInstance,
    plants=None,
    zero_rtol: float = ZERO_RTOL,
    *,
    states: dict[int, OpenLoopStates] | None = None,
) -> RelaxationResult:
    """Stacked l1 route: one LP for every plant's l1 program, stacked rows.

    ``plants`` restricts the route to a subset (the solve cascade passes the
    plants whose zero rows the verifier rejects; the rest keep them); an index
    that is not an integer (``core._as_int``'s rule: no bool, no float), is
    not in 0..N-1 or is listed twice is a ``ValueError`` naming it. All
    selected plants must be reachable (one stacked rank test; the
    ``NotReachableError`` lists every unreachable plant) with horizon greater
    than their dimension. Every plant's lifted matrix and target is read from
    its dimension group's stacks (``terminal_systems``) before
    ``min_l1_stack`` solves them all in one LP, in plant order, so an
    overflow, an unreachable plant or a short horizon fails the route before
    the LP runs. The targets are read off ``states`` (``split_open_loop``), or
    off the route's own scan, run after those refusals, when it is None.
    ``zero_rtol`` (``check_tolerances``) picks the polish and reported supports.
    The rows are returned as the LP and its polish left them, with nothing
    judged: the solve cascade verifies every route's output, and
    ``verify_logic`` thresholds the rows at ``zero_rtol`` and judges both the
    terminal states and the channel rule (at most M nonzero inputs per slot).

    Uniqueness of the l1 minimizer is assumed, not checked; the result
    carries that warning. Where a plant's minimizers tie, the vertex chosen
    for it may depend on the other plants in the stack.
    """
    check_tolerances(zero_rtol)
    listed = range(inst.n) if plants is None else [_as_int("plant index", i) for i in plants]
    subset = sorted(listed)
    outside = [i for i in subset if not 0 <= i < inst.n]
    if outside:
        raise ValueError(f"plant index {outside[0]} is not in 0..{inst.n - 1}")
    repeated = [i for i, j in zip(subset, subset[1:]) if i == j]
    if repeated:
        raise ValueError(f"plant index {repeated[0]} is listed twice")
    _require_reachable(inst, subset)
    groups = group_by_dim(inst, subset)
    short = sorted(i for g in groups if inst.horizon <= g.A.shape[-1] for i in g.idx.tolist())
    if short:
        shown = ", ".join(str(i + 1) for i in short)
        raise HorizonTooShortError(
            f"horizon {inst.horizon} does not exceed the dimension of plants "
            f"(1-based): {shown}"
        )
    systems = {}
    for g, (phi, target) in zip(groups, terminal_systems(groups, _scanned(inst, states))):
        systems.update(zip(g.idx.tolist(), zip(phi, target)))
    phis = [systems[i][0] for i in subset]
    rows = min_l1_stack(phis, [systems[i][1] for i in subset], zero_rtol=zero_rtol)

    u = np.zeros((inst.n, inst.horizon))
    u[subset] = np.reshape(rows, (-1, inst.horizon))
    masks = nonzero_entries(u[subset], zero_rtol)
    supports = {i: tuple(np.flatnonzero(mask).tolist()) for i, mask in zip(subset, masks)}
    return RelaxationResult(
        logic=ControlLogic(u),
        supports=supports,
        warnings=["l1 minimizer uniqueness is assumed for every plant, not certified"],
    )
