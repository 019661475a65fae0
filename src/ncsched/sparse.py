"""Sparsity-constrained feasibility: brute-force search, l1 relaxation, RIP checks.

The stacked feasibility problem asks for input rows that zero every plant's
terminal state while at most M rows are nonzero in any column. Three routes
are exposed:

* ``l0_feasible_bruteforce`` enumerates per-slot access sets and decides the
  problem exactly at desk scale;
* ``l1_min_inputs`` solves the per-plant convex surrogate
  ``min |u|_1  s.t.  Phi u = -A^T xi`` as a split-variable LP;
* ``solve_via_relaxation`` stacks the per-plant l1 solutions, groups plants so
  that supports never collide inside a group, and certifies each plant's
  solution as the sparsest possible whenever the lifted matrix passes the
  restricted-isometry test at twice the observed sparsity.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from .core import (
    ZERO_RTOL,
    ControlLogic,
    NcsInstance,
    PlantDynamics,
    is_reachable,
    lifted_matrix,
    mat_pow,
)
from .errors import (
    HorizonTooShortError,
    NotReachableError,
    SolverStallError,
    TooLargeError,
)

RIP_CERT_BOUND = math.sqrt(2.0) - 1.0
RESIDUAL_RTOL = 1e-8
BRUTE_FORCE_CAP = 10**6
RIP_SUPPORT_CAP = 200_000


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
class SparsitySolution:
    """Per-plant steering inputs with their sparsity bookkeeping."""

    per_plant_inputs: dict[int, np.ndarray]
    sparsity: dict[int, int]
    supports: dict[int, tuple[int, ...]]
    groups: list[set[int]] | None = None


@dataclass
class RelaxationResult:
    """Outcome of the stacked l1 route.

    ``logic`` is None when support-disjoint grouping failed; the per-plant
    solutions stay available in ``solution`` for inspection either way.
    """

    logic: ControlLogic | None
    solution: SparsitySolution
    rip_reports: dict[int, RipReport]
    certification: dict[int, str]
    warnings: list[str] = field(default_factory=list)


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("NCS_THREADS", "1")))
    except ValueError:
        return 1


def measure_sparsity(u: np.ndarray, scale: float, zero_rtol: float = ZERO_RTOL) -> int:
    """Number of entries exceeding the zero threshold at the given scale."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    u = np.asarray(u, dtype=float)
    return int((np.abs(u) > zero_rtol * scale).sum())


def support_set(u: np.ndarray, scale: float, zero_rtol: float = ZERO_RTOL) -> tuple[int, ...]:
    """Indices of entries exceeding the zero threshold at the given scale."""
    u = np.asarray(u, dtype=float)
    return tuple(np.nonzero(np.abs(u) > zero_rtol * scale)[0].tolist())


def min_l1(gamma: np.ndarray, target: np.ndarray, residual_rtol: float = RESIDUAL_RTOL) -> np.ndarray:
    """Minimum-l1-norm solution of ``gamma @ u = target``.

    Solved as the standard split LP (u = up - un, up/un >= 0, minimize their
    sum). The equality system is first projected onto the orthonormal basis
    of its row space (an exact, invertible transformation): lifted matrices
    of unstable plants mix column scales across ~30 orders of magnitude, and
    without this preconditioning the LP backend cannot see the small singular
    direction at all. The residual of the returned solution is checked in the
    original coordinates against ``residual_rtol * (1 + |target|)``.
    """
    gamma = np.asarray(gamma, dtype=float)
    target = np.asarray(target, dtype=float).reshape(-1)
    if gamma.ndim != 2 or gamma.shape[0] != target.shape[0]:
        raise ValueError("matrix and target shapes do not match")
    width = gamma.shape[1]
    left, sigma, right = np.linalg.svd(gamma, full_matrices=False)
    cutoff = max(gamma.shape) * np.finfo(float).eps * (sigma[0] if sigma.size else 0.0)
    keep = sigma > cutoff
    projected = left.T @ target
    dropped = projected[~keep]
    if dropped.size and np.abs(dropped).max() > residual_rtol * (
        1.0 + float(np.linalg.norm(target))
    ):
        raise SolverStallError(
            "equality system is inconsistent: target leaves the matrix range"
        )
    a_rows = right[keep]
    rhs = projected[keep] / sigma[keep]
    a_eq = np.hstack([a_rows, -a_rows])
    res = linprog(
        np.ones(2 * width),
        A_eq=a_eq,
        b_eq=rhs,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise SolverStallError(
            f"LP backend status {res.status}: {res.message} "
            f"(shape {gamma.shape}, |target|={np.linalg.norm(target):.3e})"
        )
    u = res.x[:width] - res.x[width:]
    resid = float(np.linalg.norm(gamma @ u - target))
    # polish: a vertex solution has few significant entries; a least-squares
    # re-solve on that support pushes the equality residual to machine level
    scale = float(np.abs(u).max()) if u.size else 0.0
    if resid > 0.0 and scale > 0.0:
        supp = np.nonzero(np.abs(u) > ZERO_RTOL * max(1.0, scale))[0]
        if supp.size:
            w, *_ = np.linalg.lstsq(gamma[:, supp], target, rcond=None)
            polished = np.zeros(width)
            polished[supp] = w
            polished_resid = float(np.linalg.norm(gamma @ polished - target))
            if polished_resid < resid:
                u, resid = polished, polished_resid
    tol = residual_rtol * (1.0 + float(np.linalg.norm(target)))
    if resid > tol:
        raise SolverStallError(
            f"LP residual {resid:.3e} exceeds tolerance {tol:.3e}"
        )
    return u


def l1_min_inputs(p: PlantDynamics, xi: np.ndarray, horizon: int) -> np.ndarray:
    """Minimum-l1 input sequence steering ``xi`` to zero over the horizon."""
    if not is_reachable(p):
        raise NotReachableError()
    if horizon <= p.d:
        raise HorizonTooShortError(
            f"horizon {horizon} must exceed state dimension {p.d}"
        )
    xi = np.asarray(xi, dtype=float).reshape(-1)
    target = -(mat_pow(p.A, horizon) @ xi)
    return min_l1(lifted_matrix(p, horizon), target)


def group_by_capacity(
    sparsities: dict[int, int],
    supports: dict[int, tuple[int, ...]],
    capacity: int,
    horizon: int,
) -> list[set[int]] | None:
    """Pack plants into ``capacity`` groups with non-colliding supports.

    Within a group, supports must be pairwise disjoint (so at most one member
    is active at any time) and sparsities must sum to at most the horizon.
    Greedy: densest plants first, first group that fits. None when the greedy
    packing fails; that is not a proof that no grouping exists.
    """
    for i, supp in supports.items():
        if len(supp) != sparsities[i]:
            raise ValueError(f"support of plant {i + 1} does not match its sparsity")
    groups: list[set[int]] = [set() for _ in range(capacity)]
    used: list[set[int]] = [set() for _ in range(capacity)]
    load = [0] * capacity
    for i in sorted(sparsities, key=lambda i: (-sparsities[i], i)):
        supp = set(supports[i])
        for g in range(capacity):
            if load[g] + sparsities[i] <= horizon and used[g].isdisjoint(supp):
                groups[g].add(i)
                used[g] |= supp
                load[g] += sparsities[i]
                break
        else:
            return None
    return groups


def rip_delta(gamma: np.ndarray, order: int, cap: int = RIP_SUPPORT_CAP) -> RipReport:
    """Exact restricted-isometry constant by exhausting all column supports.

    ``delta`` is the largest deviation of a support-submatrix Gram spectrum
    from 1. Exhaustive rather than sampled, so the certificate is sound; the
    support count is capped to keep it at desk scale.
    """
    gamma = np.asarray(gamma, dtype=float)
    width = gamma.shape[1]
    if not 1 <= order <= width:
        raise ValueError(f"order must be in 1..{width}, got {order}")
    count = math.comb(width, order)
    if count > cap:
        raise TooLargeError(
            f"{count} supports of size {order} exceed the cap of {cap}"
        )
    gram = gamma.T @ gamma
    lo, hi = np.inf, -np.inf
    for supp in combinations(range(width), order):
        eigs = np.linalg.eigvalsh(gram[np.ix_(supp, supp)])
        lo = min(lo, eigs[0])
        hi = max(hi, eigs[-1])
    delta = max(hi - 1.0, 1.0 - lo, 0.0)
    return RipReport(order=order, delta=float(delta), certified=bool(delta < RIP_CERT_BOUND))


def _subset_masks(n: int, capacity: int) -> tuple[list[tuple[int, ...]], list[int]]:
    subsets: list[tuple[int, ...]] = []
    for size in range(capacity + 1):
        subsets.extend(combinations(range(n), size))
    masks = [sum(1 << i for i in s) for s in subsets]
    return subsets, masks


def l0_feasible_bruteforce(
    inst: NcsInstance,
    residual_rtol: float = RESIDUAL_RTOL,
    cap: int = BRUTE_FORCE_CAP,
) -> ControlLogic | None:
    """Exact decision of the stacked feasibility problem by enumeration.

    Every assignment of per-slot access sets (at most M plants each) is
    tried; for each plant, least squares on the allowed columns of its lifted
    matrix decides whether those slots suffice. The first feasible assignment
    (in deterministic order: smaller sets first, then lexicographic) is
    returned; None after exhausting all assignments proves infeasibility.

    Desk scale only: refuses when (number of admissible access sets)^T
    exceeds ``cap``.
    """
    n_sets = sum(math.comb(inst.n, size) for size in range(inst.capacity + 1))
    if n_sets**inst.horizon > cap:
        raise TooLargeError(f"{n_sets}^{inst.horizon} assignments exceed the cap of {cap}")
    subsets, masks = _subset_masks(inst.n, inst.capacity)
    phis = [lifted_matrix(p, inst.horizon) for p in inst.plants]
    targets = [
        -(mat_pow(p.A, inst.horizon) @ x) for p, x in zip(inst.plants, inst.xi)
    ]
    tols = [residual_rtol * (1.0 + float(np.linalg.norm(t))) for t in targets]
    memo: list[dict[int, np.ndarray | None]] = [{} for _ in range(inst.n)]

    def feasible(i: int, mask: int) -> np.ndarray | None:
        try:
            return memo[i][mask]
        except KeyError:
            pass
        cols = [t for t in range(inst.horizon) if mask >> t & 1]
        if not cols:
            w = np.zeros(0) if np.linalg.norm(targets[i]) <= tols[i] else None
        else:
            sol, *_ = np.linalg.lstsq(phis[i][:, cols], targets[i], rcond=None)
            resid = np.linalg.norm(phis[i][:, cols] @ sol - targets[i])
            w = sol if resid <= tols[i] else None
        memo[i][mask] = w
        return w

    plant_masks = [0] * inst.n

    def search(t: int) -> ControlLogic | None:
        if t == inst.horizon:
            ws = []
            for i in range(inst.n):
                w = feasible(i, plant_masks[i])
                if w is None:
                    return None
                ws.append(w)
            u = np.zeros((inst.n, inst.horizon))
            for i, w in enumerate(ws):
                cols = [t for t in range(inst.horizon) if plant_masks[i] >> t & 1]
                u[i, cols] = w
            return ControlLogic(u)
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
    rip_cap: int = RIP_SUPPORT_CAP,
) -> RelaxationResult:
    """Stacked l1 route: per-plant LPs, support-disjoint grouping, RIP certificates.

    ``plants`` restricts the route to a subset (the solve cascade passes the
    plants that cannot coast to zero open-loop; the rest keep zero rows). All
    selected plants must be reachable with horizon greater than their
    dimension. Certification per plant: "certified" when the lifted matrix
    passes the restricted-isometry test at twice the observed sparsity,
    "uncertified" when it fails, "cap-exceeded" when the exhaustive check is
    too large, "trivial" for the all-zero solution. Uniqueness of the l1
    minimizer is assumed, not checked; the result carries that warning.

    The returned logic is not simulated here: the solve cascade verifies
    every route's output, and ``verify_logic`` judges it directly.
    """
    subset = sorted(range(inst.n) if plants is None else plants)
    bad = [i for i in subset if not is_reachable(inst.plants[i])]
    if bad:
        raise NotReachableError(bad)
    short = [i for i in subset if inst.horizon <= inst.plants[i].d]
    if short:
        shown = ", ".join(str(i + 1) for i in short)
        raise HorizonTooShortError(
            f"horizon {inst.horizon} does not exceed the dimension of plants "
            f"(1-based): {shown}"
        )

    def solve_one(i: int) -> np.ndarray:
        return l1_min_inputs(inst.plants[i], inst.xi[i], inst.horizon)

    workers = _worker_count()
    if workers > 1 and len(subset) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(solve_one, subset))
    else:
        rows = [solve_one(i) for i in subset]

    inputs: dict[int, np.ndarray] = {}
    sparsity: dict[int, int] = {}
    supports: dict[int, tuple[int, ...]] = {}
    for i, u in zip(subset, rows):
        scale = max(1.0, float(np.abs(u).max())) if u.size else 1.0
        inputs[i] = u
        sparsity[i] = measure_sparsity(u, scale, zero_rtol)
        supports[i] = support_set(u, scale, zero_rtol)

    warnings_out = [
        "l1 minimizer uniqueness is assumed for every plant, not certified"
    ]
    rip_reports: dict[int, RipReport] = {}
    certification: dict[int, str] = {}
    for i in subset:
        s = sparsity[i]
        if s == 0:
            certification[i] = "trivial"
            continue
        order = 2 * s
        phi = lifted_matrix(inst.plants[i], inst.horizon)
        if order > inst.horizon or math.comb(inst.horizon, order) > rip_cap:
            certification[i] = "cap-exceeded"
            warnings_out.append(
                f"plant {i + 1}: isometry check at order {order} exceeds the "
                "enumeration cap; l1 optimality uncertified"
            )
            continue
        report = rip_delta(phi, order, cap=rip_cap)
        rip_reports[i] = report
        certification[i] = "certified" if report.certified else "uncertified"

    solution = SparsitySolution(
        per_plant_inputs=inputs, sparsity=sparsity, supports=supports
    )
    groups = group_by_capacity(sparsity, supports, inst.capacity, inst.horizon)
    if groups is None:
        warnings_out.append(
            "support-disjoint grouping failed; the stacked l1 logic may exceed "
            "capacity and is not returned"
        )
        return RelaxationResult(
            logic=None,
            solution=solution,
            rip_reports=rip_reports,
            certification=certification,
            warnings=warnings_out,
        )
    solution.groups = groups

    u = np.zeros((inst.n, inst.horizon))
    for i in subset:
        u[i] = inputs[i]
    return RelaxationResult(
        logic=ControlLogic(u).thresholded(zero_rtol),
        solution=solution,
        rip_reports=rip_reports,
        certification=certification,
        warnings=warnings_out,
    )
