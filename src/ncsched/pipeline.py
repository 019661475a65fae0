"""The solve cascade: preprocessing, constructive plans, relaxation, brute force.

Route order for ``method="auto"``:

1. plants whose state coasts to zero open-loop within the horizon are set
   aside with all-zero input rows; if the remainder outnumbers what T slots
   of capacity M can serve, infeasibility is proven and reported;
2. lane plan over the remaining plants;
3. block plan over the remaining plants;
4. stacked l1 relaxation over the remaining plants;
5. brute-force enumeration over the full instance, when within its cap.

The first route whose output the simulator verifies wins; the report records
which route succeeded and why the earlier ones failed.
"""

from __future__ import annotations

import math
import time
import warnings as warnings_mod

import numpy as np

from .core import TERMINAL_RTOL, ZERO_RTOL, ControlLogic, NcsInstance
from .errors import NcsError, NoSolutionFoundError
from .planner import (
    _assemble,
    _block_offsets,
    _block_plan_for,
    _check_block_plan,
    _check_lane_plan,
    _exhaustive_block_for,
    _exhaustive_lane_for,
    _lane_offsets,
    _lane_plan_for,
    _require_reachable,
    split_open_loop,
)
from .report import SolveReport
from .sim import extract_schedule, verify_logic
from .sparse import l0_feasible_bruteforce, solve_via_relaxation

_METHOD_ROUTES = {
    "auto": ("lane-plan", "block-plan", "relaxation", "bruteforce"),
    "lane": ("lane-plan",),
    "block": ("block-plan",),
    "relax": ("relaxation",),
    "brute": ("bruteforce",),
}


def _occupancy_histogram(logic: ControlLogic, zero_rtol: float) -> list[list[int]]:
    counts = np.bincount(logic.occupancy(zero_rtol))
    return [[occ, int(c)] for occ, c in enumerate(counts) if c]


def solve_instance(
    inst: NcsInstance,
    method: str = "auto",
    exhaustive: bool = False,
    zero_rtol: float = ZERO_RTOL,
    terminal_rtol: float = TERMINAL_RTOL,
) -> SolveReport:
    """Run the route cascade and return a verified report.

    Raises ``NoSolutionFoundError`` when every requested route is exhausted;
    its ``reasons`` list one line per failed route, plus the pigeonhole
    verdict. ``exhaustive`` swaps the plan heuristics for the complete
    searches (at most 10 plants).
    """
    if method not in _METHOD_ROUTES:
        raise ValueError(f"unknown method {method!r}")
    t_start = time.perf_counter()
    timings: dict[str, float] = {}
    diagnostics: list[str] = []
    captured: list[str] = []

    hits, closed = split_open_loop(inst, zero_rtol=zero_rtol)
    if hits:
        shown = ", ".join(str(i + 1) for i in sorted(hits))
        diagnostics.append(
            f"{len(hits)} plants reach zero open-loop within the horizon and "
            f"keep zero input rows (1-based: {shown})"
        )
    needed = math.ceil(len(closed) / inst.capacity)
    necessary_ok = inst.horizon >= needed
    verdict = (
        f"necessary condition: horizon {inst.horizon} "
        f"{'meets' if necessary_ok else 'is below'} ceil(remaining/capacity) = {needed}"
    )
    diagnostics.append(verdict)
    if not necessary_ok:
        raise NoSolutionFoundError(
            f"infeasible: {len(closed)} plants need the channel at least once, "
            f"but {inst.horizon} slots of capacity {inst.capacity} cannot serve them",
            code="necessary_condition",
            reasons=tuple(diagnostics),
        )

    open_loop_report = sorted(i + 1 for i in hits)
    attempts: list[str] = []

    def run_route(name: str):
        """Returns (logic, plan_dict, extra_warnings) or raises NcsError."""
        if name == "lane-plan":
            _require_reachable(inst, closed)
            plan = (
                _exhaustive_lane_for(inst, closed)
                if exhaustive
                else _lane_plan_for(inst, closed)
            )
            if plan is None:
                qualifier = "" if exhaustive else " (heuristic; not a proof of nonexistence)"
                raise NoSolutionFoundError(f"no lane packing found{qualifier}")
            _check_lane_plan(inst, plan, set(closed))
            logic = _assemble(inst, _lane_offsets(plan))
            plan_dict = plan.to_report_dict()
            plan_dict["open_loop"] = open_loop_report
            return logic, plan_dict, []
        if name == "block-plan":
            _require_reachable(inst, closed)
            plan = (
                _exhaustive_block_for(inst, closed)
                if exhaustive
                else _block_plan_for(inst, closed)
            )
            if plan is None:
                qualifier = "" if exhaustive else " (heuristic; not a proof of nonexistence)"
                raise NoSolutionFoundError(f"no block partition fits the horizon{qualifier}")
            _check_block_plan(inst, plan, set(closed))
            logic = _assemble(inst, _block_offsets(plan))
            plan_dict = plan.to_report_dict()
            plan_dict["open_loop"] = open_loop_report
            return logic, plan_dict, []
        if name == "relaxation":
            res = solve_via_relaxation(inst, plants=closed, zero_rtol=zero_rtol)
            if res.logic is None:
                raise NoSolutionFoundError(
                    "support-disjoint grouping failed (per-plant l1 solutions "
                    "collide in time); not a proof of nonexistence"
                )
            plan_dict = {
                "kind": "relaxation",
                "groups": [sorted(i + 1 for i in g) for g in res.solution.groups],
                "sparsity": [[i + 1, res.solution.sparsity[i]] for i in sorted(res.solution.sparsity)],
                "certification": [[i + 1, res.certification[i]] for i in sorted(res.certification)],
                "rip": [
                    [i + 1, rep.order, rep.delta, rep.certified]
                    for i, rep in sorted(res.rip_reports.items())
                ],
                "open_loop": open_loop_report,
            }
            return res.logic, plan_dict, list(res.warnings)
        if name == "bruteforce":
            logic = l0_feasible_bruteforce(inst)
            if logic is None:
                raise NoSolutionFoundError(
                    "exhaustive enumeration proves the instance infeasible"
                )
            return logic, None, []
        raise ValueError(name)

    for route in _METHOD_ROUTES[method]:
        t0 = time.perf_counter()
        try:
            with warnings_mod.catch_warnings(record=True) as caught:
                warnings_mod.simplefilter("always")
                logic, plan_dict, extra = run_route(route)
            captured.extend(str(w.message) for w in caught)
            zeroed = logic.thresholded(zero_rtol)
            outcome = verify_logic(
                inst, zeroed, zero_rtol=zero_rtol, terminal_rtol=terminal_rtol
            )
        except NcsError as exc:
            timings[route] = time.perf_counter() - t0
            attempts.append(f"{route}: {exc}")
            continue
        timings[route] = time.perf_counter() - t0
        if not outcome.verified:
            attempts.append(
                f"{route}: produced a logic that failed verification "
                f"({'; '.join(outcome.violations)})"
            )
            continue
        schedule = extract_schedule(zeroed, capacity=inst.capacity, zero_rtol=zero_rtol)
        diagnostics.extend(attempts)
        seen = set()
        warn_list = [w for w in captured + extra if not (w in seen or seen.add(w))]
        report = SolveReport(
            method=route,
            plan=plan_dict,
            schedule=schedule.as_report_lists(),
            control=zeroed.u,
            verified=True,
            residuals=outcome.terminal_residuals.tolist(),
            occupancy_histogram=_occupancy_histogram(zeroed, zero_rtol),
            state_norms=outcome.state_norms(),
            warnings=warn_list,
            diagnostics=diagnostics,
            timings=timings,
        )
        timings["total"] = time.perf_counter() - t_start
        return report

    reasons = tuple(diagnostics + attempts)
    raise NoSolutionFoundError(
        "no route produced a verified schedule; "
        + ("; ".join(attempts) if attempts else "no routes were applicable"),
        code="routes_exhausted",
        reasons=reasons,
    )
