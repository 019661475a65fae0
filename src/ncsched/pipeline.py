"""The solve cascade: preprocessing, constructive plans, relaxation, brute force.

Route order for ``method="auto"``:

1. plants whose all-zero rows the verifier's rule accepts keep them, and
   infeasibility is reported if the rest outnumber what T slots of capacity
   M serve;
2. lane plan over the remaining plants: balanced decreasing packing, backed
   by the complete search when it fails on at most 10 plants;
3. block plan over the remaining plants (the greedy grouping is complete);
4. stacked l1 relaxation over the remaining plants;
5. brute-force enumeration over the full instance, when within its cap.

The first route whose output the simulator verifies wins; the report records
which route succeeded and why the earlier ones failed.
"""

from __future__ import annotations

import math
import time
import warnings as warnings_mod

from .core import TERMINAL_RTOL, ZERO_RTOL, NcsInstance, check_tolerances
from .errors import NcsError, NoSolutionFoundError
from .planner import (
    EXHAUSTIVE_LIMIT,
    _assemble,
    _block_plan_for,
    _exhaustive_lane_for,
    _lane_plan_for,
    _require_reachable,
    split_open_loop,
)
from .report import SolveReport
from .sim import verify_logic
from .sparse import l0_feasible_bruteforce, solve_via_relaxation

_METHOD_ROUTES = {
    "auto": ("lane-plan", "block-plan", "relaxation", "bruteforce"),
    "lane": ("lane-plan",),
    "block": ("block-plan",),
    "relax": ("relaxation",),
    "brute": ("bruteforce",),
}


def solve_instance(
    inst: NcsInstance,
    method: str = "auto",
    zero_rtol: float = ZERO_RTOL,
    terminal_rtol: float = TERMINAL_RTOL,
) -> SolveReport:
    """Run the route cascade and return a verified report.

    Raises ``NoSolutionFoundError`` when every requested route is exhausted;
    its ``reasons`` list one line per failed route, plus the pigeonhole
    verdict. Plants whose zero rows the verifier's rule accepts keep them (one
    diagnostic line names them). A failed block route and a failed lane route
    on at most 10 plants are proofs that no such plan exists; only a lane
    failure on more plants is marked as heuristic. Both tolerances must lie
    strictly between 0 and 1 (``ValueError`` otherwise).
    """
    if method not in _METHOD_ROUTES:
        raise ValueError(f"unknown method {method!r}")
    check_tolerances(zero_rtol, terminal_rtol)
    t_start = time.perf_counter()
    timings: dict[str, float] = {}
    diagnostics: list[str] = []
    captured: list[str] = []

    hits, closed, states = split_open_loop(inst, zero_rtol=zero_rtol, terminal_rtol=terminal_rtol)
    needed = math.ceil(len(closed) / inst.capacity)
    open_loop = [i + 1 for i in hits]
    if open_loop:
        diagnostics.append(
            f"{len(open_loop)} plants steer to zero without input and keep zero input rows "
            f"(1-based: {', '.join(map(str, open_loop))})"
        )
    necessary_ok = inst.horizon >= needed
    verdict = (
        f"necessary condition: horizon {inst.horizon} "
        f"{'meets' if necessary_ok else 'is below'} ceil(remaining/capacity) = {needed}"
    )
    diagnostics.append(verdict)
    if not necessary_ok:
        raise NoSolutionFoundError(
            f"infeasible: {len(closed)} plants need the channel at least once "
            f"(without input none reaches zero open-loop at zero_rtol={zero_rtol:g} "
            f"or ends within terminal_rtol={terminal_rtol:g} of zero), "
            f"but {inst.horizon} slots of capacity {inst.capacity} cannot serve them",
            code="necessary_condition",
            reasons=tuple(diagnostics),
        )

    attempts: list[str] = []

    def run_route(name: str):
        """Returns (logic, plan, extra_warnings) or raises NcsError.

        ``plan`` gives the report's plan dict through ``to_report_dict()``;
        brute force has none.
        """
        if name in ("lane-plan", "block-plan"):
            lane = name == "lane-plan"
            _require_reachable(inst, closed)
            plan = (_lane_plan_for if lane else _block_plan_for)(inst, closed)
            complete = not lane or len(closed) <= EXHAUSTIVE_LIMIT
            if plan is None and lane and complete:
                plan = _exhaustive_lane_for(inst, closed)
            if plan is None:
                found = "lane packing found" if lane else "block partition fits the horizon"
                qualifier = "" if complete else " (heuristic; not a proof of nonexistence)"
                raise NoSolutionFoundError(f"no {found}{qualifier}")
            return _assemble(inst, plan, closed, states), plan, []
        if name == "relaxation":
            res = solve_via_relaxation(inst, plants=closed, zero_rtol=zero_rtol, states=states)
            return res.logic, res, list(res.warnings)
        if name == "bruteforce":
            logic = l0_feasible_bruteforce(
                inst, zero_rtol=zero_rtol, terminal_rtol=terminal_rtol, states=states
            )
            if logic is None:
                raise NoSolutionFoundError(
                    f"no assignment of at most {inst.capacity} plants per slot has "
                    "least-squares rows that pass the verifier at "
                    f"zero_rtol={zero_rtol:g}, terminal_rtol={terminal_rtol:g}"
                )
            return logic, None, []
        raise ValueError(name)

    for route in _METHOD_ROUTES[method]:
        t0 = time.perf_counter()
        try:
            with warnings_mod.catch_warnings(record=True) as caught:
                warnings_mod.simplefilter("always")
                logic, plan, extra = run_route(route)
            captured.extend(str(w.message) for w in caught)
            outcome = verify_logic(
                inst, logic, zero_rtol=zero_rtol, terminal_rtol=terminal_rtol
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
        diagnostics.extend(attempts)
        seen = set()
        warn_list = [w for w in captured + extra if not (w in seen or seen.add(w))]
        report = SolveReport.solved(route, plan, open_loop, outcome, warn_list, diagnostics,
                                    timings)
        timings["total"] = time.perf_counter() - t_start
        return report

    reasons = tuple(diagnostics + attempts)
    raise NoSolutionFoundError(
        "no route produced a verified schedule; "
        + ("; ".join(attempts) if attempts else "no routes were applicable"),
        code="routes_exhausted",
        reasons=reasons,
    )
