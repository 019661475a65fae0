"""The benchmark's seeded workload families.

Instance k of a run is ``generate_instance(..., seed=base + k)``; the base
seed comes from the command line, so the same base always gives the same
instances. Each family is picked for the layer it stresses (see ``why``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    capacity: int
    horizon: int
    # instances every run completes, however short; their reports are digested
    # so that two runs with the same base seed can be compared byte for byte
    check_instances: int
    # no-solution codes that are a valid answer on this family; any other
    # no-solution counts as a failed attempt
    accepted_no_solution: frozenset[str]
    why: str


# every family draws plant entries uniformly from [-VALUE_RANGE, VALUE_RANGE]
VALUE_RANGE = 2.0

# On the two lane-plan families every instance has a schedule: the lane plan
# puts at most 5 windows of 4 steps and 5 of 3 steps in each of the M lanes
# (35 <= T = 50 steps), so a missing schedule is a failure of the program.
# The small families may be infeasible: brute force decides desk-cascade
# exactly, and relax-tight is beyond its cap, so "no route worked" is the
# program's honest answer there.
NO_SOLUTION_VERDICTS = frozenset({"routes_exhausted", "necessary_condition"})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-demo",
            dims=(2,) * 50 + (3,) * 50,
            capacity=10,
            horizon=50,
            check_instances=5,
            accepted_no_solution=frozenset(),
            why=(
                "the paper's N=100 M=10 T=50 family; the lane plan always wins, "
                "so per-solve fixed costs (rollout, open-loop scan, norms) dominate"
            ),
        ),
        Workload(
            name="scale-4000",
            dims=(2,) * 2000 + (3,) * 2000,
            capacity=400,
            horizon=50,
            check_instances=1,
            accepted_no_solution=frozenset(),
            why=(
                "N=4000 M=400 T=50; per-plant Python loops in sim, core, deadbeat "
                "and the lane scan dominate, where vectorizing or caching shows"
            ),
        ),
        Workload(
            name="relax-tight",
            dims=(2,) * 5 + (3,) * 5,
            capacity=2,
            horizon=12,
            check_instances=5,
            accepted_no_solution=NO_SOLUTION_VERDICTS,
            why=(
                "N=10 M=2 T=12; lane and block plans fail and the l1 relaxation "
                "(HiGHS LPs, RIP checks) does the work; nothing solves today, so peak "
                "state and makespan track only the generator"
            ),
        ),
        Workload(
            name="desk-cascade",
            dims=(1, 2, 3, 4),
            capacity=2,
            horizon=5,
            check_instances=5,
            accepted_no_solution=NO_SOLUTION_VERDICTS,
            why=(
                "dims 1-4 M=2 T=5; every route runs and brute-force enumeration "
                "finds the answer; predicts no change from plant-batched sim/core work"
            ),
        ),
    )
}
