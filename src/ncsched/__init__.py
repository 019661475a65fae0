"""Co-design of channel schedules and deadbeat inputs for bandwidth-limited NCSs.

Given N single-input linear plants sharing a channel that serves at most M of
them per step, the package constructs a per-step access schedule and the
matching control inputs so that every plant's nonzero initial state reaches
zero within a given horizon. Construction routes: sequential block/lane
deadbeat plans, a per-plant minimum-l1 relaxation, and an exact brute-force
search at desk scale; a simulator verifies every produced schedule.
"""

from .core import (
    TERMINAL_RTOL,
    ZERO_RTOL,
    ControlLogic,
    NcsInstance,
    PlantDynamics,
    open_loop_hit_time,
)
from .deadbeat import windowed_inputs
from .errors import (
    HorizonTooShortError,
    IllConditionedWarning,
    NcsError,
    NonFiniteError,
    NoSolutionFoundError,
    NotReachableError,
    RejectionBudgetError,
    SchemaError,
    SolverStallError,
    TooLargeError,
    WindowOverflowError,
)
from .instances import (
    InstanceFile,
    generate_instance,
    read_instance,
    write_instance,
)
from .pipeline import solve_instance
from .planner import (
    BlockPlan,
    LanePlan,
    build_from_plan,
    exhaustive_block_plan,
    exhaustive_lane_plan,
    find_block_plan,
    find_lane_plan,
    split_open_loop,
)
from .report import SolveReport, export_plots, read_report, write_report
from .sim import SimulationResult, rollout, verify_logic
from .sparse import (
    RelaxationResult,
    RipReport,
    l0_feasible_bruteforce,
    min_l1,
    rip_delta,
    solve_via_relaxation,
)

__version__ = "0.1.0"

__all__ = [
    "TERMINAL_RTOL",
    "ZERO_RTOL",
    "BlockPlan",
    "ControlLogic",
    "HorizonTooShortError",
    "IllConditionedWarning",
    "InstanceFile",
    "LanePlan",
    "NcsError",
    "NcsInstance",
    "NoSolutionFoundError",
    "NonFiniteError",
    "NotReachableError",
    "PlantDynamics",
    "RejectionBudgetError",
    "RelaxationResult",
    "RipReport",
    "SchemaError",
    "SimulationResult",
    "SolveReport",
    "SolverStallError",
    "TooLargeError",
    "WindowOverflowError",
    "build_from_plan",
    "exhaustive_block_plan",
    "exhaustive_lane_plan",
    "export_plots",
    "find_block_plan",
    "find_lane_plan",
    "generate_instance",
    "l0_feasible_bruteforce",
    "min_l1",
    "open_loop_hit_time",
    "read_instance",
    "read_report",
    "rip_delta",
    "rollout",
    "solve_instance",
    "solve_via_relaxation",
    "split_open_loop",
    "verify_logic",
    "windowed_inputs",
    "write_instance",
    "write_report",
]
