import re
import warnings

import numpy as np
import pytest

import ncsched.core
import ncsched.deadbeat
import ncsched.pipeline
import ncsched.planner
import ncsched.report
import ncsched.sim
from ncsched import (
    ControlLogic,
    HorizonTooShortError,
    LanePlan,
    NcsInstance,
    NoSolutionFoundError,
    NotReachableError,
    PlantDynamics,
    SolveReport,
    TooLargeError,
    find_lane_plan,
    generate_instance,
    l0_feasible_bruteforce,
    rollout,
    solve_instance,
    solve_via_relaxation,
    split_open_loop,
    verify_logic,
)
from ncsched.instances import dump_json
from ncsched.report import BUILT_ON_READ, report_to_dict

from conftest import (
    companion_plant,
    huge_initial_norm_instance,
    one_burst_instance,
    scalar_instance,
)


def mixed_plant(rng, kind):
    """A random plant of dimension 1-4: as drawn, scaled stable, b = 0, or unreachable."""
    d = int(rng.integers(1, 5))
    A = rng.uniform(-2, 2, (d, d))
    b = rng.uniform(-2, 2, d)
    if kind == "stable":
        A *= 0.8 / max(np.abs(np.linalg.eigvals(A)).max(), 0.1)
    elif kind == "no input":
        b[:] = 0.0
    elif kind == "unreachable" and d > 1:
        # A diagonal and b[0] = 0: no input ever reaches the first coordinate
        A, b[0] = np.diag(np.diag(A)), 0.0
    return PlantDynamics(A, b)


def mixed_small_instances(seed, count):
    """Seeded instances of 2-5 plants with M < N and T in 1-8, mixing plant kinds."""
    rng = np.random.default_rng(seed)
    kinds = ("drawn", "drawn", "stable", "no input", "unreachable")
    for _ in range(count):
        n = int(rng.integers(2, 6))
        plants = tuple(mixed_plant(rng, kinds[int(rng.integers(len(kinds)))]) for _ in range(n))
        xi = tuple(rng.uniform(-1, 1, p.d) for p in plants)
        capacity, horizon = int(rng.integers(1, n)), int(rng.integers(1, 9))
        yield NcsInstance(plants, xi, capacity=capacity, horizon=horizon)


class TestSolveCascade:
    def test_only_no_solution_escapes_the_cascade(self):
        # every route's failure, whatever raised it inside, becomes a reason
        methods = ("auto", "lane", "block", "relax", "brute")
        verified, failed = set(), 0
        for inst in mixed_small_instances(59, 100):
            for method in methods:
                try:
                    report = solve_instance(inst, method=method)
                except NoSolutionFoundError:
                    failed += 1
                    continue
                assert report.verified
                assert verify_logic(inst, ControlLogic(report.control)).verified
                verified.add(method)
        assert verified == set(methods) and failed > 100

    def test_lane_route_wins_when_available(self):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=4)
        report = solve_instance(inst)
        assert report.verified
        assert report.method == "lane-plan"
        assert report.plan["kind"] == "lane"
        assert "total" in report.timings

    def test_bruteforce_is_last_resort(self):
        # three scalar closed-loop plants, one lane, horizon 3: every plan and
        # the relaxation fail, yet one-slot-per-plant schedules exist
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=3)
        report = solve_instance(inst)
        assert report.verified
        assert report.method == "bruteforce"
        assert any("lane-plan" in line for line in report.diagnostics)
        assert any("block-plan" in line for line in report.diagnostics)
        assert any("relaxation" in line for line in report.diagnostics)

    def test_single_method_runs_only_that_route(self):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=3)
        with pytest.raises(NoSolutionFoundError):
            solve_instance(inst, method="lane")
        report = solve_instance(inst, method="brute")
        assert report.method == "bruteforce"

    def test_necessary_condition_short_circuit(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=1)
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(inst)
        assert err.value.code == "necessary_condition"

    def test_zero_rows_the_verifier_accepts_need_no_slot(self):
        # 0.0005^2 = 2.5e-7 never clamps (it is above 1e-9 of the floor of 1)
        # but ends within the default terminal_rtol, so no plant needs the channel
        inst = NcsInstance([PlantDynamics([[0.0005]], [1.0])] * 3, [[1.0]] * 3, 1, 2)
        for method in ("auto", "brute"):
            report = solve_instance(inst, method=method)
            assert report.verified
            assert report.schedule == [[], []]
            assert report.diagnostics[0] == (
                "3 plants steer to zero without input and keep zero input rows (1-based: 1, 2, 3)"
            )
            assert sum("zero input rows" in line for line in report.diagnostics) == 1
        assert not l0_feasible_bruteforce(inst).u.any()
        # at terminal_rtol=1e-7 each plant needs one of the two slots
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(inst, terminal_rtol=1e-7)
        assert err.value.code == "necessary_condition"
        assert l0_feasible_bruteforce(inst, terminal_rtol=1e-7) is None

    def test_bruteforce_masks_are_judged_by_the_verifier(self):
        # a residual test of brute force's own accepts a mask for plant 2
        # whose least-squares row the verifier rejects
        inst = generate_instance(3, 1, 8, [2, 3, 3], value_range=2.0, seed=12363).instance
        for method in ("brute", "auto"):
            report = solve_instance(inst, method=method)
            assert report.method == "bruteforce"
            assert report.verified
            assert report.schedule == [[], [2], [1], [2], [1], [3], [3], [3]]

    def test_necessary_condition_met_with_equality(self):
        # four plants fill T=2 slots of capacity 2 exactly; brute force finds it
        inst = scalar_instance([2.0] * 4, capacity=2, horizon=2)
        report = solve_instance(inst)
        assert report.verified
        assert report.method == "bruteforce"
        assert (
            "necessary condition: horizon 2 meets ceil(remaining/capacity) = 2"
            in report.diagnostics
        )

    def test_bruteforce_without_an_assignment_gives_its_reason(self):
        # the 2-d plant's target needs both columns of its lifted matrix and
        # the scalar plant one slot: three inputs for two slots of capacity 1
        plants = (PlantDynamics([[2.0, 1.0], [0.0, 3.0]], [0.0, 1.0]), PlantDynamics([[2.0]], [1.0]))
        inst = NcsInstance(plants, [[1.0, 1.0], [1.0]], capacity=1, horizon=2)
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(inst, method="brute")
        assert err.value.code == "routes_exhausted"
        assert err.value.reasons[-1] == (
            "bruteforce: no assignment of at most 1 plants per slot has least-squares "
            "rows that pass the verifier at zero_rtol=1e-09, terminal_rtol=1e-06"
        )

    def test_open_loop_plants_get_zero_rows(self):
        plants = (
            PlantDynamics([[0.0]], [1.0]),  # open-loop zeroable
            companion_plant(2),
            companion_plant(2, gain=1.5),
        )
        xi = (np.array([1.0]), np.array([0.5, -0.5]), np.array([0.3, 0.8]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=8)
        report = solve_instance(inst)
        assert report.verified
        assert report.plan["open_loop"] == [1]
        np.testing.assert_array_equal(np.asarray(report.control)[0], np.zeros(8))

    def test_all_plants_open_loop(self):
        plants = (PlantDynamics([[0.0]], [1.0]), PlantDynamics([[0, 1], [0, 0]], [0, 1]))
        xi = (np.array([2.0]), np.array([1.0, 1.0]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=3)
        report = solve_instance(inst)
        assert report.verified
        assert report.schedule == [[], [], []]
        np.testing.assert_array_equal(np.asarray(report.control), np.zeros((2, 3)))

    def test_small_closed_loop_set_scheduled_directly(self):
        # one plant needs the channel; it gets a singleton lane at offset 0
        plants = (PlantDynamics([[0.0]], [1.0]), companion_plant(2))
        xi = (np.array([1.0]), np.array([0.5, 0.5]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=4)
        report = solve_instance(inst)
        assert report.verified
        assert report.method == "lane-plan"
        assert report.plan["lanes"] == [[2]]

    def test_plan_route_failures_are_proofs(self, mixed_dims_instance):
        report = solve_instance(mixed_dims_instance, method="lane")
        assert report.verified
        # the greedy block search is complete at every size
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(mixed_dims_instance, method="block")
        assert "not a proof" not in str(err.value)
        # the lane route backs its packing with the complete search on <= 10 plants
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(scalar_instance([2.0, 3.0], capacity=1, horizon=3), method="lane")
        assert "lane-plan: no lane packing found" in err.value.reasons
        # beyond that, a lane failure stays a heuristic's verdict
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(scalar_instance([2.0] * 12, capacity=2, horizon=11), method="lane")
        assert (
            "lane-plan: no lane packing found (heuristic; not a proof of nonexistence)"
            in err.value.reasons
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complete_lane_search_finds_what_packing_misses(self, seed):
        # widths 3, 3, 2, 2, 2 fill two lanes of 6 only as {3, 3}, {2, 2, 2}
        inst = generate_instance(5, 2, 6, [2, 2, 1, 1, 1], value_range=2.0, seed=seed).instance
        report = solve_instance(inst)
        assert report.method == "lane-plan"
        assert report.plan["lanes"] == [[1, 2], [3, 4, 5]]
        assert verify_logic(inst, ControlLogic(np.asarray(report.control))).verified

    def test_report_replays_from_control_matrix(self):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=4)
        report = solve_instance(inst)
        logic = ControlLogic(np.asarray(report.control))
        assert verify_logic(inst, logic).verified

    def test_schedule_accounts_every_slot(self, mixed_dims_instance):
        # one slot per step, each within capacity, holding the plants whose input is nonzero
        report = solve_instance(mixed_dims_instance)
        assert len(report.schedule) == 7
        assert max(map(len, report.schedule)) <= 2
        assert report.schedule == [
            (np.flatnonzero(report.control[:, t]) + 1).tolist() for t in range(7)
        ]

    @pytest.mark.parametrize("method", ["auto", "block"])
    def test_verified_route_computes_its_mask_once(self, demo_instance, method, monkeypatch):
        # thresholding and verification share one application of the zero rule
        calls = []
        real = ncsched.core.nonzero_entries
        for module in (ncsched.core, ncsched.sim):
            monkeypatch.setattr(
                module, "nonzero_entries", lambda *a: calls.append(1) or real(*a)
            )
        report = solve_instance(demo_instance, method=method)
        assert len(calls) == 1
        assert isinstance(report.state_norms, np.ndarray)
        assert report.state_norms.shape == (demo_instance.n, demo_instance.horizon + 1)

    def test_rejects_unknown_method(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        with pytest.raises(ValueError):
            solve_instance(inst, method="magic")
        # a list is not hashable, so a bare lookup would raise TypeError
        with pytest.raises(ValueError, match=re.escape("unknown method ['auto']")):
            solve_instance(inst, method=["auto"])

    def test_report_lists_only_the_winning_routes_warnings(self, monkeypatch):
        # both plan routes warn and return rows the verifier rejects; brute
        # force wins and raises no warning of its own
        def warned_zero_rows(inst, plan, cover, states):
            warnings.warn("stub synthesis")
            return ControlLogic(np.zeros((inst.n, inst.horizon)))

        monkeypatch.setattr(ncsched.pipeline, "_assemble", warned_zero_rows)
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=6)
        report = solve_instance(inst)
        assert report.method == "bruteforce"
        assert [line.split(": ")[0] for line in report.diagnostics[1:3]] == [
            "lane-plan", "block-plan"
        ]
        assert report.warnings == []
        # a winning relaxation reports its own uniqueness note
        relaxed = solve_instance(one_burst_instance(), method="relax")
        assert relaxed.warnings == [
            "l1 minimizer uniqueness is assumed for every plant, not certified"
        ]

    def test_overflow_in_verification_fails_only_that_route(self):
        # plant 1's open-loop states stay finite through its window [0, 3) and
        # its burst (-4e307 at slot 1, 0 at slot 2) is finite, but b times it
        # passes the largest float in the state at step 2
        plants = (PlantDynamics(np.diag([0.0, -2.0]), [10.0, 1.0]),
                  PlantDynamics([[2.0]], [1.0]))
        inst = NcsInstance(plants, ([0.0, 1e307], [1.0]), capacity=1, horizon=5)
        for method, route in (("block", "block-plan"), ("auto", "lane-plan")):
            with pytest.raises(NoSolutionFoundError) as err:
                solve_instance(inst, method=method)
            assert err.value.code == "routes_exhausted"
            assert f"{route}: state overflowed at step 2" in err.value.reasons

    def test_open_loop_overflow_fails_each_route_at_synthesis(self):
        # plant 1 is nilpotent, so its exact state at T is zero, but the state
        # the verifier would step passes the largest float at step 1 (1e10 *
        # 1e300); the scan steps that same state, so no route builds its rows
        plants = (PlantDynamics([[0.0, 1e10], [0.0, 0.0]], [0.0, 1.0]),
                  PlantDynamics([[2.0]], [1.0]))
        inst = NcsInstance(plants, ([0.0, 1e300], [1.0]), capacity=1, horizon=5)
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(inst)
        assert err.value.reasons[1:] == (
            "lane-plan: open-loop state overflowed before the burst of window [0, 3)",
            "block-plan: open-loop state overflowed before the burst of window [0, 3)",
            "relaxation: open-loop state overflowed by step 5",
            "bruteforce: open-loop state overflowed by step 5",
        )

    def test_target_past_the_lp_infinite_bound_fails_relaxation_with_its_reason(self):
        # the 2-d plant's open-loop state at T is about 2.3e306: finite, but far
        # past the magnitude the LP backend reads as infinite
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(huge_initial_norm_instance())
        assert err.value.reasons[3] == (
            "relaxation: system 1 of 2: its projected target reaches 6.9e+306, "
            "at or past the LP backend's infinite bound 1e+20"
        )

    def test_zero_rtol_reaches_the_open_loop_scan(self):
        # plant 1 drops below 1e-5 of its start at step 3, below 1e-9 only at
        # 5; at terminal_rtol=1e-9 its terminal 1e-8 does not count as zero
        inst = scalar_instance([0.01, 2.0, 3.0], capacity=1, horizon=4)
        with pytest.raises(NoSolutionFoundError):
            solve_instance(inst, method="lane", terminal_rtol=1e-9)
        report = solve_instance(inst, method="lane", zero_rtol=1e-5, terminal_rtol=1e-9)
        assert report.plan["open_loop"] == [1]

    def test_plant_within_terminal_rtol_without_input_needs_no_slot(self):
        # 0.01^4 = 1e-8 never clamps at 1e-9 of the floor of 1, but ends within
        # terminal_rtol: the verifier accepts plant 1's zero row, so the scan
        # sets it aside and two windows of 2 fill the 4 slots
        inst = scalar_instance([0.01, 1.5, 1.5], capacity=1, horizon=4)
        report = solve_instance(inst)
        assert report.method == "lane-plan"
        assert report.schedule == [[], [2], [], [3]]
        assert report.plan["open_loop"] == [1]
        assert report.diagnostics[0] == (
            "1 plants steer to zero without input and keep zero input rows (1-based: 1)"
        )

    def test_brute_force_solves_where_a_matrix_power_overflows(self):
        # 1e80^4 passes the largest float, but plant 1's open-loop state at T,
        # 1e-20 * 1e320, does not: the terminal targets are the scan's states
        inst = scalar_instance([1e80, 2.0], capacity=1, horizon=4, states=[1e-20, 1.0])
        report = solve_instance(inst, method="brute")
        assert report.verified
        assert report.schedule == [[], [], [1], [2]]

    def test_state_above_the_squared_norm_range_verifies_by_lane(self):
        # 1e160 squared overflows, yet every state stays below 6.4e161
        inst = scalar_instance([2.0, 1.5, 1.5], capacity=1, horizon=6, states=[1e160, 1.0, 1.0])
        report = solve_instance(inst, method="lane")
        assert report.verified
        assert report.schedule == [[], [1], [], [2], [], [3]]

    def test_overflowing_burst_fails_only_that_route(self):
        # the last 3-d plant's state is finite when its burst begins but leaves
        # the float range by its window's end, so the burst that would cancel
        # it overflows; the block plan's states peak near 2e282 and verify
        inst = generate_instance(
            310, 2, 620, [2] * 155 + [3] * 155, value_range=2.0, seed=1
        ).instance
        report = solve_instance(inst)
        assert report.method == "block-plan"
        assert report.diagnostics[1:] == ["lane-plan: deadbeat burst overflowed"]

    def test_lane_bursts_leave_only_rounding_at_their_window_ends(self):
        # replayed without the clamp, each plant's state at its window's end is
        # what the burst leaves of the state the verifier stepped to it
        worst = 0.0
        for seed in range(12345, 12365):
            inst = generate_instance(100, 10, 50, [2] * 50 + [3] * 50, seed=seed).instance
            report = solve_instance(inst, method="lane")
            plan = LanePlan(
                lanes=tuple(tuple(i - 1 for i in lane) for lane in report.plan["lanes"]),
                widths={i - 1: w for i, w in report.plan["widths"]},
            )
            plant, offset, width = plan.windows
            end = np.zeros(inst.n, dtype=int)
            end[plant] = offset + width
            for g in inst.groups:
                _, norms, _ = ncsched.sim.rollout_stack(
                    g.A, g.b, g.xi, report.control[g.idx], zero_rtol=1e-300
                )
                for k, t in enumerate(end[g.idx]):
                    worst = max(worst, norms[k, t] / max(1.0, norms[k, :t].max()))
        assert worst <= 1e-13

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"terminal_rtol": float("nan")},
            {"terminal_rtol": 1.0},
            {"terminal_rtol": 0.0},
            {"zero_rtol": 1.0},
            {"zero_rtol": -1e-9},
            {"zero_rtol": float("nan")},
        ],
    )
    def test_rejects_vacuous_tolerances(self, tolerances):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=3)
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            solve_instance(inst, **tolerances)


def tolerance_entry_points() -> dict:
    """Each entry point that takes tolerances: a call taking them as keywords,
    and their names."""
    inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=6)
    p, xi = inst.plants[0], inst.xi[0]
    both, zero = ("zero_rtol", "terminal_rtol"), ControlLogic(np.zeros((3, 6)))
    return {
        "solve_instance": (lambda **tol: solve_instance(inst, **tol), both),
        "verify_logic": (lambda **tol: verify_logic(inst, zero, **tol), both),
        "l0_feasible_bruteforce": (lambda **tol: l0_feasible_bruteforce(inst, **tol), both),
        "split_open_loop": (lambda **tol: split_open_loop(inst, **tol), both),
        "open_loop_hit_time": (
            lambda **tol: ncsched.core.open_loop_hit_time(p, xi, 6, **tol), both
        ),
        "rollout": (lambda **tol: rollout(p, xi, np.zeros(6), **tol), ("zero_rtol",)),
        "solve_via_relaxation": (
            lambda **tol: solve_via_relaxation(inst, **tol), ("zero_rtol",)
        ),
    }


@pytest.mark.parametrize(
    "entry, name, value",
    [
        pytest.param(entry, name, value, id=f"{entry}-{name}-{value!r}")
        for entry, (_, names) in tolerance_entry_points().items()
        for name in names
        for value in ("1e-9", None, 1e-9j, 2.0, float("nan"))
    ],
)
def test_every_entry_point_checks_its_tolerances(entry, name, value):
    # a string, None or a complex number leaked TypeError from the range test;
    # at 2.0 the zero tests turn vacuous and every plant "steers to zero"
    call, _ = tolerance_entry_points()[entry]
    message = f"^{name} must lie strictly between 0 and 1, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(**{name: value})


class TestReportListsOnFirstRead:
    """A solve's report keeps the plan object and the residual array; its
    lists are built once, on first read, and its schedule is its control's."""

    def test_lists_built_once_as_the_eager_report_built_them(self, monkeypatch):
        inst = generate_instance(100, 10, 50, [2] * 50 + [3] * 50, seed=12346).instance
        built = []
        slot_members = ncsched.report.slot_members
        monkeypatch.setattr(
            ncsched.report, "slot_members", lambda *a, **k: built.append(1) or slot_members(*a, **k)
        )
        report = solve_instance(inst)
        assert BUILT_ON_READ == ("plan", "residuals")
        assert not set(BUILT_ON_READ) & set(vars(report))
        data = report_to_dict(report)
        assert set(BUILT_ON_READ) <= set(vars(report)) and built == [1]
        for name in BUILT_ON_READ:
            assert getattr(report, name) is getattr(report, name)
        # the schedule is derived from the control at each read
        assert report.schedule == data["schedule"] and built == [1, 1]
        assert report_to_dict(report) == data

        # what the pipeline built before the lists moved to first read
        outcome = verify_logic(inst, ControlLogic(report.control))
        eager = SolveReport(
            method="lane-plan",
            plan={**find_lane_plan(inst).to_report_dict(), "open_loop": []},
            control=outcome.control.u,
            verified=True,
            residuals=outcome.terminal_residuals.tolist(),
            warnings=report.warnings,
            diagnostics=report.diagnostics,
        )
        assert dump_json(data) == dump_json(report_to_dict(eager))
        assert eager.schedule == report.schedule == [
            (np.flatnonzero(column) + 1).tolist() for column in outcome.control.u.T
        ]

    def test_schedule_follows_a_replaced_control(self):
        rep = SolveReport(method=None, plan=None, control=np.array([[1.0, 0.0], [0.0, 2.0]]),
                          verified=False, residuals=[0.0, 0.0])
        assert rep.schedule == [[1], [2]]
        rep.control = np.array([[0.0, 1.0], [3.0, 2.0]])
        assert rep.schedule == [[2], [1, 2]]
        rep.control = None
        assert rep.schedule == []

    def test_fields_given_to_the_constructor_are_kept(self):
        rep = SolveReport(method=None, plan=None, control=None, verified=False, residuals=[])
        assert rep.plan is None and rep.schedule == [] and rep.residuals == []
        with pytest.raises(AttributeError):
            rep.no_such_field


def count_scans(monkeypatch):
    """From now on, count the open-loop scans of every module that runs one."""
    calls = []
    scan = ncsched.core.open_loop_scan

    def counting(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    for module in (ncsched.core, ncsched.planner, ncsched.deadbeat):
        monkeypatch.setattr(module, "open_loop_scan", counting)
    return calls


class TestOneScanPerSolve:
    # (dims, capacity, horizon) of the desk-cascade and relax-tight families
    FAMILIES = [([1, 2, 3, 4], 2, 5), ([2] * 5 + [3] * 5, 2, 12)]

    @pytest.mark.parametrize("dims, capacity, horizon", FAMILIES)
    def test_auto_solve_scans_each_group_once(self, dims, capacity, horizon, monkeypatch):
        calls = count_scans(monkeypatch)
        for seed in (12345, 12346):
            inst = generate_instance(len(dims), capacity, horizon, dims, seed=seed).instance
            calls.clear()
            try:
                routes = solve_instance(inst).diagnostics
            except NoSolutionFoundError as exc:
                routes = exc.reasons
            # every solve reached the relaxation; desk-cascade's went on to brute force
            assert any(r.startswith("relaxation: ") for r in routes)
            assert len(calls) == len(inst.groups)

    @pytest.mark.parametrize("dims, capacity, horizon", FAMILIES)
    def test_direct_route_call_scans_each_group_once(self, dims, capacity, horizon, monkeypatch):
        calls = count_scans(monkeypatch)
        inst = generate_instance(len(dims), capacity, horizon, dims, seed=12345).instance
        calls.clear()
        solve_via_relaxation(inst)
        assert len(calls) == len(inst.groups)
        calls.clear()
        if len(dims) == 4:
            l0_feasible_bruteforce(inst)
            assert len(calls) == len(inst.groups)
        else:  # relax-tight is past brute force's cap, which refuses before any scan
            with pytest.raises(TooLargeError):
                l0_feasible_bruteforce(inst)
            assert calls == []

    def test_relaxation_refuses_before_it_scans(self, monkeypatch):
        calls = count_scans(monkeypatch)
        short = scalar_instance([2.0, 3.0], capacity=1, horizon=1)
        unreachable = scalar_instance([2.0, 3.0], capacity=1, horizon=3, inputs=[0.0, 1.0])
        for inst, error in ((short, HorizonTooShortError), (unreachable, NotReachableError)):
            with pytest.raises(error):
                solve_via_relaxation(inst)
        assert calls == []


# the names perfbench times the cascade by, rebound in ncsched.pipeline
TRACED_NAMES = (
    "split_open_loop",
    "_require_reachable",
    "_lane_plan_for",
    "_block_plan_for",
    "_assemble",
    "verify_logic",
    "solve_via_relaxation",
    "l0_feasible_bruteforce",
)


def test_cascade_calls_every_traced_name_through_the_pipeline(mixed_dims_instance, monkeypatch):
    calls = dict.fromkeys(TRACED_NAMES, 0)
    active = []  # the traced calls now open, outermost first
    walks = []  # for each run of the complete lane walk, the traced calls around it

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()

        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(ncsched.pipeline, name, counting(name, getattr(ncsched.pipeline, name)))
    walk = ncsched.planner._first_fit_lanes
    monkeypatch.setattr(
        ncsched.planner, "_first_fit_lanes", lambda *a: walks.append(tuple(active)) or walk(*a)
    )
    # desk-cascade: every plan route fails, then the relaxation, and brute force wins
    desk = generate_instance(4, 2, 5, [1, 2, 3, 4], seed=12345).instance
    assert solve_instance(desk).method == "bruteforce"
    # the packing misses, and the walk behind it runs inside the traced lane search
    assert walks == [("_lane_plan_for",)]
    # lanes of loads 7 and 7 fit T = 7
    assert solve_instance(mixed_dims_instance).method == "lane-plan"
    assert [name for name, count in calls.items() if not count] == []
    assert walks == [("_lane_plan_for",)]
