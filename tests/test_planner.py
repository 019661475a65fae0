import json
import warnings

import numpy as np
import pytest

from ncsched import (
    IllConditionedWarning,
    LanePlan,
    NcsInstance,
    NotReachableError,
    PlantDynamics,
    block_plan_from_lanes,
    build_from_block_plan,
    build_from_lane_plan,
    check_necessary,
    exhaustive_block_plan,
    exhaustive_lane_plan,
    find_block_plan,
    find_lane_plan,
    split_open_loop,
    verify_logic,
)
from ncsched.deadbeat import COND_WARN_LIMIT
from ncsched.planner import _block_offsets, _lane_offsets

from conftest import companion_plant, random_reachable_plant, scalar_instance


def assert_block_plan_valid(inst, plan):
    seen = set()
    for blk, width in zip(plan.blocks, plan.block_lengths):
        assert len(blk) <= inst.capacity
        assert not (seen & set(blk))
        seen |= set(blk)
        for i in blk:
            assert width > inst.plants[i].d
    assert seen == set(range(inst.n))
    assert sum(plan.block_lengths) <= inst.horizon
    acc = 0
    for off, width in zip(plan.offsets, plan.block_lengths):
        assert off == acc
        acc += width


def assert_lane_plan_valid(inst, plan):
    assert len(plan.lanes) <= inst.capacity
    seen = set()
    for lane in plan.lanes:
        assert not (seen & set(lane))
        seen |= set(lane)
        assert sum(plan.widths[i] for i in lane) <= inst.horizon
    assert seen == set(range(inst.n))
    for i in range(inst.n):
        assert plan.widths[i] > inst.plants[i].d


def random_instance(rng, n, capacity, horizon, max_d=3):
    plants = tuple(
        random_reachable_plant(rng, int(rng.integers(1, max_d + 1))) for _ in range(n)
    )
    xi = tuple(rng.uniform(-1, 1, p.d) for p in plants)
    return NcsInstance(plants, xi, capacity=capacity, horizon=horizon)


class TestCheckNecessary:
    def test_demo_dimensions(self):
        inst = scalar_instance([2.0] * 100, capacity=10, horizon=50)
        assert check_necessary(inst)

    def test_too_short(self):
        assert not check_necessary(scalar_instance([2.0, 3.0], capacity=1, horizon=1))

    def test_boundary_equality(self):
        assert check_necessary(scalar_instance([2.0] * 4, capacity=2, horizon=2))


class TestFindBlockPlan:
    def test_demo_family(self, demo_instance):
        plan = find_block_plan(demo_instance)
        assert plan is not None
        assert len(plan.blocks) == 10
        assert all(len(blk) == 10 for blk in plan.blocks)
        assert sum(plan.block_lengths) == 35 <= 50
        assert_block_plan_valid(demo_instance, plan)

    def test_mixed_dimensions_infeasible(self, mixed_dims_instance):
        assert find_block_plan(mixed_dims_instance) is None
        assert exhaustive_block_plan(mixed_dims_instance) is None

    def test_two_scalar_plants(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plan = find_block_plan(inst)
        assert plan is not None
        assert plan.blocks == ((0,), (1,))
        assert plan.block_lengths == (2, 2)
        assert_block_plan_valid(inst, plan)
        # complete search agrees that a plan exists
        assert exhaustive_block_plan(inst) is not None

    def test_unreachable_plant_reported(self):
        bad = PlantDynamics([[1, 0], [0, 1]], [1, 0])
        good = PlantDynamics([[2.0]], [1.0])
        inst = NcsInstance(
            (bad, good), (np.array([1.0, 1.0]), np.array([1.0])), capacity=1, horizon=9
        )
        with pytest.raises(NotReachableError) as err:
            find_block_plan(inst)
        assert err.value.plants == (0,)


class TestFindLanePlan:
    def test_mixed_dims_layout(self, mixed_dims_instance):
        plan = find_lane_plan(mixed_dims_instance)
        assert plan is not None
        assert tuple(sorted(plan.lane_loads())) == (7, 7)
        assert [[i + 1 for i in lane] for lane in plan.lanes] == [[1, 4], [2, 3]]
        assert_lane_plan_valid(mixed_dims_instance, plan)

    def test_demo_family_uses_all_lanes(self, demo_instance):
        plan = find_lane_plan(demo_instance)
        assert plan is not None
        assert len(plan.lanes) == 10
        assert all(len(lane) == 10 for lane in plan.lanes)
        assert_lane_plan_valid(demo_instance, plan)

    def test_single_lane_infeasible(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=3)
        assert find_lane_plan(inst) is None
        assert exhaustive_lane_plan(inst) is None

    def test_random_plans_satisfy_invariants_and_verify(self):
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(30):
            n = int(rng.integers(2, 8))
            capacity = int(rng.integers(1, n))
            horizon = int(rng.integers(2, 20))
            inst = random_instance(rng, n, capacity, horizon)
            plan = find_lane_plan(inst)
            if plan is not None:
                assert_lane_plan_valid(inst, plan)
                logic = build_from_lane_plan(inst, plan)
                assert verify_logic(inst, logic).verified
                found += 1
            bplan = find_block_plan(inst)
            if bplan is not None:
                assert_block_plan_valid(inst, bplan)
                logic = build_from_block_plan(inst, bplan)
                assert verify_logic(inst, logic).verified
        assert found > 5


class TestLaneBlockBridge:
    def test_equal_length_lanes_transpose(self, demo_instance):
        plan = find_lane_plan(demo_instance)
        bridged = block_plan_from_lanes(demo_instance, plan)
        assert_block_plan_valid(demo_instance, bridged)
        logic = build_from_block_plan(demo_instance, bridged)
        assert verify_logic(demo_instance, logic).verified

    def test_random_equal_lane_instances_transpose(self):
        # same-dimension plants with n = capacity * depth pack into equal lanes
        rng = np.random.default_rng(67)
        for _ in range(10):
            capacity = int(rng.integers(2, 4))
            depth = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            n = capacity * depth
            plants = tuple(random_reachable_plant(rng, d) for _ in range(n))
            xi = tuple(rng.uniform(-1, 1, d) for _ in range(n))
            inst = NcsInstance(plants, xi, capacity=capacity, horizon=depth * (d + 1))
            plan = find_lane_plan(inst)
            assert plan is not None
            assert {len(lane) for lane in plan.lanes} == {depth}
            bridged = block_plan_from_lanes(inst, plan)
            if sum(bridged.block_lengths) <= inst.horizon:
                assert_block_plan_valid(inst, bridged)
                logic = build_from_block_plan(inst, bridged)
                assert verify_logic(inst, logic).verified

    def test_unequal_lanes_rejected(self, mixed_dims_instance):
        plan = find_lane_plan(mixed_dims_instance)
        ragged = type(plan)(lanes=(plan.lanes[0][:1], plan.lanes[1]), widths=plan.widths)
        with pytest.raises(ValueError):
            block_plan_from_lanes(mixed_dims_instance, ragged)


class TestBuildFromBlockPlan:
    def test_two_scalar_plants_rows(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plan = find_block_plan(inst)
        logic = build_from_block_plan(inst, plan)
        np.testing.assert_allclose(logic.u[0], [0.0, -4.0, 0.0, 0.0])
        np.testing.assert_allclose(logic.u[1], [0.0, 0.0, 0.0, -81.0])
        assert verify_logic(inst, logic).verified

    def test_demo_family_capacity_and_idle_tail(self, demo_instance):
        plan = find_block_plan(demo_instance)
        logic = build_from_block_plan(demo_instance, plan)
        assert int(logic.occupancy().max()) <= 10
        np.testing.assert_array_equal(logic.u[:, 35:], np.zeros((100, 15)))
        assert verify_logic(demo_instance, logic).verified

    def test_rejects_plan_not_covering_all_plants(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plan = find_block_plan(inst)
        broken = type(plan)(
            blocks=(plan.blocks[0],),
            block_lengths=(plan.block_lengths[0],),
            offsets=(plan.offsets[0],),
        )
        with pytest.raises(ValueError):
            build_from_block_plan(inst, broken)


class TestBuildFromLanePlan:
    def test_mixed_dims_window_placement(self, mixed_dims_instance):
        inst = mixed_dims_instance
        plan = find_lane_plan(inst)
        logic = build_from_lane_plan(inst, plan)
        # plant 1: [0,2), plant 4: [2,7), plant 2: [0,3), plant 3: [3,7)
        assert np.array_equal(logic.u[0, 2:], np.zeros(5))
        assert np.array_equal(logic.u[3, :2], np.zeros(2))
        assert np.array_equal(logic.u[1, 3:], np.zeros(4))
        assert np.array_equal(logic.u[2, :3], np.zeros(3))
        assert verify_logic(inst, logic).verified

    def test_demo_family_verifies(self, demo_instance):
        plan = find_lane_plan(demo_instance)
        logic = build_from_lane_plan(demo_instance, plan)
        assert int(logic.occupancy().max()) <= 10
        assert verify_logic(demo_instance, logic).verified

    def test_block_groups_reused_as_lanes(self, demo_instance):
        # the block groups also serve as a valid lane plan: same-dimension
        # groups of 10 load a lane at 30 or 40, both within the horizon
        block = find_block_plan(demo_instance)
        widths = {i: demo_instance.plants[i].d + 1 for i in range(demo_instance.n)}
        plan = LanePlan(lanes=block.blocks, widths=widths)
        assert_lane_plan_valid(demo_instance, plan)
        logic = build_from_lane_plan(demo_instance, plan)
        assert verify_logic(demo_instance, logic).verified

    def test_single_plant_lane_is_windowed_row(self):
        from ncsched import windowed_inputs

        inst = scalar_instance([2.0, 3.0, 0.5], capacity=2, horizon=4)
        plan = LanePlan(lanes=((0,), (1, 2)), widths={0: 2, 1: 2, 2: 2})
        logic = build_from_lane_plan(inst, plan)
        np.testing.assert_array_equal(
            logic.u[0], windowed_inputs(inst.plants[0], inst.xi[0], 0, 2, 4)
        )

    def test_deterministic_serialized_output(self, demo_instance):
        plan_a = find_lane_plan(demo_instance)
        plan_b = find_lane_plan(demo_instance)
        assert json.dumps(plan_a.to_report_dict()) == json.dumps(plan_b.to_report_dict())
        logic_a = build_from_lane_plan(demo_instance, plan_a)
        logic_b = build_from_lane_plan(demo_instance, plan_b)
        assert logic_a.u.tobytes() == logic_b.u.tobytes()


class TestSplitOpenLoop:
    def test_mixed_instance(self):
        plants = (
            PlantDynamics([[0, 1], [0, 0]], [0, 1]),  # nilpotent: hits zero at 2
            companion_plant(2),
        )
        xi = (np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=6)
        hits, closed = split_open_loop(inst)
        assert hits == {0: 2}
        assert closed == [1]


# Per-plant code as the planner ran it before plants were stacked by
# dimension; the batched packing and window synthesis must reproduce it.
def reference_lane_plan(inst):
    """Balanced decreasing packing by an O(N*M) scan of the lanes that fit."""
    widths = {i: inst.plants[i].d + 1 for i in range(inst.n)}
    members = [[] for _ in range(inst.capacity)]
    loads = [0] * inst.capacity
    for i in sorted(widths, key=lambda i: (-widths[i], i)):
        fits = [j for j in range(inst.capacity) if loads[j] + widths[i] <= inst.horizon]
        if not fits:
            return None
        j = min(fits, key=lambda j: (loads[j], j))
        members[j].append(i)
        loads[j] += widths[i]
    lanes = sorted((sorted(m) for m in members if m), key=lambda lane: lane[0])
    return LanePlan(lanes=tuple(tuple(lane) for lane in lanes), widths=widths)


def reference_rows(inst, placements):
    """Input rows window by window, in plant order, with each window's warning."""
    u = np.zeros((inst.n, inst.horizon))
    for i, (off, width) in sorted(placements.items()):
        p = inst.plants[i]
        cols = [p.b]
        for _ in range(p.d - 1):
            cols.append(p.A @ cols[-1])
        psi = np.column_stack(cols[::-1])
        cond = np.linalg.cond(psi)
        if cond > COND_WARN_LIMIT:
            warnings.warn(
                f"controllability matrix condition number {cond:.2e} exceeds "
                f"{COND_WARN_LIMIT:.0e}; window accuracy may degrade",
                IllConditionedWarning,
            )
        power = np.eye(p.d)
        for _ in range(off):
            power = power @ p.A
        shifted = power @ inst.xi[i]
        power = np.eye(p.d)
        for _ in range(width):
            power = power @ p.A
        u[i, off + width - p.d : off + width] = -np.linalg.solve(psi, power @ shifted)
    return u


def recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


def ill_conditioned_plant(d, eps):
    """Chain whose couplings are eps: Psi is nearly singular for small eps."""
    A = np.eye(d) + eps * np.eye(d, k=1)
    b = np.zeros(d)
    b[-1] = 1.0
    return PlantDynamics(A, b)


class TestBatchedPlannerMatchesLoop:
    def test_lane_packing_random_widths(self):
        rng = np.random.default_rng(31)
        outcomes = set()
        for _ in range(200):
            n = int(rng.integers(2, 40))
            dims = rng.integers(1, 7, n)
            plants = tuple(companion_plant(int(d), gain=1.5) for d in dims)
            xi = tuple(np.ones(int(d)) for d in dims)
            capacity = int(rng.integers(1, n))
            horizon = int(rng.integers(2, 4 * n // capacity + 8))
            inst = NcsInstance(plants, xi, capacity=capacity, horizon=horizon)
            plan = find_lane_plan(inst)
            assert plan == reference_lane_plan(inst)
            outcomes.add(plan is None)
        assert outcomes == {True, False}

    def test_window_rows_mixed_dims(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            inst = random_instance(rng, n, max(1, n // 3), 60, max_d=4)
            lane = find_lane_plan(inst)
            assert np.array_equal(
                build_from_lane_plan(inst, lane).u, reference_rows(inst, _lane_offsets(lane))
            )
            block = find_block_plan(inst)
            if block is not None:
                assert np.array_equal(
                    build_from_block_plan(inst, block).u,
                    reference_rows(inst, _block_offsets(block)),
                )

    def test_warnings_come_out_in_plant_order(self):
        rng = np.random.default_rng(41)
        plants = (
            ill_conditioned_plant(3, 1e-7),
            random_reachable_plant(rng, 2),
            ill_conditioned_plant(2, 1e-13),
            ill_conditioned_plant(3, 1e-6),
            random_reachable_plant(rng, 1),
        )
        xi = tuple(rng.uniform(-1, 1, p.d) for p in plants)
        inst = NcsInstance(plants, xi, capacity=2, horizon=12)
        plan = find_lane_plan(inst)
        got, got_warnings = recorded(build_from_lane_plan, inst, plan)
        want, want_warnings = recorded(reference_rows, inst, _lane_offsets(plan))
        assert np.array_equal(got.u, want)
        assert len(want_warnings) == 3
        assert got_warnings == want_warnings
