import json
import re
import warnings

import numpy as np
import pytest

import ncsched.planner
from ncsched import (
    BlockPlan,
    IllConditionedWarning,
    LanePlan,
    NcsInstance,
    NonFiniteError,
    NotReachableError,
    PlantDynamics,
    WindowOverflowError,
    build_from_plan,
    find_block_plan,
    find_lane_plan,
    solve_instance,
    split_open_loop,
    verify_logic,
    windowed_inputs,
)
from ncsched.core import CERTIFICATE_SLACK, lifted_matrices
from ncsched.deadbeat import COND_WARN_LIMIT
from ncsched.instances import dump_json
from ncsched.planner import _packed_lanes
from ncsched.sim import slot_mask, slot_members

from conftest import (
    companion_plant,
    random_reachable_plant,
    scalar_instance,
    step_left_to_right,
)


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


def reference_partitions(items, max_parts, max_size):
    """All set partitions of ``items`` into at most max_parts parts of at most max_size."""
    parts = []

    def rec(k):
        if k == len(items):
            yield [tuple(p) for p in parts]
            return
        for p in parts:
            if len(p) < max_size:
                p.append(items[k])
                yield from rec(k + 1)
                p.pop()
        if len(parts) < max_parts:
            parts.append([items[k]])
            yield from rec(k + 1)
            parts.pop()

    yield from rec(0)


def reference_block_plan(inst):
    """Every grouping into ceil(N/M) groups of at most M, tried in turn."""
    n_blocks = -(-inst.n // inst.capacity)
    for parts in reference_partitions(list(range(inst.n)), n_blocks, inst.capacity):
        lengths = [1 + max(inst.plants[i].d for i in blk) for blk in parts]
        if sum(lengths) <= inst.horizon:
            return BlockPlan(tuple(tuple(sorted(b)) for b in parts), tuple(lengths))
    return None


def reference_lane_plan_complete(inst):
    """The first partition into at most M lanes, in canonical order, whose loads fit."""
    widths = {i: inst.plants[i].d + 1 for i in range(inst.n)}
    for parts in reference_partitions(list(range(inst.n)), inst.capacity, inst.n):
        if all(sum(widths[i] for i in lane) <= inst.horizon for lane in parts):
            lanes = sorted((tuple(sorted(lane)) for lane in parts), key=lambda lane: lane[0])
            return LanePlan(lanes=tuple(lanes), widths=widths)
    return None


def companion_instance(dims, capacity, horizon):
    """Plan feasibility depends only on the dimensions, M and T."""
    plants = tuple(companion_plant(int(d)) for d in dims)
    xi = tuple(np.ones(int(d)) for d in dims)
    return NcsInstance(plants, xi, capacity=capacity, horizon=horizon)


def random_small_instances(seed, count, max_n=8):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        dims = rng.integers(1, 5, n)
        capacity = int(rng.integers(1, n))
        horizon = int(rng.integers(2, 3 * n // capacity + 6))
        yield companion_instance(dims, capacity, horizon)


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
        assert reference_block_plan(mixed_dims_instance) is None

    def test_two_scalar_plants(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plan = find_block_plan(inst)
        assert plan is not None
        assert plan.blocks == ((0,), (1,))
        assert plan.block_lengths == (2, 2)
        assert_block_plan_valid(inst, plan)
        # the enumeration agrees that a plan exists
        assert reference_block_plan(inst) is not None

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
                logic = build_from_plan(inst, plan)
                assert verify_logic(inst, logic).verified
                found += 1
            bplan = find_block_plan(inst)
            if bplan is not None:
                assert_block_plan_valid(inst, bplan)
                logic = build_from_plan(inst, bplan)
                assert verify_logic(inst, logic).verified
        assert found > 5


class TestCompleteSearches:
    def test_greedy_block_plan_agrees_with_enumeration(self):
        outcomes = set()
        for inst in random_small_instances(43, 300):
            block = find_block_plan(inst)
            assert (block is None) == (reference_block_plan(inst) is None)
            if block is not None:
                assert_block_plan_valid(inst, block)
                # a block plan's groups also pack as lanes
                assert find_lane_plan(inst) is not None
            outcomes.add(block is None)
        assert outcomes == {True, False}

    def test_block_plan_implies_lane_plan(self):
        """Whenever the block plan fits, balanced lane packing fits too.

        Both searches take the plants in (-dimension, index) order: the block
        plan cuts that order into chunks of M, chunk j getting the segment
        length L_j = 1 + its largest dimension, and the lane packing places
        each plant, width d + 1 <= L_j for a plant of chunk j, on the least
        loaded lane. Write S_j = L_0 + ... + L_(j-1). By induction every lane
        holds at most S_j when chunk j begins: while chunk j is placed, at
        most M - 1 of its plants are down, so some lane has taken none of
        them and still holds at most S_j; the least loaded lane holds no
        more, so the plant lands at most at S_j + L_j = S_(j+1). As
        S_(j+1) <= sum(L) <= T, no window overruns the horizon. Hence in
        ``auto`` the block route can win only after a lane plan was found
        and failed synthesis or verification. The packing step is called on
        its own, since the complete walk behind it would hide a packing miss.
        """
        outcomes = set()
        for inst in random_small_instances(53, 1000):
            block = find_block_plan(inst)
            if block is not None:
                assert _packed_lanes(inst, range(inst.n)) is not None
            outcomes.add(block is None)
        assert outcomes == {True, False}

    def test_load_pruned_lane_search_matches_enumeration(self, monkeypatch):
        # the lane search fails exactly when no partition into lanes fits
        cases = [(inst, reference_lane_plan_complete(inst))
                 for inst in random_small_instances(47, 300)]
        outcomes = set()
        for inst, want in cases:
            plan = find_lane_plan(inst)
            assert (plan is None) == (want is None)
            if plan is not None:
                assert_lane_plan_valid(inst, plan)
            outcomes.add(plan is None)
        assert outcomes == {True, False}
        # the packing never misses here; without it, the walk behind it finds
        # the enumeration's first partition
        monkeypatch.setattr(ncsched.planner, "_packed_lanes", lambda inst, subset: None)
        for inst, want in cases:
            assert find_lane_plan(inst) == want

    def test_lane_search_finds_what_packing_misses(self):
        # widths 3, 3, 2, 2, 2 in two lanes of 6: balanced packing puts the
        # two 3s apart and strands a 2; the complete search pairs them
        inst = companion_instance([2, 2, 1, 1, 1], capacity=2, horizon=6)
        assert _packed_lanes(inst, range(inst.n)) is None
        plan = find_lane_plan(inst)
        assert [[i + 1 for i in lane] for lane in plan.lanes] == [[1, 2], [3, 4, 5]]

    def test_window_wider_than_horizon_is_never_placed(self):
        inst = companion_instance([4] + [1] * 9, capacity=9, horizon=4)
        assert find_lane_plan(inst) is None


class TestBuildFromBlockPlan:
    def test_two_scalar_plants_rows(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plan = find_block_plan(inst)
        logic = build_from_plan(inst, plan)
        np.testing.assert_allclose(logic.u[0], [0.0, -4.0, 0.0, 0.0])
        np.testing.assert_allclose(logic.u[1], [0.0, 0.0, 0.0, -81.0])
        assert verify_logic(inst, logic).verified

    def test_demo_family_capacity_and_idle_tail(self, demo_instance):
        plan = find_block_plan(demo_instance)
        logic = build_from_plan(demo_instance, plan)
        outcome = verify_logic(demo_instance, logic)
        assert outcome.max_column_occupancy <= 10
        np.testing.assert_array_equal(logic.u[:, 35:], np.zeros((100, 15)))
        assert outcome.verified

    def test_rejects_plan_not_covering_all_plants(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plan = find_block_plan(inst)
        broken = type(plan)(blocks=(plan.blocks[0],), block_lengths=(plan.block_lengths[0],))
        with pytest.raises(ValueError):
            build_from_plan(inst, broken)


class TestBuildFromLanePlan:
    def test_mixed_dims_window_placement(self, mixed_dims_instance):
        inst = mixed_dims_instance
        plan = find_lane_plan(inst)
        logic = build_from_plan(inst, plan)
        # plant 1: [0,2), plant 4: [2,7), plant 2: [0,3), plant 3: [3,7)
        assert np.array_equal(logic.u[0, 2:], np.zeros(5))
        assert np.array_equal(logic.u[3, :2], np.zeros(2))
        assert np.array_equal(logic.u[1, 3:], np.zeros(4))
        assert np.array_equal(logic.u[2, :3], np.zeros(3))
        assert verify_logic(inst, logic).verified

    def test_demo_family_verifies(self, demo_instance):
        plan = find_lane_plan(demo_instance)
        outcome = verify_logic(demo_instance, build_from_plan(demo_instance, plan))
        assert outcome.max_column_occupancy <= 10
        assert outcome.verified

    def test_block_groups_reused_as_lanes(self, demo_instance):
        # the block groups also serve as a valid lane plan: same-dimension
        # groups of 10 load a lane at 30 or 40, both within the horizon
        block = find_block_plan(demo_instance)
        widths = {i: demo_instance.plants[i].d + 1 for i in range(demo_instance.n)}
        plan = LanePlan(lanes=block.blocks, widths=widths)
        assert_lane_plan_valid(demo_instance, plan)
        logic = build_from_plan(demo_instance, plan)
        assert verify_logic(demo_instance, logic).verified

    def test_single_plant_lane_is_windowed_row(self):
        from ncsched import windowed_inputs

        inst = scalar_instance([2.0, 3.0, 0.5], capacity=2, horizon=4)
        plan = LanePlan(lanes=((0,), (1, 2)), widths={0: 2, 1: 2, 2: 2})
        logic = build_from_plan(inst, plan)
        np.testing.assert_array_equal(
            logic.u[0], windowed_inputs(inst.plants[0], inst.xi[0], 0, 2, 4)
        )

    def test_deterministic_serialized_output(self, demo_instance):
        plan_a = find_lane_plan(demo_instance)
        plan_b = find_lane_plan(demo_instance)
        assert json.dumps(plan_a.to_report_dict()) == json.dumps(plan_b.to_report_dict())
        logic_a = build_from_plan(demo_instance, plan_a)
        logic_b = build_from_plan(demo_instance, plan_b)
        assert logic_a.u.tobytes() == logic_b.u.tobytes()


class TestPlanChecks:
    def test_block_offsets_are_the_running_sum(self):
        plan = BlockPlan(blocks=((0, 1), (2,), ()), block_lengths=(3, 2, 1))
        assert plan.offsets == (0, 3, 5)
        assert windows_of(plan) == [(0, 0, 3), (1, 0, 3), (2, 3, 2)]
        assert BlockPlan(blocks=(), block_lengths=()).offsets == ()

    @pytest.mark.parametrize("make, message", [
        # an int cast would build width 2 and verify it
        (lambda: LanePlan(lanes=((0, 1),), widths={0: 3, 1: 2.9}),
         "the width of plant 2 must be an integer, got 2.9"),
        (lambda: LanePlan(lanes=((0,), (1,)), widths={1: 2.0, 0: True}),
         "the width of plant 1 must be an integer, got True"),
        # an int cast would build rows of length 2 while offsets said 2.7
        (lambda: BlockPlan(blocks=((0,), (1,)), block_lengths=(2.7, 2)),
         "the length of block 1 must be an integer, got 2.7"),
        (lambda: BlockPlan(blocks=((0,), (1,)), block_lengths=(2, np.float64(3.0))),
         "the length of block 2 must be an integer, got np.float64(3.0)"),
    ], ids=["lane-float", "lane-bool", "block-float", "block-numpy-float"])
    def test_non_integer_windows_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_numpy_integer_windows_accepted(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plans = (LanePlan(lanes=((0, 1),), widths={0: np.int64(2), 1: 2}),
                 BlockPlan(blocks=((0,), (1,)), block_lengths=(np.int32(2), 2)))
        for plan in plans:
            assert windows_of(plan) == [(0, 0, 2), (1, 2, 2)]
            assert verify_logic(inst, build_from_plan(inst, plan)).verified

    @pytest.mark.parametrize("make, bad", [
        # an int cast would place plant 2 where the plan lists 1.7 or True
        (lambda w: LanePlan(lanes=((0, 1.7), (2,)), widths=w), "1.7"),
        (lambda w: LanePlan(lanes=((0, True), (2,)), widths=w), "True"),
        (lambda w: LanePlan(lanes=((0, 1), (np.float64(2.0),)), widths=w), "np.float64(2.0)"),
        (lambda w: BlockPlan(blocks=((0, 1.0), (2,)), block_lengths=(2, 2)), "1.0"),
        (lambda w: BlockPlan(blocks=((False, 1), (2,)), block_lengths=(2, 2)), "False"),
    ], ids=["lane-float", "lane-bool", "lane-numpy-float", "block-float", "block-bool"])
    def test_non_integer_plants_rejected(self, make, bad):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=6)
        plan = make({0: 2, 1: 2, 2: 2})
        message = f"^a listed plant must be an integer, got {re.escape(bad)}$"
        for call in (lambda: build_from_plan(inst, plan), plan.to_report_dict):
            with pytest.raises(ValueError, match=message):
                call()

    def test_numpy_integer_plants_accepted(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plans = (LanePlan(lanes=((np.int64(0), 1),), widths={0: 2, 1: 2}),
                 BlockPlan(blocks=((0,), (np.int32(1),)), block_lengths=(2, 2)))
        for plan in plans:
            assert windows_of(plan) == [(0, 0, 2), (1, 2, 2)]
            assert verify_logic(inst, build_from_plan(inst, plan)).verified
        assert json.dumps(plans[0].to_report_dict()["lanes"]) == "[[1, 2]]"
        assert json.dumps(plans[1].to_report_dict()["blocks"]) == "[[1], [2]]"

    def test_width_of_a_plant_no_lane_lists_rejected(self):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=6)
        plan = LanePlan(lanes=((0, 1), (2,)), widths={0: 2, 1: 2, 2: 2, 9: 5})
        message = "^plan gives plant 10 a width but no lane lists it$"
        for call in (lambda: build_from_plan(inst, plan), plan.to_report_dict):
            with pytest.raises(ValueError, match=message):
                call()

    def test_negative_plants_and_non_integer_width_keys_rejected(self):
        # a negative member once came out as plant 0 of a 1-based report, and
        # a width keyed 1.0 was found by plant 1's lookup and written as 2.0
        key = "^a plant given a width must be "
        with pytest.raises(ValueError, match=key + "nonnegative, got -1$"):
            LanePlan(lanes=((0, -1), (2,)), widths={0: 2, -1: 2, 2: 2})
        with pytest.raises(ValueError, match=key + r"an integer, got 1\.0$"):
            LanePlan(lanes=((1,),), widths={1.0: 2})
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=6)
        plans = (LanePlan(lanes=((0, -1), (2,)), widths={0: 2, 2: 2}),
                 BlockPlan(blocks=((0, -1),), block_lengths=(3,)))
        message = "^a listed plant must be nonnegative, got -1$"
        for plan in plans:
            for call in (lambda: build_from_plan(inst, plan), plan.to_report_dict):
                with pytest.raises(ValueError, match=message):
                    call()

    def test_numpy_integer_plans_serialize_as_their_python_twins(self):
        # a numpy width, width key or block length once reached the report as
        # given, and json refused it ("Object of type int64 is not JSON serializable")
        three, zero = np.int64(3), np.int64(0)
        pairs = [
            (LanePlan(lanes=((0, 1),), widths={0: three, 1: 3}),
             LanePlan(lanes=((0, 1),), widths={0: 3, 1: 3})),
            (LanePlan(lanes=((0, 1),), widths={zero: 3, 1: np.int32(3)}),
             LanePlan(lanes=((0, 1),), widths={0: 3, 1: 3})),
            (BlockPlan(blocks=((0,), (1,)), block_lengths=(three, 3)),
             BlockPlan(blocks=((0,), (1,)), block_lengths=(3, 3))),
        ]
        for plan, twin in pairs:
            assert plan == twin
            assert dump_json(plan.to_report_dict()) == dump_json(twin.to_report_dict())

    def test_plan_that_misplaces_a_plant_names_it(self):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=6)
        widths = {0: 2, 1: 2, 2: 2, 3: 2}
        beyond = LanePlan(lanes=((0, 1), (2, 3)), widths=widths)
        with pytest.raises(ValueError, match="^plan places plant 4, which is not one to place$"):
            build_from_plan(inst, beyond)
        short = BlockPlan(blocks=((0, 2),), block_lengths=(2,))
        with pytest.raises(ValueError, match="^plan leaves plant 2 unplaced$"):
            build_from_plan(inst, short)

    def test_lane_report_dict_lists_lanes_and_widths_in_plant_order(self, demo_instance):
        # the report lists 1-based lanes, sliced off the window arrays, and
        # [plant, width] pairs in plant order, whatever the widths' key order
        def reference(plan):
            return {"kind": "lane", "lanes": [[i + 1 for i in lane] for lane in plan.lanes],
                    "widths": [[i + 1, plan.widths[i]] for i in sorted(plan.widths)]}

        found = find_lane_plan(demo_instance)
        shuffled = LanePlan(found.lanes, dict(reversed(list(found.widths.items()))))
        for plan in (found, shuffled):
            assert json.dumps(plan.to_report_dict()) == json.dumps(reference(plan))
        with pytest.raises(ValueError, match="gives plant 6 a width but no lane lists it"):
            LanePlan(((2,), (0,)), {5: 3, 2: 2, 0: 4}).to_report_dict()
        with pytest.raises(ValueError, match="places plant 2 twice"):
            LanePlan(lanes=((0, 1), (1,)), widths={0: 2, 1: 2}).to_report_dict()

    def test_more_bursts_than_capacity_in_one_slot_fail_verification(self):
        # synthesis builds any well-formed plan; the verifier's channel rule
        # (at most M nonzero inputs per slot) is the only capacity judge
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=4)
        lanes = LanePlan(lanes=((0,), (1,), (2,)), widths={0: 2, 1: 2, 2: 2})
        block = BlockPlan(blocks=((0, 1, 2),), block_lengths=(2,))
        for plan in (lanes, block):
            outcome = verify_logic(inst, build_from_plan(inst, plan))
            assert not outcome.verified
            assert outcome.violations == (
                "capacity violation: slot 1 holds 3 plants, capacity is 2",
            )

    def test_more_lanes_than_capacity_with_disjoint_bursts_verify(self):
        # three lanes on a one-plant channel: the bursts sit in slots 1, 3, 5
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=6)
        plan = LanePlan(lanes=((0,), (1,), (2,)), widths={0: 2, 1: 4, 2: 6})
        logic = build_from_plan(inst, plan)
        assert slot_members(slot_mask(logic.u)) == [[], [0], [], [1], [], [2]]
        assert verify_logic(inst, logic).verified

    def test_window_not_longer_than_dimension_rejected(self, mixed_dims_instance):
        plan = find_lane_plan(mixed_dims_instance)
        short = LanePlan(lanes=plan.lanes, widths={**plan.widths, 2: 3})
        with pytest.raises(ValueError, match="window length 3 too short for plant 3"):
            build_from_plan(mixed_dims_instance, short)

    def test_plant_placed_twice_rejected(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plan = LanePlan(lanes=((0, 1), (1,)), widths={0: 2, 1: 2})
        with pytest.raises(ValueError, match="places plant 2 twice"):
            build_from_plan(inst, plan)

    def test_lane_plant_without_width_rejected(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        plan = LanePlan(lanes=((0, 1),), widths={0: 2})
        for call in (lambda: build_from_plan(inst, plan), lambda: plan.windows, plan.lane_loads):
            with pytest.raises(ValueError, match="plan gives plant 2 no width"):
                call()

    def test_unreachable_plant_in_hand_built_plan(self):
        bad = PlantDynamics([[1, 0], [0, 1]], [1, 0])
        good = PlantDynamics([[2.0]], [1.0])
        inst = NcsInstance(
            (good, bad), (np.array([1.0]), np.array([1.0, 1.0])), capacity=1, horizon=9
        )
        plan = LanePlan(lanes=((0, 1),), widths={0: 2, 1: 3})
        with pytest.raises(NotReachableError) as err:
            build_from_plan(inst, plan)
        assert err.value.plants == (1,)

    def test_window_past_horizon_overflows(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=3)
        plan = LanePlan(lanes=((0, 1),), widths={0: 2, 1: 2})
        with pytest.raises(WindowOverflowError, match=r"window \[2, 4\) exceeds horizon 3"):
            build_from_plan(inst, plan)

    def test_overflowing_burst_raises(self):
        # A^2 x = 4 is finite, but the burst 4 / b is not
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4, inputs=[1e-308, 1.0])
        plan = LanePlan(lanes=((0, 1),), widths={0: 2, 1: 2})
        with pytest.raises(NonFiniteError, match="deadbeat burst overflowed"):
            build_from_plan(inst, plan)


class TestSplitOpenLoop:
    def test_mixed_instance(self):
        plants = (
            PlantDynamics([[0, 1], [0, 0]], [0, 1]),  # nilpotent: hits zero at 2
            companion_plant(2),
        )
        plants += (PlantDynamics([[0.0]], [1.0]), companion_plant(1))  # hits zero at 1; never
        xi = (np.array([1.0, 1.0]), np.array([0.5, 0.5]), np.array([1.0]), np.array([1.0]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=6)
        hits, closed, states = split_open_loop(inst)
        assert list(hits.items()) == [(0, 2), (2, 1)]
        assert closed == [1, 3]
        # each dimension group's zero-input states, keyed by dimension and
        # stepped through the horizon
        assert list(states) == [1, 2]
        for g, scanned in zip(inst.groups, states.values()):
            assert np.array_equal(scanned.idx, g.idx)
            for i in g.idx:
                x = inst.xi[i]
                for t in range(inst.horizon + 1):
                    assert np.array_equal(scanned.at(np.array([i]), np.array([t]))[0], x)
                    x = step_left_to_right(inst.plants[i].A, x)
        # plain Python ints, as files and messages take them, not numpy scalars
        assert type(closed) is list
        assert {type(v) for v in (*hits, *hits.values(), *closed)} == {int}

    def test_huge_initial_state_is_not_called_zero(self):
        # the squared norm of 1e160 overflows; the scan must not read it as a hit
        inst = scalar_instance([2.0, 1.5, 1.5], capacity=1, horizon=6, states=[1e160, 1.0, 1.0])
        assert split_open_loop(inst)[:2] == ({}, [0, 1, 2])


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


def windows_of(plan):
    """A plan's ``windows`` arrays as (plant, offset, width) triples, in listing order."""
    return list(zip(*(column.tolist() for column in plan.windows)))


def reference_windows(plan):
    """(plant, offset, width) window by window, as the plans listed them."""
    if isinstance(plan, BlockPlan):
        return [(i, off, width) for blk, off, width
                in zip(plan.blocks, plan.offsets, plan.block_lengths) for i in blk]
    windows = []
    for lane in plan.lanes:
        off = 0
        for i in lane:
            windows.append((i, off, plan.widths[i]))
            off += plan.widths[i]
    return windows


def reference_rows(inst, windows):
    """Input rows window by window, in plant order, with each window's warning."""
    u = np.zeros((inst.n, inst.horizon))
    for i, off, width in sorted(windows):
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
        # the zero-input state at the window's end, which the burst cancels
        x = inst.xi[i]
        for _ in range(off + width):
            x = step_left_to_right(p.A, x)
        u[i, off + width - p.d : off + width] = -np.linalg.solve(psi, x)
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
        cases = []
        for _ in range(200):
            n = int(rng.integers(2, 40))
            capacity = int(rng.integers(1, n))
            horizon = int(rng.integers(2, 4 * n // capacity + 8))
            cases.append((rng.integers(1, 7, n), capacity, horizon))
        for _ in range(20):
            # shuffled mixed dimensions, M = N - 1, horizons on both sides of feasible
            n = int(rng.integers(2, 40))
            dims = rng.permutation(np.repeat([1, 2, 3, 4], n)[:n])
            cases.append((dims, n - 1, int(rng.integers(2, 12))))
        # the scale family: 2 x 2000 and 3 x 2000 plants, M = 400, T = 50
        cases.append(((2,) * 2000 + (3,) * 2000, 400, 50))
        outcomes = set()
        for dims, capacity, horizon in cases:
            plants = tuple(companion_plant(int(d), gain=1.5) for d in dims)
            xi = tuple(np.ones(int(d)) for d in dims)
            inst = NcsInstance(plants, xi, capacity=capacity, horizon=horizon)
            plan, want = _packed_lanes(inst, range(inst.n)), reference_lane_plan(inst)
            assert plan == want
            if plan is not None:
                assert plan.to_report_dict() == want.to_report_dict()
                assert windows_of(plan) == reference_windows(want)
            outcomes.add((plan is None, capacity == inst.n - 1))
        assert outcomes == {(True, False), (False, False), (True, True), (False, True)}
        assert plan is not None and len(plan.lanes) == 400

    def test_window_rows_mixed_dims(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            inst = random_instance(rng, n, max(1, n // 3), 60, max_d=4)
            lane = find_lane_plan(inst)
            assert np.array_equal(
                build_from_plan(inst, lane).u, reference_rows(inst, reference_windows(lane))
            )
            block = find_block_plan(inst)
            if block is not None:
                assert windows_of(block) == reference_windows(block)
                assert np.array_equal(
                    build_from_plan(inst, block).u,
                    reference_rows(inst, reference_windows(block)),
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
        got, got_warnings = recorded(build_from_plan, inst, plan)
        want, want_warnings = recorded(reference_rows, inst, windows_of(plan))
        assert np.array_equal(got.u, want)
        assert len(want_warnings) == 3
        assert got_warnings == want_warnings


class TestConditioningWarningBoundaries:
    """Only plants the determinant certificate leaves open have their Psi
    condition number computed, and only those past ``COND_WARN_LIMIT`` warn."""

    def test_settled_plants_never_warn(self):
        # a settled plant's condition number is below about 1 / CERTIFICATE_SLACK
        assert 1 / CERTIFICATE_SLACK < COND_WARN_LIMIT

    def test_unsettled_plants_warn_only_past_the_limit(self):
        plants = (ill_conditioned_plant(2, 1e-10), ill_conditioned_plant(2, 1e-13))
        conds = [np.linalg.cond(lifted_matrices(p.A[None], p.b[None], p.d)[0]) for p in plants]
        # neither is settled; only the second passes the limit
        assert 1 / CERTIFICATE_SLACK < conds[0] <= COND_WARN_LIMIT < conds[1]
        xi = (np.array([1.0, -0.5]), np.array([0.25, 1.0]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=6)
        assert not inst.groups[0].settled.any()
        plan = find_lane_plan(inst)
        want, want_warnings = recorded(reference_rows, inst, windows_of(plan))
        assert want_warnings == [
            f"controllability matrix condition number {conds[1]:.2e} exceeds 1e+12; "
            "window accuracy may degrade"
        ]
        got, got_warnings = recorded(build_from_plan, inst, plan)
        assert np.array_equal(got.u, want)
        assert got_warnings == want_warnings
        report = solve_instance(inst, method="lane")
        assert report.verified and report.warnings == want_warnings
        for p, x, warned in zip(plants, xi, ([], want_warnings)):
            _, got_warnings = recorded(windowed_inputs, p, x, 0, 3, 6)
            assert got_warnings == warned
