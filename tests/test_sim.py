import numpy as np
import pytest

from ncsched import (
    CapacityViolationError,
    ControlLogic,
    NcsInstance,
    NonFiniteError,
    PlantDynamics,
    build_from_lane_plan,
    extract_schedule,
    find_lane_plan,
    rollout,
    simulate,
    verify_logic,
)
from ncsched.core import ZERO_RTOL

from conftest import random_reachable_plant, scalar_instance


class TestExtractSchedule:
    def test_single_active_plant(self):
        logic = ControlLogic(np.array([[0.0, 0.0], [-4.0, 0.0]]))
        sched = extract_schedule(logic)
        assert sched.as_report_lists() == [[2], []]

    def test_all_zero_logic(self):
        logic = ControlLogic(np.zeros((3, 4)))
        sched = extract_schedule(logic)
        assert sched.as_report_lists() == [[], [], [], []]

    def test_capacity_violation(self):
        logic = ControlLogic(np.ones((3, 2)))
        with pytest.raises(CapacityViolationError):
            extract_schedule(logic, capacity=2)

    def test_idempotent_after_thresholding(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, (4, 6))
        u[1, 3] = 1e-15  # below threshold, must vanish
        logic = ControlLogic(u)
        once = logic.thresholded()
        twice = once.thresholded()
        np.testing.assert_array_equal(once.u, twice.u)
        assert extract_schedule(once).slots == extract_schedule(twice).slots


class TestSimulate:
    def test_scalar_deadbeat_trajectory(self):
        # N=1 violates capacity bounds, so pair with a nilpotent companion
        plants = (PlantDynamics([[2.0]], [1.0]), PlantDynamics([[0.0]], [1.0]))
        xi = (np.array([1.0]), np.array([1.0]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=2)
        logic = ControlLogic(np.array([[0.0, -4.0], [0.0, 0.0]]))
        result = simulate(inst, logic)
        np.testing.assert_allclose(
            np.concatenate(result.trajectories[0]), [1.0, 2.0, 0.0]
        )
        assert result.terminal_residuals[0] == 0.0
        assert result.verified

    def test_open_loop_nilpotent_reaches_zero(self):
        plants = (
            PlantDynamics([[0, 1], [0, 0]], [0, 1]),
            PlantDynamics([[0.0]], [1.0]),
        )
        xi = (np.array([1.0, 1.0]), np.array([1.0]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=2)
        result = simulate(inst, ControlLogic(np.zeros((2, 2))))
        np.testing.assert_array_equal(result.trajectories[0][-1], np.zeros(2))
        assert result.verified

    def test_open_loop_growth_not_verified(self):
        inst = scalar_instance([2.0, 0.0], capacity=1, horizon=3)
        result = simulate(inst, ControlLogic(np.zeros((2, 3))))
        assert result.trajectories[0][-1][0] == 8.0
        assert not result.verified
        assert result.violations

    def test_capacity_violation_not_verified(self):
        inst = scalar_instance([2.0, 2.0, 2.0], capacity=1, horizon=4)
        u = np.zeros((3, 4))
        u[:, 1] = [-4.0, -4.0, -4.0]  # three plants in one slot
        result = verify_logic(inst, ControlLogic(u))
        assert not result.verified
        assert any("capacity" in v for v in result.violations)

    def test_truncated_horizon_not_verified(self):
        # the same window works at T=2 but not when cut to T=1
        plants = (PlantDynamics([[2.0]], [1.0]), PlantDynamics([[0.0]], [1.0]))
        xi = (np.array([1.0]), np.array([1.0]))
        good = NcsInstance(plants, xi, capacity=1, horizon=2)
        assert verify_logic(good, ControlLogic([[0.0, -4.0], [0.0, 0.0]])).verified
        cut = NcsInstance(plants, xi, capacity=1, horizon=1)
        assert not verify_logic(cut, ControlLogic([[0.0], [0.0]])).verified

    def test_schedule_and_actuation_agree(self):
        rng = np.random.default_rng(17)
        inst = scalar_instance([2.0, 1.5, 0.5], capacity=2, horizon=5)
        u = rng.uniform(-1, 1, (3, 5))
        u[0, 2] = 1e-14
        logic = ControlLogic(u)
        zeroed = logic.thresholded()
        sched = extract_schedule(logic)
        for t, slot in enumerate(sched.slots):
            for i in range(3):
                if i not in slot:
                    assert zeroed.u[i, t] == 0.0

    def test_shape_mismatch_rejected(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        with pytest.raises(ValueError):
            simulate(inst, ControlLogic(np.zeros((2, 3))))


# Per-plant loops as the simulator ran them before plants were stacked by
# dimension; the batched kernels must reproduce them bit for bit.
def reference_rollout(p, xi, u, zero_rtol=ZERO_RTOL):
    out = np.empty((u.shape[0] + 1, p.d))
    out[0] = xi
    sup = max(1.0, float(np.linalg.norm(xi)))
    x = xi
    for t in range(u.shape[0]):
        x = p.A @ x + p.b * u[t]
        norm = float(np.linalg.norm(x))
        if not np.isfinite(norm):
            raise NonFiniteError(f"state overflowed at step {t + 1}")
        sup = max(sup, norm)
        if norm <= zero_rtol * sup:
            x = np.zeros(p.d)
        out[t + 1] = x
    return out


def reference_simulate(inst, logic, zero_rtol=ZERO_RTOL):
    """(trajectories, residuals, state norm series) from one plant at a time."""
    zeroed = logic.thresholded(zero_rtol)
    trajectories, residuals = [], []
    for i, (p, x0) in enumerate(zip(inst.plants, inst.xi)):
        traj = reference_rollout(p, x0, zeroed.u[i], zero_rtol)
        norms = np.linalg.norm(traj, axis=1)
        residuals.append(norms[-1] / max(1.0, float(norms.max())))
        trajectories.append(traj)
    state_norms = [[float(np.linalg.norm(x)) for x in traj] for traj in trajectories]
    return trajectories, residuals, state_norms


def mixed_instance(rng, n, horizon):
    """Plants of dimensions 1-4 in shuffled order, unstable and reachable."""
    plants = tuple(
        random_reachable_plant(rng, int(rng.integers(1, 5)), unstable=True) for _ in range(n)
    )
    xi = tuple(rng.uniform(-1, 1, p.d) for p in plants)
    return NcsInstance(plants, xi, capacity=max(1, n // 4), horizon=horizon)


def assert_matches_reference(inst, logic):
    result = simulate(inst, logic)
    trajectories, residuals, state_norms = reference_simulate(inst, logic)
    for got, want in zip(result.trajectories, trajectories):
        assert np.array_equal(got, want)
    assert np.array_equal(result.terminal_residuals, residuals)
    assert result.state_norms() == state_norms
    return result


class TestBatchedRolloutMatchesLoop:
    def test_random_inputs_mixed_dims(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            inst = mixed_instance(rng, int(rng.integers(2, 30)), int(rng.integers(1, 25)))
            u = rng.uniform(-3, 3, (inst.n, inst.horizon))
            u[rng.uniform(size=u.shape) < 0.5] = 0.0
            assert_matches_reference(inst, ControlLogic(u))

    def test_steered_rows_clamp_to_zero(self):
        # deadbeat windows end on ~1e-15 rounding that the clamp zeroes
        rng = np.random.default_rng(5)
        inst = mixed_instance(rng, 24, 40)
        logic = build_from_lane_plan(inst, find_lane_plan(inst))
        result = assert_matches_reference(inst, logic)
        assert result.verified
        clamped = [traj for traj in result.trajectories if not traj[-1].any()]
        assert len(clamped) == inst.n

    def test_single_plant_rollout_is_a_stack_of_one(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 4):
            p = random_reachable_plant(rng, d, unstable=True)
            xi = rng.uniform(-1, 1, d)
            u = rng.uniform(-2, 2, 30)
            assert np.array_equal(rollout(p, xi, u), reference_rollout(p, xi, u))

    def test_overflow_reports_the_first_plant_in_index_order(self):
        # the norm squares the state: plant 2 overflows at step 2, plant 3 at 1
        inst = scalar_instance([0.5, 1e100, 1e200, 2.0], capacity=1, horizon=4)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="at step 2"):
            reference_rollout(inst.plants[1], inst.xi[1], np.zeros(4))
        with pytest.raises(NonFiniteError, match="at step 2"):
            simulate(inst, ControlLogic(np.zeros((4, 4))))
        with pytest.raises(NonFiniteError, match="at step 1"):
            rollout(inst.plants[2], inst.xi[2], np.zeros(4))
