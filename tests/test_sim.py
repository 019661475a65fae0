import re
import warnings

import numpy as np
import pytest

from ncsched import (
    ControlLogic,
    NcsInstance,
    NonFiniteError,
    PlantDynamics,
    build_from_plan,
    find_lane_plan,
    rollout,
    solve_instance,
    verify_logic,
    windowed_inputs,
)
from ncsched import core, sim
from ncsched.core import TERMINAL_RTOL, ZERO_RTOL, column_step, nonzero_entries
from ncsched.sim import slot_mask, slot_members, steers_to_zero, terminal_residuals

from conftest import (
    huge_initial_norm_instance,
    norm_left_to_right,
    open_loop_hit_times,
    random_reachable_plant,
    scalar_instance,
    step_left_to_right,
)


def schedule_of(logic, zero_rtol=ZERO_RTOL):
    """Per slot, the 0-based plants whose input the verifier keeps."""
    return slot_members(slot_mask(logic.thresholded(zero_rtol).u))


def replayed_states(inst, logic, zero_rtol=ZERO_RTOL):
    """Each plant's (T+1) x d states under the thresholded logic, one
    ``rollout_stack`` per dimension group, in plant order."""
    u = logic.thresholded(zero_rtol).u
    states = [None] * inst.n
    for g in inst.groups:
        rolled = sim.rollout_stack(g.A, g.b, g.xi, u[g.idx], zero_rtol)[0]
        for i, x in zip(g.idx.tolist(), rolled):
            states[i] = x
    return states


class TestScheduleOfALogic:
    def test_single_active_plant(self):
        logic = ControlLogic(np.array([[0.0, 0.0], [-4.0, 0.0]]))
        assert schedule_of(logic) == [[1], []]

    def test_all_zero_logic(self):
        logic = ControlLogic(np.zeros((3, 4)))
        assert schedule_of(logic) == [[]] * 4

    def test_idempotent_after_thresholding(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, (4, 6))
        u[1, 3] = 1e-15  # below threshold, must vanish
        logic = ControlLogic(u)
        once = logic.thresholded()
        twice = once.thresholded()
        np.testing.assert_array_equal(once.u, twice.u)
        assert schedule_of(once) == schedule_of(twice)


class TestSimulate:
    def test_scalar_deadbeat_trajectory(self):
        # N=1 violates capacity bounds, so pair with a nilpotent companion
        plants = (PlantDynamics([[2.0]], [1.0]), PlantDynamics([[0.0]], [1.0]))
        xi = (np.array([1.0]), np.array([1.0]))
        inst = NcsInstance(plants, xi, capacity=1, horizon=2)
        logic = ControlLogic(np.array([[0.0, -4.0], [0.0, 0.0]]))
        result = verify_logic(inst, logic)
        np.testing.assert_allclose(
            np.concatenate(replayed_states(inst, result.control)[0]), [1.0, 2.0, 0.0]
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
        result = verify_logic(inst, ControlLogic(np.zeros((2, 2))))
        np.testing.assert_array_equal(replayed_states(inst, result.control)[0][-1], np.zeros(2))
        assert result.verified

    def test_open_loop_growth_not_verified(self):
        inst = scalar_instance([2.0, 0.0], capacity=1, horizon=3)
        result = verify_logic(inst, ControlLogic(np.zeros((2, 3))))
        assert replayed_states(inst, result.control)[0][-1][0] == 8.0
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
        for t, slot in enumerate(schedule_of(logic)):
            for i in range(3):
                if i not in slot:
                    assert zeroed.u[i, t] == 0.0

    def test_shape_mismatch_rejected(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        with pytest.raises(ValueError):
            verify_logic(inst, ControlLogic(np.zeros((2, 3))))

    @pytest.mark.parametrize("logic", [np.zeros((2, 4)), [[0.0] * 4] * 2, None],
                             ids=["array", "list", "none"])
    def test_logic_that_is_not_a_control_logic_rejected(self, logic):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        message = f"^logic must be a ControlLogic, got {type(logic).__name__}$"
        with pytest.raises(ValueError, match=message):
            verify_logic(inst, logic)

    @pytest.mark.parametrize(
        "tolerances",
        [{"terminal_rtol": float("nan")}, {"terminal_rtol": 1.0}, {"zero_rtol": 1.0}],
    )
    def test_vacuous_tolerances_rejected(self, demo_instance, tolerances):
        # with any of these, the all-zero logic would pass as verified
        zero = ControlLogic(np.zeros((demo_instance.n, demo_instance.horizon)))
        assert not verify_logic(demo_instance, zero).verified
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            verify_logic(demo_instance, zero, **tolerances)


def wide_norm(x):
    """A state's 2-norm over the float range: the plain norm, or, where that
    overflows, the norm of x scaled by the power of two that brings its
    largest entry into [0.5, 1), scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = norm_left_to_right(x)
        if not np.isfinite(norm):
            e = np.frexp(np.abs(x).max())[1]
            norm = np.ldexp(norm_left_to_right(np.ldexp(x, -e)), e)
    return float(norm)


# Per-plant loops as the simulator ran them before plants were stacked by
# dimension; the batched kernels must reproduce them bit for bit.
def reference_rollout(p, xi, u, zero_rtol=ZERO_RTOL):
    out = np.empty((u.shape[0] + 1, p.d))
    out[0] = xi
    sup = max(1.0, wide_norm(xi))
    x = xi
    for t in range(u.shape[0]):
        x = step_left_to_right(p.A, x) + p.b * u[t]
        norm = wide_norm(x)
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
    trajectories = [
        reference_rollout(p, x0, zeroed.u[i], zero_rtol)
        for i, (p, x0) in enumerate(zip(inst.plants, inst.xi))
    ]
    state_norms = [[wide_norm(x) for x in traj] for traj in trajectories]
    residuals = [norms[-1] / max(1.0, max(norms)) for norms in state_norms]
    return trajectories, residuals, state_norms


def mixed_instance(rng, n, horizon):
    """Plants of dimensions 1-4 in shuffled order, unstable and reachable."""
    plants = tuple(
        random_reachable_plant(rng, int(rng.integers(1, 5)), unstable=True) for _ in range(n)
    )
    xi = tuple(rng.uniform(-1, 1, p.d) for p in plants)
    return NcsInstance(plants, xi, capacity=max(1, n // 4), horizon=horizon)


def assert_matches_reference(inst, logic):
    result = verify_logic(inst, logic)
    trajectories, residuals, state_norms = reference_simulate(inst, logic)
    for got, want in zip(replayed_states(inst, logic), trajectories, strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(result.terminal_residuals, residuals)
    assert result.norms.tolist() == state_norms
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
        logic = build_from_plan(inst, find_lane_plan(inst))
        result = assert_matches_reference(inst, logic)
        assert result.verified
        clamped = [traj for traj in replayed_states(inst, logic) if not traj[-1].any()]
        assert len(clamped) == inst.n

    def test_single_plant_rollout_is_a_stack_of_one(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 4):
            p = random_reachable_plant(rng, d, unstable=True)
            xi = rng.uniform(-1, 1, d)
            u = rng.uniform(-2, 2, 30)
            assert np.array_equal(rollout(p, xi, u), reference_rollout(p, xi, u))

    @pytest.mark.parametrize("xi", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
    def test_single_plant_rollout_checks_the_state_length(self, xi):
        # a 1-entry state would broadcast across both entries of a 2-d plant
        p = PlantDynamics(np.diag([2.0, 3.0]), [1.0, 1.0])
        with pytest.raises(ValueError, match="^initial state has wrong length$"):
            rollout(p, xi, np.zeros(4))

    @pytest.mark.parametrize("u, message", [
        # flattened, a 2 x 6 row would roll out 12 steps
        (np.zeros((2, 6)), "input row must be one-dimensional, got shape (2, 6)"),
        (0.0, "input row must be one-dimensional, got shape ()"),
        # a NaN input would read as an overflow at step 1
        (np.full(6, np.nan), "control logic entries must be finite"),
        ([0.0, np.inf, 0.0], "control logic entries must be finite"),
    ], ids=["matrix", "scalar", "nan", "inf"])
    def test_single_plant_rollout_checks_the_input_row(self, u, message):
        p = PlantDynamics(np.diag([2.0, 3.0]), [1.0, 1.0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rollout(p, [1.0, 1.0], u)

    def test_overflow_reports_the_first_plant_in_index_order(self):
        # a state overflows once an entry passes the largest float: plant 2 at
        # step 4 (1e400), plant 3 at step 2, and plant 2 is reported
        inst = scalar_instance([0.5, 1e100, 1e200, 2.0], capacity=1, horizon=4)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="at step 4"):
            reference_rollout(inst.plants[1], inst.xi[1], np.zeros(4))
        with pytest.raises(NonFiniteError, match="at step 4"):
            verify_logic(inst, ControlLogic(np.zeros((4, 4))))
        with pytest.raises(NonFiniteError, match="at step 2"):
            rollout(inst.plants[2], inst.xi[2], np.zeros(4))

    def test_initial_norm_past_the_float_range_overflows_at_step_0(self):
        # plant 1's entries are finite, but its initial norm is not. Against
        # that infinite sup the clamp would zero every later state and read a
        # residual of 0, so the overflow is flagged at step 0 instead.
        inst = huge_initial_norm_instance()
        zero = np.zeros((2, inst.horizon))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^state overflowed at step 0$"):
                verify_logic(inst, ControlLogic(zero))
            with pytest.raises(NonFiniteError, match="^state overflowed at step 0$"):
                rollout(inst.plants[0], inst.xi[0], zero[0])
            for g in inst.groups:
                _, _, overflow = assert_stack_matches_reference(g.A, g.b, g.xi, zero[g.idx])
                assert overflow.tolist() == ([-1] if g.idx[0] else [0])
                accepted = steers_to_zero(g.A, g.b, g.xi, zero[g.idx], ZERO_RTOL, TERMINAL_RTOL)
                assert not accepted.any()

    def test_norms_above_the_squared_range_stay_finite(self):
        # 1e160 squared overflows, but a state norm is taken over the float range
        inst = scalar_instance([2.0, 1.5, 1.5], capacity=1, horizon=6, states=[1e160, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = verify_logic(inst, ControlLogic(np.zeros((3, 6))))
        assert result.norms[0].tolist() == [1e160 * 2.0**t for t in range(7)]
        assert not result.verified

    def test_huge_decaying_state_left_alone_ends_away_from_zero(self):
        # 0.5^6 of 2e154 is 3.1e152, 2^-6 of the start: its zero row must fail,
        # although the plain squared norm of the start overflows
        inst = scalar_instance([0.5, 1.5, 1.5], capacity=1, horizon=6, states=[2e154, 1.0, 1.0])
        u = np.zeros((3, 6))
        u[1] = windowed_inputs(inst.plants[1], inst.xi[1], 0, 2, 6)
        u[2] = windowed_inputs(inst.plants[2], inst.xi[2], 2, 2, 6)
        result = verify_logic(inst, ControlLogic(u))
        assert result.norms[0, 0] == 2e154
        assert result.terminal_residuals.tolist() == [2.0**-6, 0.0, 0.0]
        assert result.violations == (
            "1 plants end away from zero (first few, 1-based: 1)",
        )
        # with every plant driven, the lane route verifies honestly
        report = solve_instance(inst, method="lane")
        assert report.verified and report.plan["open_loop"] == []
        assert np.asarray(report.control)[0].any()


# The full recursion, one plant at a time: every step is taken, an overflow is
# recorded rather than raised (its first step, step 0 included; -1 for none),
# and the clamp writes +0.0 states and norms.
def reference_full_rollout(A, b, xi, u, zero_rtol=ZERO_RTOL):
    states, norms = [xi], [wide_norm(xi)]
    sup, overflow, x = np.maximum(1.0, norms[0]), (-1 if np.isfinite(norms[0]) else 0), xi
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(u.shape[0]):
            x = step_left_to_right(A, x) + b * u[t]
            norm = wide_norm(x)
            if not np.isfinite(norm) and overflow < 0:
                overflow = t + 1
            sup = np.maximum(sup, norm)
            if norm <= zero_rtol * sup:
                x, norm = np.zeros_like(x), 0.0
            states.append(x)
            norms.append(norm)
    return np.array(states), np.array(norms), overflow


def assert_stack_matches_reference(A, b, xi, u, zero_rtol=ZERO_RTOL):
    states, norms, overflow = sim.rollout_stack(A, b, xi, u, zero_rtol)
    # the verifier's rollout keeps no states, and gives the same bits
    kept_none, residuals, overflow_seen = terminal_residuals(A, b, xi, u, zero_rtol)
    assert np.array_equal(kept_none, norms, equal_nan=True)
    assert np.array_equal(overflow_seen, overflow)
    for k in range(u.shape[0]):
        want_states, want_norms, want_overflow = reference_full_rollout(
            A[k], b[k], xi[k], u[k], zero_rtol
        )
        for got, want in ((states[k], want_states), (norms[k], want_norms)):
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert overflow[k] == want_overflow
        want_residual = want_norms[-1] / np.maximum(1.0, want_norms.max())
        assert np.array_equal(residuals[k], want_residual, equal_nan=True)
    return states, norms, overflow


def stacked(plants, states):
    return (np.array([p.A for p in plants]), np.array([p.b for p in plants]),
            np.array(states, dtype=float))


class TestLiveSetRolloutIsExact:
    """Every plant is stepped until each state is clamped with no input left in
    any row; every state, norm, residual, overflow step and zero's sign stays
    that of the full recursion, which steps to the horizon."""

    def test_row_steered_to_zero_then_driven_again_keeps_moving(self):
        rng = np.random.default_rng(11)
        plants = [random_reachable_plant(rng, d, unstable=True) for d in (2, 2, 2)]
        xi = [rng.uniform(-1, 1, 2) for _ in plants]
        u = np.array([windowed_inputs(p, x, 1, 3, 12) for p, x in zip(plants, xi)])
        u[0, 8] = 0.5  # zero at step 4, driven again at step 8
        u[1, 11] = -1e-3  # zero at step 4, driven again in the last slot
        states, _, _ = assert_stack_matches_reference(*stacked(plants, xi), u)
        assert not states[0, 4].any() and states[0, -1].any()
        assert not states[1, 4].any() and states[1, -1].any()
        assert not states[2, 4:].any()

    def test_stack_that_settles_early_stops_stepping(self, monkeypatch):
        rng = np.random.default_rng(12)
        plants = [random_reachable_plant(rng, 3, unstable=True) for _ in range(6)]
        xi = [rng.uniform(-1, 1, 3) for _ in plants]
        u = np.array([windowed_inputs(p, x, k, 4, 30) for k, (p, x) in enumerate(zip(plants, xi))])
        steps = count_rollout_steps(monkeypatch)
        states, norms, _ = assert_stack_matches_reference(*stacked(plants, xi), u)
        # the last window ends at step 9; the stack stops after it, in the
        # rollout that keeps states and in the verifier's
        assert len(steps) == 2 * 9 and 9 < u.shape[1]
        assert not states[:, 9:].any() and not norms[:, 9:].any()

    def test_overflows_are_flagged_whether_or_not_their_norm_clamps(self):
        # a state whose entry passes the largest float has an infinite norm;
        # the running sup turns infinite with it and the clamp zeroes the
        # state, while inf - inf gives a NaN state that never clamps
        A = np.array([[[1e100, 0.0], [0.0, 0.0]], [[1e300, 0.0], [0.0, 1.0]],
                      [[0.5, 0.0], [0.0, 0.5]]])
        b = np.array([[1.0, 0.0], [-1e300, 0.0], [1.0, 1.0]])
        xi = np.array([[1e50, 0.0], [1e10, 1.0], [1.0, -1.0]])
        u = np.zeros((3, 6))
        u[0, 4] = 1.0  # an input after the overflow is clamped against the infinite sup
        u[1, 0] = 1e10
        states, norms, overflow = assert_stack_matches_reference(A, b, xi, u)
        assert overflow.tolist() == [3, 1, -1]
        # 1e250 squared overflows, yet its norm is finite and it is no overflow
        assert norms[0, 2] == states[0, 2, 0] > 1e249
        assert not states[0, 3:].any() and not norms[0, 3:].any()
        assert np.isnan(norms[1, 1:]).all()

    def test_all_zero_rows_retire_at_their_first_clamp(self):
        rng = np.random.default_rng(13)
        inst = mixed_instance(rng, 12, 40)
        plants = [PlantDynamics(np.diag(np.full(p.d, 0.3)), p.b) for p in inst.plants[:6]]
        plants += list(inst.plants[6:])
        decaying = NcsInstance(tuple(plants), inst.xi, capacity=3, horizon=40)
        for g in decaying.groups:
            zero = np.zeros((len(g.idx), decaying.horizon))
            assert_stack_matches_reference(g.A, g.b, g.xi, zero)

    def test_open_loop_scan_applies_the_verifiers_zero_rule(self):
        # decaying, nilpotent-like and unstable plants with states from 1e-300
        # to 1e300: the scan sets a plant aside exactly when steers_to_zero
        # accepts its all-zero row, at the step of the verifier's first clamp,
        # or at the horizon when only the terminal test accepts it
        rng = np.random.default_rng(21)
        seen = np.zeros(3, dtype=int)  # clamped, terminal only, rejected
        for _ in range(200):
            d, n, horizon = int(rng.integers(1, 4)), 8, int(rng.integers(2, 61))
            A, kind = rng.uniform(-1, 1, (n, d, d)), int(rng.integers(3))
            if kind == 1:  # nilpotent up to a tiny diagonal
                A = np.triu(A, 1) + np.eye(d) * rng.uniform(-1e-3, 1e-3, (n, 1, 1))
            else:  # spectral radius below 1, or from 1 to 1.6
                radius = np.maximum(np.abs(np.linalg.eigvals(A)).max(axis=1), 1e-12)
                target = rng.uniform(0.05, 0.95, n) if kind == 0 else rng.uniform(1.0, 1.6, n)
                A *= (target / radius)[:, None, None]
            b = rng.uniform(-1, 1, (n, d))
            xi = rng.uniform(-1, 1, (n, d)) * 10.0 ** rng.uniform(-300, 300, (n, 1))
            zero = np.zeros((n, horizon))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = open_loop_hit_times(A, xi, horizon)
                accepted = steers_to_zero(A, b, xi, zero, ZERO_RTOL, TERMINAL_RTOL)
                norms, _, _ = terminal_residuals(A, b, xi, zero)
            clamped = (norms[:, 1:] == 0).any(axis=1)
            first_clamp = (norms[:, 1:] == 0).argmax(axis=1) + 1
            want = np.where(accepted, np.where(clamped, first_clamp, horizon), 0)
            assert np.array_equal(got, want)
            seen += [np.count_nonzero(accepted & clamped),
                     np.count_nonzero(accepted & ~clamped), np.count_nonzero(~accepted)]
        assert (seen > 20).all()
        # a nilpotent transient that passes the largest float at step 1 from
        # 1e300, but not from 1e290, before it vanishes at step 2
        A, xi = np.array([[[0.0, 1e10], [0.0, 0.0]]] * 2), np.array([[0.0, 1e300], [0.0, 1e290]])
        assert open_loop_hit_times(A, xi, 4).tolist() == [0, 2]
        zero = np.zeros((2, 4))
        accepted = steers_to_zero(A, np.ones_like(xi), xi, zero, ZERO_RTOL, TERMINAL_RTOL)
        assert accepted.tolist() == [False, True]
        # 3e-9 at step 1 is within 1e-9 of step 2's 3e3, but not of the sup
        # so far (the floor of 1): no clamp, and the state keeps growing
        A, xi = np.array([[[0.0, 1e12], [3e-9, 0.0]]]), np.array([[1.0, 0.0]])
        assert open_loop_hit_times(A, xi, 4).tolist() == [0]
        assert not steers_to_zero(A, xi, xi, np.zeros((1, 4)), ZERO_RTOL, TERMINAL_RTOL)[0]

    def test_wide_states_sum_left_to_right_in_every_stack(self):
        # from 8 entries on, numpy sums a contiguous axis pairwise; the scan,
        # the verifier and their stacks of one must still agree bit for bit
        rng = np.random.default_rng(22)
        for d in (8, 9, 12):
            n, horizon = 40, 30
            A = rng.uniform(-1, 1, (n, d, d))
            radius = np.abs(np.linalg.eigvals(A)).max(axis=1)
            A *= (rng.uniform(0.1, 1.3, n) / radius)[:, None, None]
            b = rng.uniform(-1, 1, (n, d))
            xi = rng.uniform(-1, 1, (n, d))
            u = rng.uniform(-1, 1, (n, horizon)) * (rng.uniform(size=(n, horizon)) < 0.2)
            u[: n // 2] = 0.0  # half the stack has no input at all
            assert_stack_matches_reference(A, b, xi, u)
            zero = np.zeros((n, horizon))
            got = open_loop_hit_times(A, xi, horizon)
            norms, _, _ = terminal_residuals(A, b, xi, zero)
            accepted = steers_to_zero(A, b, xi, zero, ZERO_RTOL, TERMINAL_RTOL)
            clamped = (norms[:, 1:] == 0).any(axis=1)
            first_clamp = (norms[:, 1:] == 0).argmax(axis=1) + 1
            assert np.array_equal(got, np.where(accepted, np.where(clamped, first_clamp, horizon), 0))
            assert 0 < np.count_nonzero(got) < n
            for k in range(0, n, 7):
                one = slice(k, k + 1)
                assert open_loop_hit_times(A[one], xi[one], horizon)[0] == got[k]
                states, one_norms, _ = sim.rollout_stack(A[one], b[one], xi[one], u[one])
                assert np.array_equal(one_norms[0], terminal_residuals(A, b, xi, u)[0][k])
                assert np.array_equal(states[0], reference_full_rollout(A[k], b[k], xi[k], u[k])[0])

    def test_brute_force_shaped_stacks(self):
        # many rows per plant, one per slot mask, as brute force's mask table
        rng = np.random.default_rng(14)
        for d in (1, 2, 3):
            plants = [random_reachable_plant(rng, d, unstable=True) for _ in range(3)]
            xi = [rng.uniform(-1, 1, d) for _ in plants]
            A, b, x0 = (np.repeat(a, 32, axis=0) for a in stacked(plants, xi))
            bits = np.arange(32)[:, None] >> np.arange(5) & 1
            u = np.tile(bits, (3, 1)) * rng.uniform(-3, 3, (96, 5))
            for k in range(3):
                u[32 * k + 31] = windowed_inputs(plants[k], xi[k], 0, 5, 5)
            assert_stack_matches_reference(A, b, x0, u)

    def test_single_plant_rollout(self):
        rng = np.random.default_rng(15)
        for d in (1, 2, 3, 4):
            p = random_reachable_plant(rng, d, unstable=True)
            xi = rng.uniform(-1, 1, d)
            for u in (windowed_inputs(p, xi, 2, d + 2, 20), rng.uniform(-2, 2, 20)):
                got = rollout(p, xi, u)
                want = reference_full_rollout(p.A, p.b, xi, u)[0]
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def count_rollout_steps(monkeypatch) -> list[int]:
    """From now on, list the number of plants each rollout kernel step advances."""
    advanced = []

    def counted(cols, v, work, out):
        advanced.append(v.shape[-1])
        return column_step(cols, v, work, out)

    monkeypatch.setattr(sim, "column_step", counted)
    return advanced


def test_verification_steps_each_group_to_its_last_input(demo_instance, monkeypatch):
    """A guard on the work, not the time: verifying the demo's lane solve steps
    each dimension group once per slot up to its last nonzero input, every call
    advancing the whole group (every plant sits at exact zero after its
    deadbeat window), and takes no product through core's stacked ``matvec``."""
    logic = ControlLogic(solve_instance(demo_instance, method="lane").control)
    advanced = count_rollout_steps(monkeypatch)
    products, matvec = [], core.matvec

    def counted(*args):
        products.append(1)
        return matvec(*args)

    monkeypatch.setattr(core, "matvec", counted)
    # and under the name sim would call it by, were it imported there
    monkeypatch.setattr(sim, "matvec", counted, raising=False)
    result = verify_logic(demo_instance, logic)
    assert result.verified
    groups = demo_instance.groups
    # each group's calls: its last slot with a nonzero input, plus one
    calls = [int(np.flatnonzero(result.control.u[g.idx].any(axis=0))[-1]) + 1 for g in groups]
    assert calls == [15, 35]
    assert advanced == [g.idx.size for g, k in zip(groups, calls) for _ in range(k)]
    assert sum(advanced) == 2500
    assert not products


class TestThresholdOnce:
    def test_thresholded_logic_is_its_own_threshold(self, demo_instance):
        logic = ControlLogic(solve_instance(demo_instance).control * 1.0)
        rng = np.random.default_rng(16)
        noisy = ControlLogic(logic.u + (logic.u == 0) * rng.uniform(-1e-12, 1e-12, logic.u.shape))
        for r in (ZERO_RTOL, 1e-6):
            z = noisy.thresholded(r)
            assert np.array_equal(z.thresholded(r).u, z.u)
            assert np.array_equal(z.u, np.where(nonzero_entries(noisy.u, r), noisy.u, 0.0))
            results = [
                verify_logic(demo_instance, given, zero_rtol=r)
                for given in (noisy, z, ControlLogic(z.u))
            ]
            for other in results[1:]:
                assert other.verified == results[0].verified
                assert np.array_equal(other.norms, results[0].norms)
                assert np.array_equal(other.terminal_residuals, results[0].terminal_residuals)
            # each result carries the rows it judged, whose nonzero pattern
            # is the given logic's nonzero entries
            for result in results:
                assert np.array_equal(result.control.u, z.u)
                assert np.array_equal(result.control.u != 0, nonzero_entries(noisy.u, r))
