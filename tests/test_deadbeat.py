import numpy as np
import pytest

from ncsched import (
    IllConditionedWarning,
    NonFiniteError,
    NotReachableError,
    PlantDynamics,
    WindowOverflowError,
    rollout,
    windowed_inputs,
)

from conftest import random_reachable_plant


def terminal_relative_residual(p, xi, u):
    traj = rollout(p, xi, u)
    norms = np.linalg.norm(traj, axis=1)
    return norms[-1] / max(1.0, norms.max())


class TestDeadbeatInputs:
    @pytest.mark.parametrize("horizon, message", [
        (0, "horizon must be positive"),
        (-1, "horizon must be positive"),
        (4.5, "horizon must be an integer, got 4.5"),
        (4.0, "horizon must be an integer, got 4.0"),
    ])
    def test_horizon_checked_as_an_instance_checks_it(self, horizon, message):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            windowed_inputs(p, [1.0], 0, 2, horizon)
        np.testing.assert_array_equal(windowed_inputs(p, [1.0], 0, 2, np.int64(4)),
                                      windowed_inputs(p, [1.0], 0, 2, 4))

    @pytest.mark.parametrize("offset, width, message", [
        (0.5, 3, "offset must be an integer, got 0.5"),
        (0, 3.0, "width must be an integer, got 3.0"),
        (0, True, "width must be an integer, got True"),
    ])
    def test_window_checked_for_integers(self, offset, width, message):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            windowed_inputs(p, [1.0], offset, width, 5)
        np.testing.assert_array_equal(windowed_inputs(p, [1.0], np.int64(1), np.int32(3), 5),
                                      windowed_inputs(p, [1.0], 1, 3, 5))

    def test_scalar_window(self):
        p = PlantDynamics([[2.0]], [1.0])
        np.testing.assert_allclose(windowed_inputs(p, [1.0], 0, 2, 2), [0.0, -4.0])

    def test_jordan_window(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        u = windowed_inputs(p, [1.0, 0.0], 0, 3, 3)
        np.testing.assert_allclose(u, [0.0, -1.0, 1.0])
        assert terminal_relative_residual(p, [1.0, 0.0], u) <= 1e-6

    def test_zero_state_gives_zero_window(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        np.testing.assert_array_equal(windowed_inputs(p, [0.0, 0.0], 0, 3, 3), np.zeros(3))

    def test_rejects_window_not_longer_than_dimension(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        with pytest.raises(ValueError):
            windowed_inputs(p, [1.0, 0.0], 0, 2, 2)

    def test_not_reachable_raises(self):
        p = PlantDynamics([[1, 0], [0, 1]], [1, 0])
        with pytest.raises(NotReachableError):
            windowed_inputs(p, [1.0, 1.0], 0, 3, 3)

    def test_ill_conditioned_warns_but_returns(self):
        p = PlantDynamics([[1.0, 0.0], [0.0, 2.0]], [1.0, 1e-13])
        with pytest.warns(IllConditionedWarning):
            u = windowed_inputs(p, [1.0, 1.0], 0, 3, 3)
        assert u.shape == (3,)

    def test_zero_prefix_structure(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            p = random_reachable_plant(rng, d)
            width = d + int(rng.integers(1, 4))
            u = windowed_inputs(p, rng.uniform(-1, 1, d), 0, width, width)
            np.testing.assert_array_equal(u[: width - d], np.zeros(width - d))


class TestWindowedInputs:
    def test_scalar_offset_window(self):
        p = PlantDynamics([[2.0]], [1.0])
        np.testing.assert_allclose(
            windowed_inputs(p, [1.0], 1, 2, 4), [0.0, 0.0, -8.0, 0.0]
        )

    def test_zero_offset_is_padded_deadbeat(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        xi = [0.3, -0.7]
        row = windowed_inputs(p, xi, 0, 3, 6)
        np.testing.assert_allclose(row[:3], windowed_inputs(p, xi, 0, 3, 3))
        np.testing.assert_array_equal(row[3:], np.zeros(3))

    def test_jordan_offset_window(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        np.testing.assert_allclose(
            windowed_inputs(p, [1.0, 0.0], 2, 3, 5), [0.0, 0.0, 0.0, -1.0, 1.0]
        )

    def test_rejects_state_of_wrong_length(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        with pytest.raises(ValueError, match="state has wrong length"):
            windowed_inputs(p, [1.0], 0, 3, 5)

    def test_overflow_raises(self):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(WindowOverflowError):
            windowed_inputs(p, [1.0], 3, 2, 4)

    def test_overflowing_burst_raises(self):
        # A^2 x = 4 is finite, but the burst 4 / b is not
        p = PlantDynamics([[2.0]], [1e-308])
        with pytest.raises(NonFiniteError, match="deadbeat burst overflowed"):
            windowed_inputs(p, [1.0], 0, 2, 2)

    @pytest.mark.parametrize("offset, width", [(3, 2), (0, 3)], ids=["coast", "steer"])
    def test_overflowing_power_raises(self, offset, width):
        # 1e200 squared overflows before the burst: while coasting, or in the
        # zeros of a width-3 window
        p = PlantDynamics([[1e200]], [1.0])
        window = rf"\[{offset}, {offset + width}\)"
        message = f"^open-loop state overflowed before the burst of window {window}$"
        with pytest.raises(NonFiniteError, match=message):
            windowed_inputs(p, [1.0], offset, width, 5)

    def test_small_state_is_stepped_at_its_own_scale(self):
        # the window-end state 1e308 is finite, but not 2^33 times it, which
        # scaling the state 1e-10 up to [0.5, 1) would step
        p = PlantDynamics([[1e159]], [1.0])
        row = windowed_inputs(p, [1e-10], 0, 2, 2)
        assert np.isfinite(row).all() and row[1] < -1e307

    def test_state_overflowing_inside_the_burst_overflows_the_burst(self):
        # the state is 1e200 when the burst begins and 1e400 at the window's end
        p = PlantDynamics([[1e200]], [1.0])
        with pytest.raises(NonFiniteError, match="^deadbeat burst overflowed$"):
            windowed_inputs(p, [1.0], 0, 2, 5)

    def test_shift_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            p = random_reachable_plant(rng, d)
            xi = rng.uniform(-1, 1, d)
            width = d + int(rng.integers(1, 4))
            offset = int(rng.integers(0, 6))
            horizon = offset + width + int(rng.integers(0, 4))
            row = windowed_inputs(p, xi, offset, width, horizon)
            shifted = np.linalg.matrix_power(p.A, offset) @ xi
            window = windowed_inputs(p, shifted, 0, width, width)
            np.testing.assert_array_equal(row[:offset], np.zeros(offset))
            np.testing.assert_allclose(row[offset : offset + width], window)
            np.testing.assert_array_equal(
                row[offset + width :], np.zeros(horizon - offset - width)
            )

    def test_deadbeat_correctness_suite(self):
        # forward-simulation oracle over random plants, widths, and offsets
        rng = np.random.default_rng(31)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            p = random_reachable_plant(rng, d)
            xi = rng.uniform(-1, 1, d)
            width = d + int(rng.integers(1, 4))
            offset = int(rng.integers(0, 8))
            horizon = offset + width + int(rng.integers(0, 4))
            row = windowed_inputs(p, xi, offset, width, horizon)
            assert terminal_relative_residual(p, xi, row) <= 1e-6
