import numpy as np
import pytest

from ncsched import (
    ControlLogic,
    NcsInstance,
    NoSolutionFoundError,
    PlantDynamics,
    generate_instance,
    solve_instance,
    verify_logic,
)

from conftest import companion_plant, scalar_instance


class TestSolveCascade:
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

    def test_exhaustive_flag(self, mixed_dims_instance):
        report = solve_instance(mixed_dims_instance, method="lane", exhaustive=True)
        assert report.verified
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(mixed_dims_instance, method="block", exhaustive=True)
        assert "not a proof" not in str(err.value)

    def test_report_replays_from_control_matrix(self):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=2, horizon=4)
        report = solve_instance(inst)
        logic = ControlLogic(np.asarray(report.control))
        assert verify_logic(inst, logic).verified

    def test_occupancy_histogram_accounts_every_slot(self, mixed_dims_instance):
        report = solve_instance(mixed_dims_instance)
        assert sum(c for _, c in report.occupancy_histogram) == 7
        assert max(occ for occ, _ in report.occupancy_histogram) <= 2

    def test_rejects_unknown_method(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=4)
        with pytest.raises(ValueError):
            solve_instance(inst, method="magic")

    def test_overflow_in_verification_fails_only_that_route(self):
        # the block plan coasts 2-d plants so long that verification overflows
        inst = generate_instance(
            200, 2, 400, [2] * 100 + [3] * 100, value_range=2.0, seed=7
        ).instance
        with pytest.raises(NoSolutionFoundError) as err:
            solve_instance(inst, method="block")
        assert err.value.code == "routes_exhausted"
        assert "block-plan: state overflowed at step 319" in err.value.reasons

    def test_zero_rtol_reaches_the_open_loop_scan(self):
        # plant 1 drops below 1e-5 of its start at step 3, below 1e-9 only at 5
        inst = scalar_instance([0.01, 2.0, 3.0], capacity=1, horizon=4)
        with pytest.raises(NoSolutionFoundError):
            solve_instance(inst, method="lane")
        report = solve_instance(inst, method="lane", zero_rtol=1e-5)
        assert report.plan["open_loop"] == [1]
