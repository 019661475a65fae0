import json
import math

import numpy as np
import pytest

from ncsched import (
    PlantDynamics,
    RejectionBudgetError,
    SchemaError,
    SolveReport,
    generate_instance,
    is_reachable,
    open_loop_hit_time,
    read_instance,
    solve_instance,
    spectral_radius,
    write_instance,
)
from ncsched.instances import (
    REJECTION_BUDGET,
    SPECTRAL_RADIUS_MIN,
    dump_json,
    instance_from_dict,
    instance_to_dict,
)
from ncsched.report import report_to_dict

from conftest import one_burst_instance, scalar_instance

# the four benchmark families (perfbench/workloads.py) and interleaved
# dimensions, where every run of equal dimensions has length one or two
FAMILIES = {
    "paper-demo": ((2,) * 50 + (3,) * 50, 10, 50),
    "scale-4000": ((2,) * 2000 + (3,) * 2000, 400, 50),
    "relax-tight": ((2,) * 5 + (3,) * 5, 2, 12),
    "desk-cascade": ((1, 2, 3, 4), 2, 5),
    "interleaved": ((3, 1, 2, 2, 4, 1, 1, 3), 2, 10),
}


def sequential_draws(rng, dims, value_range, max_draws=REJECTION_BUDGET):
    """Reference: the rejection loop drawing and checking one candidate at a time."""
    plants = []
    for i, d in enumerate(dims):
        for _ in range(max_draws):
            A = rng.uniform(-value_range, value_range, (d, d))
            b = rng.uniform(-value_range, value_range, d)
            p = PlantDynamics(A, b)
            if spectral_radius(A) > SPECTRAL_RADIUS_MIN and is_reachable(p):
                plants.append(p)
                break
        else:
            raise RejectionBudgetError(
                f"plant {i + 1}: no unstable reachable draw in {max_draws} tries"
            )
    xi = []
    for d in dims:
        x = rng.uniform(-1.0, 1.0, d)
        while not x.any():
            x = rng.uniform(-1.0, 1.0, d)
        xi.append(x)
    return plants, xi


def assert_same_draws(rec, plants, xi):
    assert len(rec.instance.plants) == len(plants)
    for p, q in zip(rec.instance.plants, plants):
        assert p.A.tobytes() == q.A.tobytes()
        assert p.b.tobytes() == q.b.tobytes()
    for x, y in zip(rec.instance.xi, xi, strict=True):
        assert x.tobytes() == y.tobytes()


class TestGenerateInstance:
    def test_deterministic_for_fixed_seed(self):
        a = generate_instance(4, 2, 9, [1, 2, 2, 3], seed=7)
        b = generate_instance(4, 2, 9, [1, 2, 2, 3], seed=7)
        assert dump_json(instance_to_dict(a)) == dump_json(instance_to_dict(b))

    def test_different_seed_differs(self):
        a = generate_instance(4, 2, 9, [1, 2, 2, 3], seed=7)
        b = generate_instance(4, 2, 9, [1, 2, 2, 3], seed=8)
        assert dump_json(instance_to_dict(a)) != dump_json(instance_to_dict(b))

    def test_plants_unstable_and_reachable(self):
        rec = generate_instance(6, 2, 12, [2, 2, 2, 3, 3, 3], seed=3)
        for p, x in zip(rec.instance.plants, rec.instance.xi):
            assert spectral_radius(p.A) > 1.0
            assert is_reachable(p)
            assert np.abs(x).max() <= 1.0
            assert x.any()

    def test_capacity_must_be_below_plant_count(self):
        with pytest.raises(ValueError):
            generate_instance(2, 2, 5, [1, 1], seed=0)

    def test_dims_length_checked(self):
        with pytest.raises(ValueError):
            generate_instance(3, 1, 5, [1, 1], seed=0)

    def test_dims_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_instance(3, 1, 5, [1, 0, 2], seed=0)

    @pytest.mark.parametrize("value_range", [math.inf, math.nan, 1e308])
    def test_range_must_be_finite_with_a_finite_double(self, value_range):
        # uniform(-r, r) draws r - (-r), which overflows at 1e308
        with pytest.raises(ValueError, match=r"value range must be positive with 2 \* range finite"):
            generate_instance(3, 1, 5, [1, 1, 2], value_range=value_range, seed=0)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_sequential_loop(self, family):
        dims, capacity, horizon = FAMILIES[family]
        for seed in range(12345, 12365):
            rec = generate_instance(len(dims), capacity, horizon, list(dims), seed=seed)
            plants, xi = sequential_draws(np.random.default_rng(seed), dims, 2.0)
            assert_same_draws(rec, plants, xi)

    def test_budget_error_names_same_plant(self):
        # entries within +-0.8 can make a 2-D plant unstable but never a 1-D one
        dims = (2, 2, 1)
        with pytest.raises(RejectionBudgetError) as want:
            sequential_draws(np.random.default_rng(5), dims, 0.8, max_draws=500)
        with pytest.raises(RejectionBudgetError) as got:
            generate_instance(3, 1, 5, list(dims), value_range=0.8, seed=5, max_draws=500)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("plant 3: ")

    def test_budget_counts_since_previous_acceptance(self):
        # 1-D draws on +-1.05 pass with probability 0.05, so a budget of 20
        # runs out partway through a run on some seeds and not on others
        dims = (1, 1, 1, 1, 2, 2)
        failed_at = set()
        for seed in range(40):
            try:
                want = sequential_draws(np.random.default_rng(seed), dims, 1.05, max_draws=20)
            except RejectionBudgetError as exc:
                with pytest.raises(RejectionBudgetError) as got:
                    generate_instance(6, 2, 5, list(dims), value_range=1.05, seed=seed, max_draws=20)
                assert str(got.value) == str(exc)
                failed_at.add(str(exc).split(":")[0])
                continue
            rec = generate_instance(6, 2, 5, list(dims), value_range=1.05, seed=seed, max_draws=20)
            assert_same_draws(rec, *want)
        assert len(failed_at) > 1

    def test_zero_initial_state_redrawn_in_order(self, monkeypatch):
        # a generator that rounds small state entries to exact zeros, so
        # 1-D states often come out zero and must be redrawn one at a time
        class ZeroingGenerator(np.random.Generator):
            def uniform(self, low=0.0, high=1.0, size=None):
                out = super().uniform(low, high, size)
                if low == -1.0:
                    out[np.abs(out) < 0.4] = 0.0
                return out

        dims = (1, 1, 2, 1, 3)
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: ZeroingGenerator(np.random.PCG64(seed))
        )
        for seed in range(10):
            rec = generate_instance(5, 2, 8, list(dims), seed=seed)
            plants, xi = sequential_draws(np.random.default_rng(seed), dims, 2.0)
            assert_same_draws(rec, plants, xi)
            assert all(x.any() for x in rec.instance.xi)


class TestInstanceFiles:
    def test_round_trip_is_byte_identical(self, tmp_path):
        rec = generate_instance(5, 2, 10, [1, 2, 2, 3, 3], seed=11)
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_instance(path_a, rec)
        write_instance(path_b, read_instance(path_a))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_round_trip_preserves_values(self, tmp_path):
        rec = generate_instance(3, 1, 8, [1, 2, 3], seed=2)
        path = tmp_path / "inst.json"
        write_instance(path, rec)
        back = read_instance(path)
        assert back.seed == rec.seed
        assert back.provenance == rec.provenance
        for p, q in zip(rec.instance.plants, back.instance.plants):
            np.testing.assert_array_equal(p.A, q.A)
            np.testing.assert_array_equal(p.b, q.b)
        for x, y in zip(rec.instance.xi, back.instance.xi):
            np.testing.assert_array_equal(x, y)

    def test_rejects_bad_schema_version(self):
        rec = generate_instance(3, 1, 8, [1, 1, 1], seed=2)
        data = instance_to_dict(rec)
        data["schema_version"] = 99
        with pytest.raises(SchemaError):
            instance_from_dict(data)

    def test_rejects_shape_mismatch(self):
        rec = generate_instance(3, 1, 8, [1, 1, 1], seed=2)
        data = instance_to_dict(rec)
        data["plants"][0]["A"] = [1.0, 2.0]
        with pytest.raises(SchemaError):
            instance_from_dict(data)

    def test_rejects_missing_key(self):
        with pytest.raises(SchemaError):
            instance_from_dict({"schema_version": 1})

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_instance(path)

    def test_generated_plants_rarely_zero_open_loop(self):
        # unstable draws keep every plant away from open-loop annihilation
        rec = generate_instance(8, 2, 20, [2] * 4 + [3] * 4, seed=5)
        for p, x in zip(rec.instance.plants, rec.instance.xi):
            assert open_loop_hit_time(p, x, rec.instance.horizon) is None


def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestDumpJson:
    """``dump_json`` writes exactly the bytes of indented, key-sorted ``json.dumps``."""

    @pytest.mark.parametrize("method", ["lane", "block"])
    def test_plan_reports(self, demo_instance, method):
        data = report_to_dict(solve_instance(demo_instance, method=method))
        assert dump_json(data) == json_dumps(data)

    def test_relaxation_report(self):
        # rip rows mix ints, a float and a bool: [plant, order, delta, certified]
        rep = solve_instance(one_burst_instance(), method="relax")
        data = report_to_dict(rep)
        assert any(isinstance(row[3], bool) for row in data["plan"]["rip"])
        assert dump_json(data) == json_dumps(data)

    def test_bruteforce_report(self):
        rep = solve_instance(scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=3))
        assert rep.method == "bruteforce"
        data = report_to_dict(rep)
        assert dump_json(data) == json_dumps(data)

    def test_no_solution_report(self):
        data = report_to_dict(SolveReport(
            method=None, plan=None, schedule=[], control=None, verified=False,
            residuals=[], occupancy_histogram=[], state_norms=None,
            diagnostics=["lane-plan: no lane packing found"],
        ))
        assert dump_json(data) == json_dumps(data)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_instance_files(self, family):
        dims, capacity, horizon = FAMILIES[family]
        data = instance_to_dict(generate_instance(len(dims), capacity, horizon, list(dims)))
        assert dump_json(data) == json_dumps(data)

    @pytest.mark.parametrize("value", [
        [math.nan, 1.0],
        [math.inf, -math.inf, 2.5],
        [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 0.1],
        [10**40, -(10**40), 0, -1],
        [np.float64(1.5), 2.0, np.float64(-0.0)],
        [np.float64(np.nan), np.float64(-np.inf)],
        [1, True, 2],
        [True, False],
        [1.0, 2, 3.5],
        [False, 0.5],
        [],
        [[], {}, [[]], {"a": {}}, [{}]],
        (1, 2.5, "x", (3, 4), ()),
        ["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\"\\/", ""],
        {"\u00e9": 1, "a\nb": [None], "": False, "z": {"y": [1.5, None]}},
        [None, None],
        math.nan,
        -math.inf,
        np.float64(3.0),
        "text",
        None,
    ])
    def test_edge_cases(self, value):
        data = {"value": value, "nested": [value, {"inner": value}]}
        assert dump_json(data) == json_dumps(data)
        assert dump_json(value) == json_dumps(value)

    @pytest.mark.parametrize("value", [{1: "a"}, {"a": 1, 2: "b"}, {None: 0}, {2.5: 0}])
    def test_non_str_key_raises(self, value):
        with pytest.raises(TypeError):
            dump_json({"outer": value})

    @pytest.mark.parametrize("value", [np.int64(3), [np.int64(3)], np.bool_(True), {1, 2}, object()])
    def test_unserializable_raises(self, value):
        with pytest.raises(TypeError):
            json_dumps(value)
        with pytest.raises(TypeError):
            dump_json({"value": value})
