import json
import math
import re
import warnings

import numpy as np
import pytest

import ncsched.instances
from ncsched import (
    NcsInstance,
    PlantDynamics,
    RejectionBudgetError,
    SchemaError,
    SolveReport,
    generate_instance,
    open_loop_hit_time,
    read_instance,
    read_report,
    solve_instance,
    write_instance,
    write_report,
)
from ncsched.instances import (
    CERTIFICATE_MIN_BLOCK,
    REJECTION_BUDGET,
    SPECTRAL_RADIUS_MIN,
    _unstable,
    dump_json,
    instance_from_dict,
    instance_to_dict,
)
from ncsched.report import report_to_dict

from conftest import count_factorizations, is_reachable, one_burst_instance, scalar_instance

# the four benchmark families (perfbench/workloads.py) and interleaved
# dimensions, where every run of equal dimensions has length one or two
FAMILIES = {
    "paper-demo": ((2,) * 50 + (3,) * 50, 10, 50),
    "scale-4000": ((2,) * 2000 + (3,) * 2000, 400, 50),
    "relax-tight": ((2,) * 5 + (3,) * 5, 2, 12),
    "desk-cascade": ((1, 2, 3, 4), 2, 5),
    "interleaved": ((3, 1, 2, 2, 4, 1, 1, 3), 2, 10),
}


def spectral_radius(A):
    return np.abs(np.linalg.eigvals(A)).max()


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

    @pytest.mark.parametrize("capacity, horizon, message", [
        (400, 0, "horizon must be positive"),
        (2.5, 50, "capacity must be an integer, got 2.5"),
        (True, 50, "capacity must be an integer, got True"),
        (4000, 50, "capacity must satisfy 0 < M < N, got M=4000, N=4000"),
    ], ids=["horizon-0", "capacity-float", "capacity-bool", "capacity-N"])
    def test_sizes_checked_before_any_draw(self, monkeypatch, capacity, horizon, message):
        def no_draws(*args):
            raise AssertionError("drew plants for sizes that no instance accepts")

        monkeypatch.setattr(ncsched.instances, "_draw_plants", no_draws)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_instance(4000, capacity, horizon, [2] * 2000 + [3] * 2000, seed=0)

    @pytest.mark.parametrize("n, dims, seed, message", [
        (3, [2, 2.5, 3], 0, "the dimension of plant 2 must be an integer, got 2.5"),
        (3, [2, 2.0, 3], 0, "the dimension of plant 2 must be an integer, got 2.0"),
        (3, [True, 2, 3], 0, "the dimension of plant 1 must be an integer, got True"),
        (3, [2, 2, 3], -1, "seed must be a non-negative integer, got -1"),
        (3, [2, 2, 3], 1.5, "seed must be an integer, got 1.5"),
        (3.0, [1, 2, 2], 1, "n must be an integer, got 3.0"),
    ], ids=["dim-float", "dim-integral-float", "dim-bool", "seed-negative", "seed-float",
            "n-float"])
    def test_dims_and_seed_checked_before_any_draw(self, monkeypatch, n, dims, seed, message):
        def no_draws(*args):
            raise AssertionError("drew plants for dimensions or a seed that are refused")

        monkeypatch.setattr(ncsched.instances, "_draw_plants", no_draws)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_instance(n, 1, 5, dims, seed=seed)

    def test_numpy_integer_dims_and_seed_accepted(self):
        want = generate_instance(3, 1, 5, [1, 2, 2], seed=3)
        got = generate_instance(3, 1, 5, list(np.array([1, 2, 2])), seed=np.int64(3))
        assert got.seed == 3 and got.provenance == want.provenance
        for a, b in zip(got.instance.groups, want.instance.groups, strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

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

    @pytest.mark.parametrize("value_range", ["2", None, 1j, True])
    def test_range_must_be_a_real_number(self, value_range):
        # compared with 0, a string, None or a complex number raises TypeError
        message = f"^value range must be a real number, got {re.escape(repr(value_range))}$"
        with pytest.raises(ValueError, match=message):
            generate_instance(3, 1, 5, [1, 1, 2], value_range=value_range, seed=0)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_sequential_loop(self, family):
        dims, capacity, horizon = FAMILIES[family]
        for seed in range(12345, 12365):
            rec = generate_instance(len(dims), capacity, horizon, list(dims), seed=seed)
            plants, xi = sequential_draws(np.random.default_rng(seed), dims, 2.0)
            assert_same_draws(rec, plants, xi)

    @pytest.mark.parametrize("dims, value_range", [
        # 1-D draws on +-1.05 pass with probability about 0.05
        ((1,) * 12 + (2,) + (1,) * 3, 1.05),
        # on +-1e6 essentially every draw passes; two runs of 1-D plants
        # share one group
        ((1,) * 30 + (2,) * 30 + (1,) * 5 + (3,) * 20, 1e6),
    ], ids=["low-acceptance", "full-acceptance"])
    def test_matches_sequential_loop_at_any_acceptance(self, dims, value_range):
        for seed in range(20):
            rec = generate_instance(
                len(dims), 2, 10, list(dims), value_range=value_range, seed=seed
            )
            plants, xi = sequential_draws(np.random.default_rng(seed), dims, value_range)
            assert_same_draws(rec, plants, xi)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_groups_match_the_constructor(self, family):
        # the generator stacks its accepted draws itself and keeps the
        # controllability facts it computed while drawing them
        dims, capacity, horizon = FAMILIES[family]
        for seed in range(12345, 12348):
            inst = generate_instance(len(dims), capacity, horizon, list(dims), seed=seed).instance
            rebuilt = NcsInstance(inst.plants, inst.xi, capacity, horizon)
            for got, want in zip(inst.groups, rebuilt.groups, strict=True):
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    assert not a.flags.writeable
            assert all(not (p.A.flags.writeable or p.b.flags.writeable) for p in inst.plants)
            assert all(not x.flags.writeable for x in inst.xi)
            assert [p.d for p in inst.plants] == list(dims)

    def test_budget_error_names_same_plant(self, monkeypatch):
        # entries within +-0.8 can make a 2-D plant unstable but never a 1-D one
        dims = (2, 2, 1)
        monkeypatch.setattr(ncsched.instances, "REJECTION_BUDGET", 500)
        with pytest.raises(RejectionBudgetError) as want:
            sequential_draws(np.random.default_rng(5), dims, 0.8, max_draws=500)
        with pytest.raises(RejectionBudgetError) as got:
            generate_instance(3, 1, 5, list(dims), value_range=0.8, seed=5)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("plant 3: ")

    def test_budget_counts_since_previous_acceptance(self, monkeypatch):
        # 1-D draws on +-1.05 pass with probability 0.05, so a budget of 20
        # runs out partway through a run on some seeds and not on others
        dims = (1, 1, 1, 1, 2, 2)
        monkeypatch.setattr(ncsched.instances, "REJECTION_BUDGET", 20)
        failed_at = set()
        for seed in range(40):
            try:
                want = sequential_draws(np.random.default_rng(seed), dims, 1.05, max_draws=20)
            except RejectionBudgetError as exc:
                with pytest.raises(RejectionBudgetError) as got:
                    generate_instance(6, 2, 5, list(dims), value_range=1.05, seed=seed)
                assert str(got.value) == str(exc)
                failed_at.add(str(exc).split(":")[0])
                continue
            rec = generate_instance(6, 2, 5, list(dims), value_range=1.05, seed=seed)
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


def in_random_basis(rng, core):
    """``S @ core @ S^-1`` for random bases ``S``: the same spectrum, entries mixed."""
    S = rng.uniform(-1, 1, core.shape)
    return S @ core @ np.linalg.inv(S)


def adversarial_stacks(rng, d):
    """Stacks of d x d candidates on which a certificate is easiest to get wrong."""
    # relative distances 1e-16 ... 1e-3 from the threshold, on both sides
    near = SPECTRAL_RADIUS_MIN * (1 + np.array([-1, 1])[:, None] * 10.0 ** -np.arange(3, 17))
    near = near.reshape(-1)
    for value_range in (1.05, 2.0, 1e6, 1e200):
        yield f"uniform on +-{value_range:g}", rng.uniform(-value_range, value_range, (300, d, d))
    # random matrices rescaled so that LAPACK's radius is near the threshold
    A = rng.uniform(-1, 1, (len(near) * 10, d, d))
    A *= (np.repeat(near, 10) / np.abs(np.linalg.eigvals(A)).max(axis=-1))[:, None, None]
    yield "radius near the threshold", A
    # scaled orthogonal matrices: every eigenvalue on the circle of that
    # radius, so the determinant's bound is tight
    Q = np.linalg.qr(rng.uniform(-1, 1, (len(near) * 20, d, d)))[0]
    yield "all eigenvalues near the threshold", np.repeat(near, 20)[:, None, None] * Q
    # one eigenvalue near the threshold, the others 1e-3 and below: a small
    # determinant next to a trace of the square near the threshold's
    core = np.zeros((len(near), d, d))
    core[:, 0, 0] = near
    for j in range(1, d):
        core[:, j, j] = 10.0 ** -(2 + j)
    yield "one eigenvalue near the threshold", in_random_basis(rng, np.repeat(core, 5, axis=0))
    # Jordan blocks at the threshold, perturbed by 1e-14: LAPACK's eigenvalues
    # split by about (1e-14)^(1/d), well past the distance to the threshold
    J = np.repeat(near, 5)[:, None, None] * np.eye(d) + np.eye(d, k=1)
    J += 1e-14 * rng.uniform(-1, 1, J.shape)
    yield "near-defective", in_random_basis(rng, J)
    for value_range in (1.05, 2.0):
        yield f"block below {CERTIFICATE_MIN_BLOCK}", rng.uniform(
            -value_range, value_range, (CERTIFICATE_MIN_BLOCK - 1, d, d)
        )


class TestInstabilityCertificate:
    """``_unstable`` certifies most unstable candidates without ``eigvals``; its
    verdict must be the one LAPACK gives each candidate on its own."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_lapack_on_adversarial_stacks(self, d, monkeypatch):
        rng = np.random.default_rng(1000 + d)
        solved = []  # candidates handed to eigvals
        eigvals = np.linalg.eigvals

        def counting(A):
            solved.append(len(A))
            return eigvals(A)

        for name, A in adversarial_stacks(rng, d):
            want = np.flatnonzero([spectral_radius(a) > SPECTRAL_RADIUS_MIN for a in A])
            solved.clear()
            monkeypatch.setattr(np.linalg, "eigvals", counting)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _unstable(A)
            monkeypatch.undo()
            assert np.array_equal(got, want), name
            if name == "uniform on +-2":
                # most unstable candidates are certified
                assert len(A) - sum(solved) > len(want) / 2
            if name.startswith("block below"):
                assert solved == [len(A)]

    def test_generation_runs_eigvals_on_few_candidates(self, monkeypatch):
        solved = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda A: solved.append(len(A)) or eigvals(A)
        )
        generate_instance(1000, 100, 50, [2] * 500 + [3] * 500, seed=12345)
        # about 0.8 of the 2-d and 0.97 of the 3-d candidates are unstable
        assert sum(solved) < 400

    def test_generation_runs_svd_on_few_candidates(self, monkeypatch):
        candidates = []
        unstable = ncsched.instances._unstable
        monkeypatch.setattr(
            ncsched.instances, "_unstable", lambda A: candidates.append(len(A)) or unstable(A)
        )
        factorizations = count_factorizations(monkeypatch)
        inst = generate_instance(1000, 100, 50, [2] * 500 + [3] * 500, seed=12345).instance
        # the determinant certificate settles the unstable candidates' rank tests
        assert sum(candidates) > 1000
        assert sum(n for _, n in factorizations) < 0.01 * sum(candidates)
        assert all(g.settled.mean() > 0.99 for g in inst.groups)


class TestViewsOnFirstRead:
    def test_solve_builds_no_plant_view(self):
        inst = generate_instance(100, 10, 50, [2] * 50 + [3] * 50, seed=12345).instance
        report = solve_instance(inst)
        assert report.verified
        assert "plants" not in vars(inst) and "xi" not in vars(inst)
        plants, xi = inst.plants, inst.xi
        assert inst.plants is plants and inst.xi is xi
        for g in inst.groups:
            for k, i in enumerate(g.idx):
                assert np.shares_memory(plants[i].A, g.A) and plants[i].A is not g.A
                assert np.array_equal(plants[i].A, g.A[k]) and np.array_equal(xi[i], g.xi[k])

    def test_constructor_keeps_the_plants_it_is_given(self):
        plants = (PlantDynamics([[2.0]], [1.0]), PlantDynamics([[0.5, 1.0], [0.0, 3.0]], [0.0, 1.0]))
        inst = NcsInstance(plants, ([1.0], [1.0, -1.0]), capacity=1, horizon=4)
        assert inst.plants is plants
        as_list = NcsInstance(list(plants), ([1.0], [1.0, -1.0]), capacity=1, horizon=4)
        assert all(p is q for p, q in zip(as_list.plants, plants, strict=True))


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


def rewrite(tmp_path, write, read, rec) -> str:
    """Write ``rec``, read it back and write it again; the two files' text."""
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    write(path_a, rec)
    write(path_b, read(path_a))
    text = path_a.read_text()
    assert path_b.read_text() == text
    assert text.index("\n") == len(text) - 1  # one line
    return text


class TestDumpJson:
    """``dump_json`` writes one line of key-sorted JSON, and every file the
    routes and the generator write reads back and rewrites byte for byte."""

    @pytest.mark.parametrize("method", ["lane", "block"])
    def test_plan_reports(self, tmp_path, demo_instance, method):
        rewrite(tmp_path, write_report, read_report, solve_instance(demo_instance, method=method))

    def test_relaxation_report(self, tmp_path):
        # one input per plant: the 2-d plant's at slot 0, the scalar plant's at slot 2
        rep = solve_instance(one_burst_instance(), method="relax")
        assert rep.schedule == [[1], [], [2]]
        plan = {"kind": "relaxation", "sparsity": [[1, 1], [2, 1]], "open_loop": []}
        assert report_to_dict(rep)["plan"] == plan
        text = rewrite(tmp_path, write_report, read_report, rep)
        assert json.loads(text)["plan"] == plan

    def test_bruteforce_report(self, tmp_path):
        rep = solve_instance(scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=3))
        assert rep.method == "bruteforce"
        rewrite(tmp_path, write_report, read_report, rep)

    def test_no_solution_report(self, tmp_path):
        rep = SolveReport(
            method=None, plan=None, control=None, verified=False, residuals=[],
            state_norms=None, diagnostics=["lane-plan: no lane packing found"],
        )
        rewrite(tmp_path, write_report, read_report, rep)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_instance_files(self, tmp_path, family):
        dims, capacity, horizon = FAMILIES[family]
        rec = generate_instance(len(dims), capacity, horizon, list(dims))
        text = rewrite(tmp_path, write_instance, read_instance, rec)
        assert json.loads(text) == instance_to_dict(rec)

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
        for obj in (data, value):
            text = dump_json(obj)
            assert text.index("\n") == len(text) - 1
            assert dump_json(json.loads(text)) == text

    @pytest.mark.parametrize("value", [
        np.array([1, 2]), np.array([[True, False]]), np.array([1.5, None], dtype=object),
        np.array([1.5], dtype=np.longdouble), np.zeros(0, dtype=int),
    ])
    def test_other_arrays_raise(self, value):
        with pytest.raises(TypeError):
            dump_json({"value": value})
        with pytest.raises(TypeError):
            dump_json([value])

    @pytest.mark.parametrize("value", [
        np.int64(3), [np.int64(3)], np.bool_(True), {1, 2}, object(), np.zeros((2, 2)),
    ])
    def test_unserializable_raises(self, value):
        with pytest.raises(TypeError):
            dump_json({"value": value})
