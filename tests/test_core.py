import warnings
from functools import reduce

import numpy as np
import pytest

from ncsched import (
    ControlLogic,
    NcsInstance,
    NoSolutionFoundError,
    PlantDynamics,
    generate_instance,
    is_reachable,
    lifted_matrix,
    mat_pow,
    open_loop_hit_time,
    solve_instance,
)
from ncsched.core import (
    ZERO_RTOL,
    group_by_dim,
    lifted_matrices,
    mat_powers,
    open_loop_hit_times,
    rank_and_cond,
    stack_plants,
)

from conftest import random_reachable_plant


class TestMatPow:
    def test_zero_power_is_identity(self):
        out = mat_pow(np.array([[1.0, 1.0], [0.0, 1.0]]), 0)
        np.testing.assert_array_equal(out, np.eye(2))

    def test_scalar_power(self):
        np.testing.assert_allclose(mat_pow(np.array([[2.0]]), 5), [[32.0]])

    def test_matches_repeated_multiplication(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        oracle = reduce(np.matmul, [A] * 3)
        np.testing.assert_allclose(mat_pow(A, 3), oracle)
        np.testing.assert_array_equal(mat_pow(A, 3), [[1.0, 3.0], [0.0, 1.0]])

    def test_additivity_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (d, d))
            j = int(rng.integers(0, 11))
            k = int(rng.integers(0, 21 - j))
            left = mat_pow(A, j + k)
            right = mat_pow(A, j) @ mat_pow(A, k)
            scale = max(1.0, np.abs(left).max())
            assert np.abs(left - right).max() <= 1e-10 * scale

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            mat_pow(np.eye(2), -1)


class TestReachMatrix:
    def test_shift_register(self):
        p = PlantDynamics([[0, 1], [0, 0]], [0, 1])
        np.testing.assert_array_equal(lifted_matrix(p, p.d), np.eye(2))

    def test_scalar(self):
        p = PlantDynamics([[2.0]], [1.0])
        np.testing.assert_array_equal(lifted_matrix(p, p.d), [[1.0]])

    def test_column_order(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        np.testing.assert_array_equal(lifted_matrix(p, p.d), [[1.0, 0.0], [1.0, 1.0]])


class TestIsReachable:
    def test_shift_register_reachable(self):
        assert is_reachable(PlantDynamics([[0, 1], [0, 0]], [0, 1]))

    def test_identity_not_reachable(self):
        assert not is_reachable(PlantDynamics([[1, 0], [0, 1]], [1, 0]))

    def test_jordan_block_reachable(self):
        assert is_reachable(PlantDynamics([[1, 1], [0, 1]], [0, 1]))

    def test_invariant_under_similarity(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 30:
            d = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (d, d))
            b = rng.uniform(-2, 2, d)
            S = np.eye(d) + 0.3 * rng.uniform(-1, 1, (d, d))
            if np.linalg.cond(S) >= 1e3:
                continue
            p = PlantDynamics(A, b)
            Sinv = np.linalg.inv(S)
            q = PlantDynamics(S @ A @ Sinv, S @ b)
            assert is_reachable(p) == is_reachable(q)
            done += 1


class TestLiftedMatrix:
    def test_scalar_horizon_three(self):
        p = PlantDynamics([[2.0]], [1.0])
        np.testing.assert_array_equal(lifted_matrix(p, 3), [[4.0, 2.0, 1.0]])

    def test_single_column_is_input_map(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        np.testing.assert_array_equal(lifted_matrix(p, 1), [[0.0], [1.0]])

    def test_equals_reach_matrix_at_dimension(self):
        p = PlantDynamics([[1, 1], [0, 1]], [0, 1])
        np.testing.assert_array_equal(
            lifted_matrix(p, 2), lifted_matrices(p.A[None], p.b[None], p.d)[0]
        )

    def test_tail_columns_equal_reach_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            p = random_reachable_plant(rng, d)
            horizon = d + int(rng.integers(0, 5))
            phi = lifted_matrix(p, horizon)
            np.testing.assert_allclose(
                phi[:, horizon - d :], lifted_matrices(p.A[None], p.b[None], d)[0]
            )


class TestOpenLoopHitTime:
    def test_nilpotent_generic_state(self):
        p = PlantDynamics([[0, 1], [0, 0]], [0, 1])
        assert open_loop_hit_time(p, [1.0, 1.0], 5) == 2

    def test_unstable_scalar_never_hits(self):
        p = PlantDynamics([[2.0]], [1.0])
        assert open_loop_hit_time(p, [1.0], 10) is None

    def test_nilpotent_axis_state(self):
        # A e2 = e1 is nonzero, A^2 e2 = 0: first hit at 2
        p = PlantDynamics([[0, 1], [0, 0]], [0, 1])
        assert open_loop_hit_time(p, [0.0, 1.0], 5) == 2


class TestTypes:
    def test_plant_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            PlantDynamics([[1, 0]], [1])

    def test_plant_rejects_wrong_input_length(self):
        with pytest.raises(ValueError):
            PlantDynamics([[1, 0], [0, 1]], [1])

    def test_plant_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PlantDynamics([[np.inf, 0], [0, 1]], [1, 1])

    def test_instance_rejects_full_capacity(self):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(ValueError):
            NcsInstance((p, p), (np.array([1.0]), np.array([1.0])), capacity=2, horizon=3)

    def test_instance_rejects_zero_initial_state(self):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(ValueError):
            NcsInstance((p, p), (np.array([1.0]), np.array([0.0])), capacity=1, horizon=3)

    def test_control_logic_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ControlLogic(np.array([[np.nan, 0.0]]))

    def test_control_logic_threshold_is_relative(self):
        u = np.array([[1e14, 1.0, 0.0]])
        logic = ControlLogic(u)
        # 1.0 is below 1e-9 * 1e14, so it counts as zero
        assert logic.nonzero_mask().tolist() == [[True, False, False]]

    def test_arrays_are_frozen(self):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(ValueError):
            p.A[0, 0] = 3.0


# Per-plant loops as core ran them before plants were stacked by dimension;
# the batched kernels must reproduce them bit for bit.
def reference_hit_time(p, xi, horizon, zero_rtol=ZERO_RTOL):
    ref = float(np.linalg.norm(xi))
    x = xi
    for tau in range(1, horizon + 1):
        x = p.A @ x
        if np.linalg.norm(x) <= zero_rtol * ref:
            return tau
    return None


def reference_reach_matrix(p):
    cols = [p.b]
    for _ in range(p.d - 1):
        cols.append(p.A @ cols[-1])
    return np.column_stack(cols[::-1])


# The kernels that lifted_matrices and rank_and_cond replaced, as core had
# them: the stacked controllability loop, the single-plant lifted loop (without
# its overflow check) and the rank test of its own SVD.
def reference_reach_matrices(A, b):
    d = A.shape[-1]
    psi = np.empty(A.shape)
    col = b
    psi[..., d - 1] = col
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d - 2, -1, -1):
            col = (A @ col[..., None])[..., 0]
            psi[..., j] = col
    return psi


def reference_lifted_matrix(p, horizon):
    cols = [p.b]
    for _ in range(horizon - 1):
        cols.append(p.A @ cols[-1])
    return np.column_stack(cols[::-1])


def reference_full_rank(psi):
    return np.linalg.matrix_rank(psi) == psi.shape[-1]


def nilpotent_plant(rng, d):
    """Strictly upper-triangular state map: every state hits zero by step d."""
    return PlantDynamics(np.triu(rng.uniform(-2, 2, (d, d)), 1), rng.uniform(-2, 2, d))


def mixed_groups(rng, n):
    """An instance of dimensions 1-4, about a third of it nilpotent, and its groups."""
    plants = tuple(
        nilpotent_plant(rng, d) if rng.uniform() < 0.3 else random_reachable_plant(rng, d)
        for d in rng.integers(1, 5, n)
    )
    xi = tuple(rng.uniform(-1, 1, p.d) for p in plants)
    inst = NcsInstance(plants, xi, capacity=1, horizon=20)
    return inst, group_by_dim(inst)


class TestBatchedKernelsMatchLoops:
    def test_groups_cover_every_plant_once(self):
        inst, groups = mixed_groups(np.random.default_rng(1), 40)
        assert sorted(np.concatenate([g.idx for g in groups]).tolist()) == list(range(40))
        for g in groups:
            for k, i in enumerate(g.idx):
                assert np.array_equal(g.A[k], inst.plants[i].A)
                assert np.array_equal(g.b[k], inst.plants[i].b)
                assert np.array_equal(g.xi[k], inst.xi[i])
        subset = [3, 17, 5]
        picked = group_by_dim(inst, subset)
        assert sorted(np.concatenate([g.idx for g in picked]).tolist()) == sorted(subset)

    def test_open_loop_hit_times(self):
        rng = np.random.default_rng(2)
        inst, groups = mixed_groups(rng, 60)
        hits = 0
        for g in groups:
            got = open_loop_hit_times(g.A, g.xi, inst.horizon)
            want = [reference_hit_time(inst.plants[i], inst.xi[i], inst.horizon) or 0
                    for i in g.idx]
            assert np.array_equal(got, want)
            hits += int(np.count_nonzero(got))
        assert hits > 0

    def test_reach_matrices_and_rank(self):
        rng = np.random.default_rng(3)
        inst, groups = mixed_groups(rng, 60)
        for g in groups:
            psi = lifted_matrices(g.A, g.b, g.A.shape[-1])
            for k, i in enumerate(g.idx):
                want = reference_reach_matrix(inst.plants[i])
                assert np.array_equal(psi[k], want)
                assert rank_and_cond(psi)[0][k] == reference_full_rank(want[None])[0]
                assert np.linalg.cond(psi)[k] == np.linalg.cond(want)

    def test_rank_and_cond_from_one_svd(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 4):
            psi = rng.uniform(-2, 2, (40, d, d))
            psi[0] = 0.0  # 0/0 condition number, read as infinite
            psi[1, :, -1] = 3 * psi[1, :, 0]  # exactly singular for d > 1
            psi[2] = np.diag(10.0 ** -(8.0 * np.arange(d)))  # ill-conditioned
            psi[3] = np.diag(1.0 + np.arange(d) * d * np.finfo(float).eps)
            full, cond = rank_and_cond(psi)
            assert np.array_equal(full, reference_full_rank(psi))
            assert np.array_equal(cond, np.linalg.cond(psi))
            assert np.isinf(cond[0]) and not full[0]
            assert not full[1] or d == 1

    def test_mat_powers(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 3, 4):
            A = rng.uniform(-2, 2, (30, d, d))
            exponents = rng.integers(0, 15, 30)
            got = mat_powers(A, exponents)
            for k, e in enumerate(exponents):
                want = np.eye(d)
                for _ in range(e):
                    want = want @ A[k]
                assert np.array_equal(got[k], want)

    def test_hit_time_uses_the_given_tolerance(self):
        # |0.01^tau| first drops below 1e-9 at tau=5, below 1e-5 at tau=3
        p = PlantDynamics([[0.01]], [1.0])
        assert open_loop_hit_time(p, [1.0], 10) == 5
        assert open_loop_hit_time(p, [1.0], 10, zero_rtol=1e-5) == 3

    def test_overflow_never_hits_and_stays_silent(self):
        p = PlantDynamics([[1e200]], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert open_loop_hit_time(p, [1.0], 10) is None


# the four benchmark families (perfbench/workloads.py): dims, capacity, horizon
FAMILIES = {
    "paper-demo": ([2] * 50 + [3] * 50, 10, 50),
    "scale-4000": ([2] * 2000 + [3] * 2000, 400, 50),
    "relax-tight": ([2] * 5 + [3] * 5, 2, 12),
    "desk-cascade": ([1, 2, 3, 4], 2, 5),
}


def family_instances(family, seeds):
    dims, capacity, horizon = FAMILIES[family]
    return [generate_instance(len(dims), capacity, horizon, dims, seed=s).instance for s in seeds]


def hard_stack(rng, d, n=40):
    """A stack of plants whose controllability matrices are singular,
    ill-conditioned, overflowing or generic, in blocks of eight."""
    A = rng.uniform(-2, 2, (n, d, d))
    b = rng.uniform(-2, 2, (n, d))
    A[:4] = np.eye(d)  # every column is b: singular for d > 1
    b[4:8] = 0.0  # the zero matrix
    # nearly repeated eigenvalues: a Vandermonde-like, ill-conditioned matrix
    A[8:16] = np.diag(1.0 + 1e-7 * np.arange(d)) + 1e-9 * A[8:16]
    b[8:16] = 1.0
    A[16:24] *= 1e200  # columns overflow to inf, and for d > 2 to NaN
    b[16:24] *= 1e200
    return A, b


def count_factorizations(monkeypatch):
    """From now on, list the name of every numpy SVD-based call made."""
    calls = []
    for name in ("svd", "matrix_rank"):
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestControllabilityOncePerGroup:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_kernels_match_removed_loops_on_benchmark_families(self, family):
        horizon = FAMILIES[family][2]
        for inst in family_instances(family, range(12345, 12385)):
            for g in inst.groups:
                d = g.A.shape[-1]
                psi = lifted_matrices(g.A, g.b, d)
                assert np.array_equal(psi, reference_reach_matrices(g.A, g.b))
                full, cond = rank_and_cond(psi)
                assert np.array_equal(full, reference_full_rank(psi))
                assert np.array_equal(cond, np.linalg.cond(psi))
                assert np.array_equal(g.psi, psi)
                assert np.array_equal(g.reachable, full)
                assert np.array_equal(g.cond, cond)
                lifted = lifted_matrices(g.A, g.b, horizon)
                # the single-plant loop samples about 25 plants per group
                for k in range(0, len(g.idx), max(1, len(g.idx) // 25)):
                    want = reference_lifted_matrix(inst.plants[g.idx[k]], horizon)
                    assert np.array_equal(lifted[k], want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_kernels_match_removed_loops_on_hard_stacks(self, d):
        A, b = hard_stack(np.random.default_rng(20 + d), d)
        psi = lifted_matrices(A, b, d)
        assert np.array_equal(psi, reference_reach_matrices(A, b), equal_nan=True)
        lifted = lifted_matrices(A, b, 12)
        for k in range(len(A)):
            with np.errstate(over="ignore", invalid="ignore"):
                want = reference_lifted_matrix(PlantDynamics(A[k], b[k]), 12)
            assert np.array_equal(lifted[k], want, equal_nan=True)
        full, cond = rank_and_cond(psi)
        has_nan = np.isnan(psi).any(axis=(1, 2))
        assert np.array_equal(full[~has_nan], reference_full_rank(psi[~has_nan]))
        with np.errstate(invalid="ignore"):
            assert np.array_equal(cond[~has_nan], np.linalg.cond(psi[~has_nan]))
        assert not full[:8].any() or d == 1
        assert np.isinf(cond[4:8]).all()
        assert (cond[8:16] > 1e6).all() or d == 1
        # an overflowed matrix is never full rank; where it holds a NaN,
        # numpy's own rank test raises instead of answering
        if d > 1:
            assert not full[16:24].any()
            assert np.isinf(cond[16:24][~has_nan[16:24]]).all()
        assert np.isnan(cond[has_nan]).all()
        if has_nan.any():
            with pytest.raises(np.linalg.LinAlgError):
                reference_full_rank(psi[has_nan])

    def test_subset_groups_carry_their_own_facts(self):
        rng = np.random.default_rng(6)
        plants = [
            PlantDynamics(np.eye(d), rng.uniform(-2, 2, d)) if k % 4 == 0
            else random_reachable_plant(rng, d)
            for k, d in enumerate(rng.integers(1, 5, 40))
        ]
        xi = tuple(rng.uniform(-1, 1, p.d) for p in plants)
        inst = NcsInstance(tuple(plants), xi, capacity=1, horizon=20)
        assert not all(g.reachable.all() for g in inst.groups)
        for subset in ([3, 17, 5], range(0, 40, 3), [0], range(40)):
            picked = group_by_dim(inst, subset)
            assert sorted(np.concatenate([g.idx for g in picked]).tolist()) == sorted(subset)
            for g in picked:
                psi = lifted_matrices(g.A, g.b, g.A.shape[-1])
                full, cond = rank_and_cond(psi)
                assert np.array_equal(g.psi, psi)
                assert np.array_equal(g.reachable, full)
                assert np.array_equal(g.cond, cond)
                for got, want in zip(g, stack_plants(g.idx, inst.plants, inst.xi), strict=True):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("family", ["paper-demo", "desk-cascade"])
    @pytest.mark.parametrize("method", ["lane", "block"])
    def test_plan_routes_factor_nothing_once_built(self, family, method, monkeypatch):
        insts = family_instances(family, range(12345, 12350))
        factorizations = count_factorizations(monkeypatch)
        for inst in insts:
            try:
                solve_instance(inst, method=method)
            except NoSolutionFoundError:
                pass
        assert factorizations == []
        # the counter sees the one rank test a lone plant still makes
        is_reachable(insts[0].plants[0])
        assert factorizations == ["svd"]

    @pytest.mark.parametrize("big", [
        PlantDynamics([[1e200, 0.0], [0.0, 2.0]], [1e200, 1.0]),
        # A b overflows to inf, and the zero in A makes A^2 b meet 0 * inf:
        # a NaN, on which numpy's SVD raises
        PlantDynamics(np.diag([1e200, -1e200, 1e200]) + 1e200, [1e200, 1.0, -1e200]),
    ], ids=["inf", "nan"])
    def test_overflowing_plant_builds_silently_and_is_refused(self, big):
        good = PlantDynamics([[2.0, 1.0], [0.0, 1.5]], [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = NcsInstance(
                (good, big, good, big), tuple(np.ones(p.d) for p in (good, big) * 2),
                capacity=1, horizon=9,
            )
            assert np.isnan(inst.groups[-1].psi).any() == (big.d == 3)
            assert not is_reachable(big)
            for method in ("lane", "block", "relax"):
                with pytest.raises(NoSolutionFoundError) as info:
                    solve_instance(inst, method=method)
                assert "plants not reachable (1-based): 2, 4" in str(info.value)
