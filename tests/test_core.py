import warnings
from functools import reduce

import numpy as np
import pytest

from ncsched import (
    ControlLogic,
    NcsInstance,
    PlantDynamics,
    is_reachable,
    lifted_matrix,
    mat_pow,
    open_loop_hit_time,
)
from ncsched.core import (
    ZERO_RTOL,
    full_rank,
    group_by_dim,
    mat_powers,
    open_loop_hit_times,
    rank_and_cond,
    reach_matrices,
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
            lifted_matrix(p, 2), reach_matrices(p.A[None], p.b[None])[0]
        )

    def test_tail_columns_equal_reach_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            p = random_reachable_plant(rng, d)
            horizon = d + int(rng.integers(0, 5))
            phi = lifted_matrix(p, horizon)
            np.testing.assert_allclose(
                phi[:, horizon - d :], reach_matrices(p.A[None], p.b[None])[0]
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
            psi = reach_matrices(g.A, g.b)
            for k, i in enumerate(g.idx):
                want = reference_reach_matrix(inst.plants[i])
                assert np.array_equal(psi[k], want)
                assert full_rank(psi)[k] == (np.linalg.matrix_rank(want) == g.A.shape[-1])
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
            assert np.array_equal(full, np.linalg.matrix_rank(psi) == d)
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
