import warnings

import numpy as np
import pytest

from ncsched import (
    ControlLogic,
    NcsInstance,
    NoSolutionFoundError,
    PlantDynamics,
    build_from_plan,
    find_lane_plan,
    generate_instance,
    open_loop_hit_time,
    solve_instance,
    split_open_loop,
)
from ncsched import core
from ncsched.core import (
    TERMINAL_RTOL,
    ZERO_RTOL,
    group_by_dim,
    lifted_matrices,
    nonzero_entries,
    rank_and_cond,
    stack_plants,
    well_conditioned,
)
from ncsched.planner import _assemble
from ncsched.sim import steers_to_zero

from conftest import (
    companion_plant,
    count_factorizations,
    is_reachable,
    norm_left_to_right,
    open_loop_hit_times,
    random_reachable_plant,
    step_left_to_right,
)


def lifted_matrix(p, horizon):
    """``lifted_matrices`` on a stack of one plant."""
    return lifted_matrices(p.A[None], p.b[None], horizon)[0]


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
        inst = NcsInstance((p, PlantDynamics([[2.0]], [1.0])), (np.ones(2), np.ones(1)), 1, 4)
        np.testing.assert_array_equal(lifted_matrix(p, 2), inst.groups[1].psi[0])

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

    @pytest.mark.parametrize("horizon, message", [
        (0, "horizon must be positive"),
        (-1, "horizon must be positive"),
        (2.5, "horizon must be an integer, got 2.5"),
        (5.0, "horizon must be an integer, got 5.0"),
        (True, "horizon must be an integer, got True"),
    ])
    def test_horizon_checked_as_an_instance_checks_it(self, horizon, message):
        p = PlantDynamics([[0, 1], [0, 0]], [0, 1])
        with pytest.raises(ValueError, match=f"^{message}$"):
            NcsInstance((p, p), ([1.0, 1.0],) * 2, capacity=1, horizon=horizon)
        with pytest.raises(ValueError, match=f"^{message}$"):
            open_loop_hit_time(p, [1.0, 1.0], horizon)
        assert open_loop_hit_time(p, [1.0, 1.0], np.int64(5)) == 2


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

    def test_plant_rejects_nonfinite_input_map(self):
        # generated plants skip this check, built plants still make it
        with pytest.raises(ValueError, match="plant matrices must be finite"):
            PlantDynamics([[1, 0], [0, 1]], [np.nan, 1])

    def test_instance_rejects_full_capacity(self):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(ValueError):
            NcsInstance((p, p), (np.array([1.0]), np.array([1.0])), capacity=2, horizon=3)

    def test_instance_rejects_zero_initial_state(self):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(ValueError):
            NcsInstance((p, p), (np.array([1.0]), np.array([0.0])), capacity=1, horizon=3)

    @pytest.mark.parametrize("bad, message", [
        ({1: "zero", 4: "nan"}, "initial state 2 is zero"),
        ({1: "nan", 4: "zero"}, "initial state 2 is not finite"),
        ({4: "nan", 6: "zero"}, "initial state 5 is not finite"),
        ({0: "long", 1: "nan"}, "initial state 1 has wrong length"),
        ({1: "nan", 3: "long"}, "initial state 2 is not finite"),
        ({2: "zero", 3: "long", 5: "nan"}, "initial state 3 is zero"),
        ({5: "inf", 6: "long"}, "initial state 6 is not finite"),
        ({6: "long", 0: "zero"}, "initial state 1 is zero"),
    ])
    def test_instance_reports_first_bad_state_in_plant_order(self, bad, message):
        # dimensions 2, 3, 1, 2, 2, 1, 3: each group holds one of the offenders
        dims = (2, 3, 1, 2, 2, 1, 3)
        plants = tuple(companion_plant(d) for d in dims)
        xi = [np.full(d, 0.5) for d in dims]
        values = {"zero": 0.0, "nan": np.nan, "inf": -np.inf}
        for i, kind in bad.items():
            if kind == "long":
                xi[i] = np.ones(dims[i] + 1)
            else:
                xi[i][-1] = values[kind]
                if kind == "zero":
                    xi[i][:] = 0.0
        with pytest.raises(ValueError, match=f"^{message}$"):
            NcsInstance(plants, tuple(xi), capacity=1, horizon=9)

    def test_stacked_instance_checks_as_the_constructor(self):
        inst = generate_instance(6, 2, 9, [1, 2, 2, 3, 3, 2], seed=3).instance
        g = inst.groups[1]
        zeroed = g._replace(xi=np.where(g.idx[:, None] == 5, 0.0, g.xi))
        groups = (inst.groups[0], zeroed, inst.groups[2])
        with pytest.raises(ValueError, match="^initial state 6 is zero$"):
            NcsInstance._from_groups(groups, 2, 9)
        with pytest.raises(ValueError, match="capacity must satisfy 0 < M < N, got M=6, N=6"):
            NcsInstance._from_groups(inst.groups, 6, 9)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            NcsInstance._from_groups(inst.groups, 2, 9.0)

    def test_control_logic_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ControlLogic(np.array([[np.nan, 0.0]]))

    def test_control_logic_threshold_is_relative(self):
        u = np.array([[1e14, 1.0, 0.0]])
        logic = ControlLogic(u)
        # 1.0 is below 1e-9 * 1e14, so it counts as zero
        assert nonzero_entries(logic.u).tolist() == [[True, False, False]]

    def test_arrays_are_frozen(self):
        p = PlantDynamics([[2.0]], [1.0])
        with pytest.raises(ValueError):
            p.A[0, 0] = 3.0

    def test_thresholded_copy_keeps_the_mask(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=(40, 12)) * 10.0 ** rng.integers(-12, 12, size=(40, 1))
        u[rng.uniform(size=u.shape) < 0.3] = 0.0
        u[:3] = 1e-10  # rows whose every entry is below the threshold
        for zero_rtol in (1e-9, 1e-3, 0.5):
            logic = ControlLogic(u)
            mask = nonzero_entries(logic.u, zero_rtol)
            zeroed = logic.thresholded(zero_rtol)
            # the copy's nonzeros are the mask, and its own mask is the same
            assert np.array_equal(zeroed.u != 0, mask)
            assert np.array_equal(nonzero_entries(zeroed.u, zero_rtol), mask)
            assert not mask[:3].any()


# Per-plant loops as core ran them before plants were stacked by dimension;
# the batched kernels must reproduce them bit for bit.
def reference_hit_time(p, xi, horizon, zero_rtol=ZERO_RTOL, terminal_rtol=TERMINAL_RTOL):
    """The verifier's zero rule on the zero-input state, one plant at a time
    (for states whose squared norms stay in range): the first step whose norm
    is within zero_rtol of the running sup floored at 1, else the horizon
    when the terminal norm is within terminal_rtol of it, else None."""
    norm = float(norm_left_to_right(xi))
    sup, x = max(1.0, norm), xi
    for tau in range(1, horizon + 1):
        x = step_left_to_right(p.A, x)
        norm = float(norm_left_to_right(x))
        if not np.isfinite(norm):
            return None
        sup = max(sup, norm)
        if norm <= zero_rtol * sup:
            return tau
    return horizon if norm / sup <= terminal_rtol else None


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

    def test_dims_read_off_the_groups(self):
        rng = np.random.default_rng(6)
        dims = rng.permutation([1, 2, 3, 4] * 5)
        plants = tuple(companion_plant(int(d)) for d in dims)
        inst = NcsInstance(plants, tuple(np.ones(p.d) for p in plants), capacity=3, horizon=9)
        generated = generate_instance(6, 2, 9, [3, 1, 2, 3, 1, 2], seed=7).instance
        for instance in (inst, generated):
            dims = instance._dim_array()
            assert dims.tolist() == [p.d for p in instance.plants]
            assert dims.dtype.kind == "i"

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

    def test_initial_norm_past_the_float_range_never_hits(self):
        # every entry is finite, but the norm 2.1e308 is not: it reads as NaN,
        # so the decaying state (0.5^6 * 1.5e308 at T) is never set aside
        p = PlantDynamics(np.diag([0.5, 0.25]), [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert open_loop_hit_time(p, [1.5e308, 1.5e308], 6) is None

    def test_hit_times_follow_the_verifier_at_every_state_scale(self):
        # the squared norm of a state above ~1e154 overflows and below ~1e-154
        # underflows; the scan retakes such norms as the verifier does, so a
        # large state keeps its hit time, and a state far below the verifier's
        # floor of 1 is zero at step 1, as the verifier finds it
        unstable, stable = PlantDynamics([[2.0]], [1.0]), PlantDynamics([[0.01]], [1.0])

        def verifier_accepts(A, b, xi, horizon):
            zero = np.zeros((len(xi), horizon))
            return steers_to_zero(A, b, xi, zero, ZERO_RTOL, TERMINAL_RTOL)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1.0, 1e160):
                assert open_loop_hit_time(unstable, [scale], 6) is None
                assert open_loop_hit_time(stable, [scale], 10) == 5
            for scale in (1e-200, 5e-324):
                assert open_loop_hit_time(unstable, [scale], 6) == 1
                assert open_loop_hit_time(stable, [scale], 10) == 1
                for p in (unstable, stable):
                    assert verifier_accepts(p.A[None], p.b[None], np.array([[scale]]), 6)[0]
            rng = np.random.default_rng(9)
            inst, groups = mixed_groups(rng, 60)
            for g in groups:
                large = open_loop_hit_times(g.A, g.xi * 2.0**600, inst.horizon)
                for scale in (2.0**600, 2.0**1000, 2.0**-600, 2.0**-1000):
                    got = open_loop_hit_times(g.A, g.xi * scale, inst.horizon)
                    assert np.array_equal(got, large if scale > 1 else np.ones_like(got))
                    accepted = verifier_accepts(g.A, g.b, g.xi * scale, inst.horizon)
                    assert np.array_equal(got != 0, accepted)


class TestKernelCallBudgets:
    """One kernel step per scan step and no stacked product; window synthesis
    after the scan takes neither."""

    @staticmethod
    def count_calls(monkeypatch):
        """From now on, count the scan's kernel steps and its calls of core's
        stacked product ``matvec``."""
        steps, products = [], []
        step, product = core.column_step, core.matvec
        monkeypatch.setattr(core, "column_step", lambda *a, **k: steps.append(1) or step(*a, **k))
        monkeypatch.setattr(core, "matvec", lambda *a, **k: products.append(1) or product(*a, **k))
        return steps, products

    def test_scan_makes_at_most_horizon_products_per_group(self, demo_instance, monkeypatch):
        steps, products = self.count_calls(monkeypatch)
        hits, closed, _ = split_open_loop(demo_instance)
        # no generated plant reaches zero open-loop
        assert not hits
        assert len(steps) == len(demo_instance.groups) * demo_instance.horizon
        assert not products

    def test_group_that_has_hit_steps_through_the_horizon(self, monkeypatch):
        rng = np.random.default_rng(10)
        for d in (1, 3):
            plants = [nilpotent_plant(rng, d) for _ in range(12)]
            if d == 1:  # |0.1^tau| drops below 1e-9 of the floor of 1 by tau = 10
                plants.append(PlantDynamics([[0.1]], [1.0]))
            g = stack_plants(range(len(plants)), plants, [rng.uniform(-1, 1, d) for _ in plants])
            want = [reference_hit_time(p, x, 50) for p, x in zip(plants, g.xi)]
            steps, products = self.count_calls(monkeypatch)
            assert open_loop_hit_times(g.A, g.xi, 50).tolist() == want
            # every plant has hit by step 10, but synthesis reads states through T
            assert 0 < min(want) and max(want) <= 10 and len(steps) == 50
            assert not products

    def test_terminal_systems_after_the_scan_step_nothing(self, monkeypatch):
        inst = generate_instance(4, 2, 5, [1, 2, 3, 4], seed=12345).instance
        states = split_open_loop(inst)[2]
        steps, _ = self.count_calls(monkeypatch)
        systems = core.terminal_systems(inst.groups, states)
        # every target is minus the scanned state at T
        assert not steps
        for g, (_, target) in zip(inst.groups, systems):
            assert np.array_equal(target, -states[g.A.shape[-1]].x[:, inst.horizon].T)

    def test_window_synthesis_after_the_scan_steps_and_powers_nothing(
        self, demo_instance, monkeypatch
    ):
        inst = demo_instance
        plan, states = find_lane_plan(inst), split_open_loop(inst)[2]
        want = build_from_plan(inst, plan).u
        steps, products = self.count_calls(monkeypatch)
        got = _assemble(inst, plan, range(inst.n), states).u
        # every burst reads its window-end state off the scan
        assert not steps and not products
        assert np.array_equal(got, want)


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
                assert np.array_equal(g.settled, well_conditioned(psi))
                assert (cond[g.settled] <= 1.0001e8).all()
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
                assert np.array_equal(g.psi, psi)
                assert np.array_equal(g.reachable, rank_and_cond(psi)[0])
                assert np.array_equal(g.settled, well_conditioned(psi))
                for got, want in zip(g, stack_plants(g.idx, inst.plants, inst.xi), strict=True):
                    assert np.array_equal(got, want)

    def test_a_group_kept_whole_is_the_instances_own(self):
        inst, groups = mixed_groups(np.random.default_rng(7), 40)
        whole, part = groups[0], groups[1]
        subset = [*whole.idx.tolist(), *part.idx[1:].tolist()]
        picked = group_by_dim(inst, subset)
        assert picked[0] is whole
        assert all(np.shares_memory(a, b) for a, b in zip(picked[0], whole))
        assert not any(np.shares_memory(a, b) for a, b in zip(picked[1], part))
        assert np.array_equal(picked[1].idx, part.idx[1:])

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
        # the counter sees a rank test made outside the routes
        is_reachable(insts[0].plants[0])
        assert factorizations == [("svd", 1)]

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


def adversarial_psi(rng, d):
    """Named stacks of d x d matrices on which the determinant certificate is
    easiest to get wrong."""
    yield "uniform", rng.uniform(-2, 2, (4000, d, d))
    # the last column within relative distance delta of three times the first
    delta = np.repeat(10.0 ** -np.arange(3, 19), 20)
    near = rng.uniform(-1, 1, (delta.size, d, d))
    if d > 1:
        offset = rng.uniform(-1, 1, (delta.size, d))
        offset *= (delta * np.linalg.norm(near[..., 0], axis=-1))[:, None]
        near[..., -1] = 3 * near[..., 0] + offset
    yield "near-dependent columns", near
    # graded columns: column j scaled by delta^j
    yield "graded columns", near * delta[:, None, None] ** np.arange(d)
    A = rng.uniform(-2, 2, (40, d, d))
    yield "zero b", lifted_matrices(A, np.zeros((40, d)), d)
    yield "controllability matrices", lifted_matrices(A, rng.uniform(-2, 2, (40, d)), d)
    # where ||psi||_F^d, or the determinant, underflows or overflows
    for scale in (1e-160, 1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e154, 1e160, 1e200):
        yield f"uniform times {scale:g}", scale * rng.uniform(-2, 2, (40, d, d))
        yield f"near-dependent times {scale:g}", scale * near[::8]
    if d > 1:
        # condition number about 2e8, so small that the determinant's products
        # round on the subnormal grid, where noise alone can leave it nonzero
        tiny = np.tile(np.eye(d), (1000, 1, 1))
        tiny[:, :2, :2] = [[1.0, 1.0], [1.0, 1.0 + 2e-8]]
        yield "tiny, ill-conditioned", tiny * 2.0 ** ((rng.uniform(size=(1000, 1, 1)) - 1053) / d)
    bad = rng.uniform(-2, 2, (24, d, d))
    bad[:8, 0, -1] = np.nan
    bad[8:16, -1, 0] = np.inf
    bad[16:, 0, 0] = -np.inf
    yield "not finite", bad


class TestDeterminantCertificate:
    """``well_conditioned`` settles a Psi only when numpy finds it full rank
    with condition number at most about 1 / CERTIFICATE_SLACK; ``reachability``
    gives numpy's rank verdict on every matrix."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_det_is_lapacks_up_to_rounding(self, d):
        A = np.random.default_rng(30 + d).uniform(-2, 2, (500, d, d))
        got, want = core.det(A), np.linalg.det(A)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(A).sum(axis=(1, 2)) ** d)
        if d > 3:
            assert np.array_equal(got, want)
        assert [core.det(a) for a in A[:5]] == got[:5].tolist()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_numpy_on_adversarial_stacks(self, d):
        rng = np.random.default_rng(40 + d)
        counts = {"settled": 0, "open": 0}
        for name, psi in adversarial_psi(rng, d):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reachable, settled = core.reachability(psi)
            # each matrix alone, and as a stack of one, gets the stack's verdict
            alone = [well_conditioned(m) for m in psi[::7]]
            assert np.array_equal(alone, settled[::7]), name
            assert all(core.reachability(psi[k : k + 1])[1][0] == settled[k] for k in range(3))
            finite = np.isfinite(psi).all(axis=(1, 2))
            assert not (reachable | settled)[~finite].any(), name
            assert np.array_equal(reachable[finite], reference_full_rank(psi[finite])), name
            assert (np.linalg.cond(psi[settled]) <= 1.0001e8).all(), name
            counts["settled"] += int(settled.sum())
            counts["open"] += int((~settled).sum())
        # most matrices are settled, and many are left to the SVD
        assert counts["settled"] > 4000 and counts["open"] > 200
