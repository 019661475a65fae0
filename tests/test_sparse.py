import math
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

import ncsched.sparse
from ncsched import (
    TERMINAL_RTOL,
    ZERO_RTOL,
    ControlLogic,
    HorizonTooShortError,
    NcsInstance,
    NonFiniteError,
    NotReachableError,
    PlantDynamics,
    RipReport,
    SolverStallError,
    TooLargeError,
    generate_instance,
    l0_feasible_bruteforce,
    min_l1,
    rip_delta,
    solve_instance,
    solve_via_relaxation,
    split_open_loop,
    verify_logic,
)
from ncsched.core import group_by_dim, lifted_matrices, nonzero_entries
from ncsched.sparse import _mask_table, min_l1_stack
from ncsched.sim import steers_to_zero

from conftest import scalar_instance, step_left_to_right, triangle_instance


def per_plant_systems(inst, plants=None):
    """Each plant's terminal system ``(Phi, -A^T xi)`` built alone, in plant
    order: the lifted matrix column by column, ``A^T xi`` by stepping xi T
    times, each product summed left to right as the open-loop scan sums it.
    Every lifted matrix is checked before any state."""
    plants = range(inst.n) if plants is None else plants
    phis = []
    for i in plants:
        p, cols = inst.plants[i], [inst.plants[i].b]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(inst.horizon - 1):
                cols.append(p.A @ cols[-1])
        phis.append(np.column_stack(cols[::-1]))
    if not all(np.isfinite(phi).all() for phi in phis):
        raise NonFiniteError("lifted matrix overflowed")
    targets = []
    for i in plants:
        x = inst.xi[i]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(inst.horizon):
                x = step_left_to_right(inst.plants[i].A, x)
        if not np.isfinite(x).all():
            raise NonFiniteError(f"open-loop state overflowed by step {inst.horizon}")
        targets.append(-x)
    return phis, targets


def reference_relaxation_rows(inst):
    """The relaxation's thresholded rows from the per-plant systems."""
    rows = min_l1_stack(*per_plant_systems(inst))
    return ControlLogic(np.array(rows)).thresholded().u


def reference_mask_table(inst):
    """``_mask_table`` from the per-plant systems, stacked per dimension group."""
    horizon, n_masks = inst.horizon, 2**inst.horizon
    phis, targets = per_plant_systems(inst)
    bits = np.arange(n_masks)[:, None] >> np.arange(horizon) & 1
    rows = np.empty((inst.n, n_masks, horizon))
    ok = np.empty((inst.n, n_masks), dtype=bool)
    for g in group_by_dim(inst):
        phi = np.stack([phis[i] for i in g.idx])
        target = np.array([targets[i] for i in g.idx])
        sub = np.linalg.pinv(phi[:, None] * bits[None, :, None, :])
        rows[g.idx] = (sub @ target[:, None, :, None])[..., 0] * bits
        stack = (np.repeat(a, n_masks, axis=0) for a in (g.A, g.b, g.xi))
        accept = steers_to_zero(*stack, rows[g.idx].reshape(-1, horizon), ZERO_RTOL, TERMINAL_RTOL)
        ok[g.idx] = accept.reshape(-1, n_masks)
    return rows, ok


def l0_min_by_enumeration(gamma, target, rtol=1e-9):
    """Sparsest solution of gamma @ u = target by support enumeration."""
    gamma = np.asarray(gamma, dtype=float)
    target = np.asarray(target, dtype=float).reshape(-1)
    tol = rtol * (1.0 + np.linalg.norm(target))
    width = gamma.shape[1]
    for k in range(width + 1):
        for supp in combinations(range(width), k):
            if k == 0:
                if np.linalg.norm(target) <= tol:
                    return np.zeros(width)
                continue
            sub = gamma[:, supp]
            sol, *_ = np.linalg.lstsq(sub, target, rcond=None)
            if np.linalg.norm(sub @ sol - target) <= tol:
                u = np.zeros(width)
                u[list(supp)] = sol
                return u
    return None


def reference_min_l1(gamma, target, residual_rtol=1e-8, zero_rtol=1e-9):
    """One system's split LP, solved alone: row-space projection with its
    consistency check, a dense ``linprog`` call, least-squares polish on the
    support when that lowers the residual."""
    gamma = np.asarray(gamma, dtype=float)
    target = np.asarray(target, dtype=float).reshape(-1)
    width = gamma.shape[1]
    left, sigma, right = np.linalg.svd(gamma, full_matrices=False)
    cutoff = max(gamma.shape) * np.finfo(float).eps * (sigma[0] if sigma.size else 0.0)
    keep = sigma > cutoff
    projected = left.T @ target
    dropped = projected[~keep]
    tol = residual_rtol * (1.0 + float(np.linalg.norm(target)))
    if dropped.size and np.abs(dropped).max() > tol:
        raise SolverStallError("inconsistent")
    a_rows = right[keep]
    res = linprog(
        np.ones(2 * width),
        A_eq=np.hstack([a_rows, -a_rows]),
        b_eq=projected[keep] / sigma[keep],
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise SolverStallError(res.message)
    u = res.x[:width] - res.x[width:]
    resid = float(np.linalg.norm(gamma @ u - target))
    scale = float(np.abs(u).max()) if u.size else 0.0
    if resid > 0.0 and scale > 0.0:
        supp = np.nonzero(np.abs(u) > zero_rtol * max(1.0, scale))[0]
        if supp.size:
            w, *_ = np.linalg.lstsq(gamma[:, supp], target, rcond=None)
            polished = np.zeros(width)
            polished[supp] = w
            polished_resid = float(np.linalg.norm(gamma @ polished - target))
            if polished_resid < resid:
                u = polished
    return u


def count_linprog(monkeypatch):
    """Counts the LP backend calls the sparse module makes: ``min_l1_stack``
    reads ``scipy.optimize.linprog`` at each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


def reference_rip_delta(gamma, order):
    """The isometry constant by one eigenvalue call per column support."""
    gram = gamma.T @ gamma
    lo, hi = np.inf, -np.inf
    for supp in combinations(range(gamma.shape[1]), order):
        eigs = np.linalg.eigvalsh(gram[np.ix_(supp, supp)])
        lo = min(lo, eigs[0])
        hi = max(hi, eigs[-1])
    return float(max(hi - 1.0, 1.0 - lo, 0.0))


def reference_bruteforce(inst, zero_rtol=ZERO_RTOL, terminal_rtol=TERMINAL_RTOL):
    """Full walk over every assignment of per-slot access sets.

    Smaller sets first, then lexicographic; plants are judged only at the
    leaves, each by ``verify_logic`` on its least-squares row (one ``lstsq``
    on the lifted-matrix columns of its slots).
    """
    n, horizon = inst.n, inst.horizon
    subsets = [s for k in range(inst.capacity + 1) for s in combinations(range(n), k)]
    phis, targets = per_plant_systems(inst)
    memo = {}

    def accepted_row(i, mask):
        if (i, mask) not in memo:
            cols = [t for t in range(horizon) if mask >> t & 1]
            u = np.zeros((n, horizon))
            if cols:
                u[i, cols], *_ = np.linalg.lstsq(phis[i][:, cols], targets[i], rcond=None)
            outcome = verify_logic(inst, ControlLogic(u), zero_rtol, terminal_rtol)
            memo[i, mask] = u[i] if outcome.terminal_residuals[i] <= terminal_rtol else None
        return memo[i, mask]

    masks = [0] * n

    def search(t):
        if t == horizon:
            rows = [accepted_row(i, masks[i]) for i in range(n)]
            return None if any(r is None for r in rows) else ControlLogic(np.array(rows))
        for subset in subsets:
            for i in subset:
                masks[i] |= 1 << t
            found = search(t + 1)
            for i in subset:
                masks[i] &= ~(1 << t)
            if found is not None:
                return found
        return None

    return search(0)


class TestMinL1:
    def test_picks_cheap_column(self):
        u = min_l1(np.array([[2.0, 1.0]]), np.array([2.0]))
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-9)

    def test_negative_target(self):
        u = min_l1(np.array([[2.0, 1.0]]), np.array([-4.0]))
        np.testing.assert_allclose(u, [-2.0, 0.0], atol=1e-9)

    def test_zero_target(self):
        u = min_l1(np.array([[2.0, 1.0]]), np.array([0.0]))
        np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-12)

    def test_null_space_perturbations_do_not_improve(self):
        rng = np.random.default_rng(19)
        from scipy.linalg import null_space

        for _ in range(20):
            d = int(rng.integers(1, 4))
            width = d + int(rng.integers(2, 6))
            gamma = rng.uniform(-2, 2, (d, width))
            if np.linalg.matrix_rank(gamma) < d:
                continue
            target = rng.uniform(-2, 2, d)
            u = min_l1(gamma, target)
            base = np.abs(u).sum()
            for z in null_space(gamma).T:
                for eps in (-0.1, -1e-3, 1e-3, 0.1):
                    assert np.abs(u + eps * z).sum() >= base - 1e-9


class TestMinL1Stack:
    def test_stack_of_one_matches_single_system_lp(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            d = int(rng.integers(1, 5))
            gamma = rng.standard_normal((d, d + int(rng.integers(1, 8))))
            target = rng.standard_normal(d)
            expected = reference_min_l1(gamma, target)
            assert min_l1(gamma, target).tobytes() == expected.tobytes()
            stacked = ncsched.sparse.min_l1_stack([gamma], [target])
            assert [row.tobytes() for row in stacked] == [expected.tobytes()]

    @pytest.mark.parametrize(
        "dims, capacity, horizon",
        # the relax-tight and desk-cascade benchmark families
        [((2,) * 5 + (3,) * 5, 2, 12), ((1, 2, 3, 4), 2, 5)],
    )
    def test_stack_keeps_every_single_system_support(self, dims, capacity, horizon):
        for seed in range(12345, 12365):
            inst = generate_instance(
                len(dims), capacity, horizon, list(dims), value_range=2.0, seed=seed
            ).instance
            gammas, targets = per_plant_systems(inst)
            rows = ncsched.sparse.min_l1_stack(gammas, targets)
            for gamma, target, row in zip(gammas, targets, rows):
                alone = reference_min_l1(gamma, target)
                scale = float(np.abs(alone).max())
                masks = nonzero_entries(np.array([row, alone]))
                assert masks[0].tolist() == masks[1].tolist()
                np.testing.assert_allclose(row, alone, rtol=0, atol=1e-9 * scale)

    def test_inconsistent_system_stalls_before_the_lp(self, monkeypatch):
        calls = count_linprog(monkeypatch)
        rng = np.random.default_rng(67)
        # system 2 has rank one, and its target is off the range line
        gammas = [
            rng.standard_normal((2, 5)),
            rng.standard_normal((2, 5)),
            np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]]),
            rng.standard_normal((1, 4)),
        ]
        targets = [rng.standard_normal(2), rng.standard_normal(2), np.array([1.0, 0.0]), [0.5]]
        with pytest.raises(SolverStallError, match="inconsistent"):
            ncsched.sparse.min_l1_stack(gammas, targets)
        assert calls == []

    def test_inconsistent_tall_system_stalls(self, monkeypatch):
        calls = count_linprog(monkeypatch)
        # full column rank, but the target has a part outside the column space,
        # which the thin basis of a tall matrix does not span
        with pytest.raises(SolverStallError, match="inconsistent"):
            min_l1(np.array([[1.0], [0.0]]), np.array([1.0, 1.0]))
        with pytest.raises(SolverStallError, match="inconsistent"):
            min_l1_stack([np.ones((3, 2)), np.eye(2)], [np.array([1.0, 1.0, 2.0]), np.ones(2)])
        assert calls == []
        # a consistent tall system still solves
        np.testing.assert_allclose(min_l1(np.array([[1.0], [2.0]]), np.array([1.0, 2.0])), [1.0])

    def test_target_at_the_lp_infinite_bound_stalls_before_the_lp(self, monkeypatch):
        bound = ncsched.sparse.LP_INFINITE_BOUND
        below = np.nextafter(bound, 0.0)
        # an identity system hands its target to the LP unchanged
        np.testing.assert_allclose(min_l1(np.eye(2), np.array([1.0, -below])), [1.0, -below])
        calls = count_linprog(monkeypatch)
        for big in (bound, -bound):
            with pytest.raises(SolverStallError, match="system 2 of 2: .* infinite bound 1e"):
                min_l1_stack([np.eye(1), np.eye(2)], [[1.0], [1.0, big]])
        assert calls == []

    def test_projected_target_past_the_bound_stalls(self, monkeypatch):
        # the LP reads the row-space projection of s * (1, 1), about 1.096 s
        gamma = np.array([[1.0, 0.5], [0.0, 1.0]])
        np.testing.assert_allclose(gamma @ min_l1(gamma, np.array([9e19, 9e19])), [9e19] * 2)
        calls = count_linprog(monkeypatch)
        with pytest.raises(SolverStallError, match=r"reaches 1\.04e\+20"):
            min_l1(gamma, np.array([9.5e19, 9.5e19]))
        assert calls == []

    def test_empty_stack(self, monkeypatch):
        calls = count_linprog(monkeypatch)
        assert ncsched.sparse.min_l1_stack([], []) == []
        assert calls == []

    @pytest.mark.parametrize("gammas, targets, label", [
        ([np.array([[np.nan, 1.0]])], [[1.0]], "system 1 of 1"),
        ([np.eye(2)], [[np.inf, 1.0]], "system 1 of 1"),
        ([np.eye(2), np.array([[1.0, -np.inf]])], [[1.0, 1.0], [1.0]], "system 2 of 2"),
        ([np.eye(1), np.eye(1), np.eye(1)], [[1.0], [np.nan], [-np.inf]], "system 2 of 3"),
    ], ids=["nan-matrix", "inf-target", "second-matrix", "first-of-two-bad-targets"])
    def test_non_finite_system_refused_before_any_svd(self, monkeypatch, gammas, targets, label):
        def no_svd(*args, **kwargs):
            raise AssertionError("decomposed a system that is refused")

        calls = count_linprog(monkeypatch)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        message = f"^{label}: matrix or target is not finite$"
        with pytest.raises(ValueError, match=message):
            min_l1_stack(gammas, targets)
        if len(gammas) == 1:
            with pytest.raises(ValueError, match=message):
                min_l1(gammas[0], np.asarray(targets[0]))
        assert calls == []


class TestL1MinInputs:
    """One plant's minimum-l1 row, through the relaxation route on a subset."""

    def test_scalar_plant(self):
        res = solve_via_relaxation(scalar_instance([2.0, 3.0], capacity=1, horizon=2), plants=[0])
        np.testing.assert_allclose(res.logic.u, [[-2.0, 0.0], [0.0, 0.0]], atol=1e-9)

    def test_zero_state_gives_zero_inputs(self):
        # A = 0: the terminal target -A^T xi is zero, so the row is zero
        res = solve_via_relaxation(scalar_instance([0.0, 2.0], capacity=1, horizon=3), plants=[0])
        np.testing.assert_allclose(res.logic.u, np.zeros((2, 3)), atol=1e-12)
        assert res.supports == {0: ()}

    def test_horizon_at_dimension_rejected(self):
        # the short plant is the second one, in the second dimension group
        plants = (PlantDynamics([[2.0]], [1.0]), PlantDynamics([[1, 1], [0, 1]], [0, 1]))
        inst = NcsInstance(plants, (np.ones(1), np.array([1.0, 0.0])), capacity=1, horizon=2)
        with pytest.raises(HorizonTooShortError, match=r"\(1-based\): 2$"):
            solve_via_relaxation(inst)


class TestRipDelta:
    def test_identity_is_isometry(self):
        report = rip_delta(np.eye(5), 3)
        assert report.delta == 0.0
        assert report.certified

    def test_duplicate_columns(self):
        report = rip_delta(np.array([[1.0, 1.0]]), 2)
        np.testing.assert_allclose(report.delta, 1.0)
        assert not report.certified

    def test_scaled_orthonormal_columns(self):
        gamma = math.sqrt(2.0) * np.eye(3)
        report = rip_delta(gamma, 1)
        np.testing.assert_allclose(report.delta, 1.0)
        assert not report.certified

    def test_support_cap(self, monkeypatch):
        # C(5, 2) = 10 supports
        monkeypatch.setattr(ncsched.sparse, "RIP_SUPPORT_CAP", 10)
        assert rip_delta(np.eye(5), 2).certified
        monkeypatch.setattr(ncsched.sparse, "RIP_SUPPORT_CAP", 9)
        with pytest.raises(TooLargeError, match=r"^10 supports of size 2 exceed the cap of 9$"):
            rip_delta(np.eye(5), 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            rip_delta(np.eye(3), 4)
        for order in (True, 2.0):
            with pytest.raises(ValueError, match=f"^order must be an integer, got {order}$"):
                rip_delta(np.eye(3), order)
        assert rip_delta(np.eye(3), np.int64(2)) == rip_delta(np.eye(3), 2)

    @pytest.mark.parametrize("chunk_entries", [1 << 20, 12])
    def test_matches_per_support_loop(self, chunk_entries, monkeypatch):
        # 12 entries hold three order-2 supports: chunks end mid-enumeration
        monkeypatch.setattr(ncsched.sparse, "RIP_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(53)
        for _ in range(40):
            width = int(rng.integers(2, 9))
            gamma = rng.standard_normal((int(rng.integers(1, 7)), width))
            order = int(rng.integers(1, width + 1))
            assert rip_delta(gamma, order).delta == reference_rip_delta(gamma, order)
        # wide lifted matrices of an unstable plant: column norms span many decades
        p = PlantDynamics([[1.3, 0.4], [-0.2, 0.9]], [1.0, 0.5])
        for horizon in (40, 150):
            gamma = lifted_matrices(p.A[None], p.b[None], horizon)[0]
            assert rip_delta(gamma, 2).delta == reference_rip_delta(gamma, 2)
        # a column whose Gram entries overflow gives NaN spectra next to finite
        # ones; no isometry constant holds, so nothing is certified
        uncertified = RipReport(order=2, delta=math.inf, certified=False)
        gamma = rng.standard_normal((3, 7))
        gamma[:, 3] *= 1e160
        with np.errstate(all="ignore"):
            assert rip_delta(gamma, 2) == uncertified
            # every support overflowed: no finite spectrum is left to bound
            assert rip_delta(1e160 * rng.standard_normal((3, 4)), 2) == uncertified


class TestBruteForce:
    def test_two_plants_two_slots(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=2)
        logic = l0_feasible_bruteforce(inst)
        assert logic is not None
        assert verify_logic(inst, logic).verified

    def test_pigeonhole_infeasible(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=1)
        assert l0_feasible_bruteforce(inst) is None

    def test_three_plants_permutation(self):
        inst = scalar_instance([2.0, 3.0, 1.5], capacity=1, horizon=3)
        logic = l0_feasible_bruteforce(inst)
        assert logic is not None
        # one slot per plant
        assert (nonzero_entries(logic.u).sum(axis=1) == 1).all()
        assert verify_logic(inst, logic).verified

    def test_enumeration_cap(self):
        inst = scalar_instance([2.0] * 12, capacity=6, horizon=8)
        with pytest.raises(TooLargeError):
            l0_feasible_bruteforce(inst)

    def test_cap_checked_before_listing_access_sets(self, demo_instance, monkeypatch):
        # the demo has sum_k<=10 C(100, k) ~ 1.9e13 access sets; listing them
        # first would exhaust memory
        def refuse(*args):
            raise AssertionError("access sets listed before the cap check")

        monkeypatch.setattr(ncsched.sparse, "_access_sets", refuse)
        with pytest.raises(
            TooLargeError, match=r"^more than 1000000 access sets per slot \(100 plants, capacity 10\)$"
        ):
            l0_feasible_bruteforce(demo_instance)

    @pytest.mark.parametrize(
        "dims, capacity, horizon, feasible",
        [
            ((1, 2, 3, 4), 2, 5, True),
            ((2, 2, 1, 1), 2, 5, True),
            ((3, 3, 2), 1, 6, False),
            ((2, 2, 2), 1, 5, False),
        ],
    )
    def test_matches_full_walk(self, dims, capacity, horizon, feasible):
        for seed in range(4):
            inst = generate_instance(len(dims), capacity, horizon, list(dims), seed=seed).instance
            logic = l0_feasible_bruteforce(inst)
            expected = reference_bruteforce(inst)
            assert (logic is not None) == feasible
            assert (expected is not None) == feasible
            if feasible:
                assert np.array_equal(nonzero_entries(logic.u), nonzero_entries(expected.u))
                assert verify_logic(inst, logic).verified
                assert verify_logic(inst, expected).verified

    def test_mask_verdicts_are_the_verifiers(self):
        # desk-cascade instances: every plant's verdict on every slot mask is
        # verify_logic's verdict on the same row
        for seed in range(12345, 12365):
            inst = generate_instance(4, 2, 5, [1, 2, 3, 4], value_range=2.0, seed=seed).instance
            rows, ok = _mask_table(inst, split_open_loop(inst)[2], ZERO_RTOL, TERMINAL_RTOL)
            for mask in range(2**inst.horizon):
                outcome = verify_logic(inst, ControlLogic(rows[:, mask]))
                assert np.array_equal(ok[:, mask], outcome.terminal_residuals <= TERMINAL_RTOL)

    def test_decaying_mode_needs_no_input_to_reach_zero(self):
        # A = diag(2, 0.001): u_0 = -2 zeroes the unstable mode, and the stable
        # one decays to 1e-15 by T = 5, so slot {0} alone reaches zero; brute
        # force's mask table, the relaxation and the verifier all accept it
        plants = [PlantDynamics(np.diag([2.0, 0.001]), [1.0, 1.0]), PlantDynamics([[2.0]], [1.0])]
        inst = NcsInstance(plants, [[1.0, 1.0], [1.0]], capacity=1, horizon=5)
        rows, ok = _mask_table(inst, split_open_loop(inst)[2], ZERO_RTOL, TERMINAL_RTOL)
        assert ok[0, 0b00001]
        relaxed = solve_via_relaxation(inst, plants=[0])
        assert relaxed.supports[0] == (0,)
        for candidate in (rows[0, 0b00001], relaxed.logic.u[0]):
            row = np.zeros((2, 5))
            row[0] = candidate
            assert row[0, 0] == pytest.approx(-2.0)
            assert nonzero_entries(row[:1]).tolist() == [[True, False, False, False, False]]
            assert verify_logic(inst, ControlLogic(row)).terminal_residuals[0] <= TERMINAL_RTOL

    def test_unsteerable_plant_refused_without_full_walk(self, monkeypatch):
        # the last plant has no input, so no slot mask zeroes it; the walk
        # must refuse before entering any slot branch
        inst = scalar_instance([2.0, 3.0, 2.0], capacity=1, horizon=8, inputs=[1.0, 1.0, 0.0])

        class NoBranches:
            def __iter__(self):
                raise AssertionError("a slot branch was entered")

        monkeypatch.setattr(ncsched.sparse, "_access_sets", lambda n, capacity: NoBranches())
        assert l0_feasible_bruteforce(inst) is None

    def test_cap_message_stays_short_when_access_sets_pass_the_cap(self):
        # the scale-up family: summing C(4000, k) for k <= 400 in full gives a
        # 600-digit count
        dims = [2] * 2000 + [3] * 2000
        inst = generate_instance(4000, 400, 50, dims, seed=12345).instance
        with pytest.raises(TooLargeError) as err:
            l0_feasible_bruteforce(inst)
        assert str(err.value) == (
            "more than 1000000 access sets per slot (4000 plants, capacity 400)"
        )
        assert len(str(err.value)) < 200

    def test_cap_boundary(self, monkeypatch):
        # N=2, M=1: 3 access sets per slot, so T=2 gives exactly 3^2 = 9 assignments
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=2)
        monkeypatch.setattr(ncsched.sparse, "BRUTE_FORCE_CAP", 9)
        assert verify_logic(inst, l0_feasible_bruteforce(inst)).verified
        monkeypatch.setattr(ncsched.sparse, "BRUTE_FORCE_CAP", 8)
        with pytest.raises(TooLargeError, match=r"^3\^2 assignments exceed the cap of 8$"):
            l0_feasible_bruteforce(inst)

    def test_tolerances_are_keyword_only(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=2)
        with pytest.raises(TypeError):
            l0_feasible_bruteforce(inst, 1e-8)


class TestPlantedRecovery:
    def test_orthonormal_columns_recover_planted(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            width = int(rng.integers(6, 12))
            rows = width + int(rng.integers(0, 4))
            gamma, _ = np.linalg.qr(rng.standard_normal((rows, width)))
            s = int(rng.integers(1, 3))
            report = rip_delta(gamma, 2 * s)
            assert report.certified
            supp = rng.permutation(width)[:s]
            planted = np.zeros(width)
            planted[supp] = rng.uniform(0.5, 1.5, s) * rng.choice([-1.0, 1.0], s)
            u = min_l1(gamma, gamma @ planted)
            np.testing.assert_allclose(u, planted, atol=1e-6)
            oracle = l0_min_by_enumeration(gamma, gamma @ planted)
            np.testing.assert_allclose(oracle, planted, atol=1e-6)


class TestSolveViaRelaxation:
    def test_distinct_supports_verify(self):
        # |a|>1 prefers the earliest slot, |a|<1 the latest: supports differ
        inst = scalar_instance([2.0, 0.5], capacity=1, horizon=3)
        res = solve_via_relaxation(inst)
        assert res.supports[0] != res.supports[1]
        assert verify_logic(inst, res.logic).verified

    def test_colliding_supports_return_absent_with_solutions(self):
        # both rows are returned; the verifier rejects the collision
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=3)
        res = solve_via_relaxation(inst)
        assert res.supports == {0: (0,), 1: (0,)}
        outcome = verify_logic(inst, res.logic)
        assert not outcome.verified
        assert outcome.violations == (
            "capacity violation: slot 0 holds 2 plants, capacity is 1",
        )

    def test_horizon_at_dimension_rejected(self):
        inst = scalar_instance([2.0, 3.0], capacity=1, horizon=1)
        with pytest.raises(HorizonTooShortError):
            solve_via_relaxation(inst)

    def test_unreachable_plants_all_listed(self):
        inst = scalar_instance([2.0, 3.0, 1.5, 0.5], capacity=2, horizon=3, inputs=[0.0, 1.0, 0.0, 1.0])
        with pytest.raises(NotReachableError) as err:
            solve_via_relaxation(inst)
        assert err.value.plants == (0, 2)

    def test_one_lp_per_route_call(self, monkeypatch):
        calls = count_linprog(monkeypatch)
        inst = generate_instance(10, 2, 12, [2] * 5 + [3] * 5, value_range=2.0, seed=12345).instance
        res = solve_via_relaxation(inst)
        assert len(res.supports) == 10
        assert len(calls) == 1

    def test_overflowing_later_plant_fails_before_any_lp(self, monkeypatch):
        calls = count_linprog(monkeypatch)
        # the last plant's lifted matrix holds 1e200^2, which overflows
        inst = scalar_instance([2.0, 0.5, 1e200], capacity=2, horizon=3)
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match="lifted matrix overflowed"
        ):
            solve_via_relaxation(inst)
        assert calls == []

    @pytest.mark.parametrize("lifted_overflows", [True, False])
    def test_routes_raise_the_per_plant_overflow_in_its_order(self, lifted_overflows):
        # A = 1e26 at T = 12: the lifted matrix (up to 1e286) is finite but the
        # open-loop state 1e312 at T is not. The reachable 2-d plant's lifted
        # matrix reaches 1e14^11 * 1e160 and overflows, or stays small. Every
        # lifted matrix is checked before any state, across dimension groups.
        second = (
            PlantDynamics([[0.0, -1e14], [1e14, 0.0]], [1e160, 0.0]) if lifted_overflows
            else PlantDynamics(np.diag([2.0, 0.5]), [1.0, 1.0])
        )
        plants = (PlantDynamics([[1e26]], [1.0]), second)
        inst = NcsInstance(plants, (np.ones(1), np.ones(2)), capacity=1, horizon=12)
        with pytest.raises(NonFiniteError) as want:
            per_plant_systems(inst)
        assert str(want.value) == (
            "lifted matrix overflowed" if lifted_overflows
            else "open-loop state overflowed by step 12"
        )
        for route in (solve_via_relaxation, l0_feasible_bruteforce):
            with pytest.raises(NonFiniteError) as got:
                route(inst)
            assert str(got.value) == str(want.value)

    def test_routes_read_the_per_plant_systems_bit_for_bit(self):
        # desk-cascade instances: dimensions 1-4, one group each. The routes
        # read the same bits off a solve's scan, taken at any tolerances, as
        # off the scan they run themselves when given none
        for seed in range(12345, 12350):
            inst = generate_instance(4, 2, 5, [1, 2, 3, 4], value_range=2.0, seed=seed).instance
            want_rows, want_table = reference_relaxation_rows(inst), reference_mask_table(inst)
            own = l0_feasible_bruteforce(inst)
            passed = [split_open_loop(inst, zero_rtol=rtol, terminal_rtol=rtol)[2]
                      for rtol in (ZERO_RTOL, 1e-3)]
            for states in (None, *passed):
                relaxed = solve_via_relaxation(inst, states=states)
                assert relaxed.logic.u.tobytes() == want_rows.tobytes()
                brute = l0_feasible_bruteforce(inst, states=states)
                assert (brute is None) == (own is None)
                assert own is None or brute.u.tobytes() == own.u.tobytes()
            for states in passed:
                table = _mask_table(inst, states, ZERO_RTOL, TERMINAL_RTOL)
                for got, want in zip(table, want_table, strict=True):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("plants, message", [
        ([5], "plant index 5 is not in 0..2"),
        ([-1], "plant index -1 is not in 0..2"),
        ([2, 0, -1, 3], "plant index -1 is not in 0..2"),
        ([1.0], "plant index must be an integer, got 1.0"),
        (np.array([0, 1, 1]), "plant index 1 is listed twice"),
        ([0, 0], "plant index 0 is listed twice"),
        ([2, 1, 2], "plant index 2 is listed twice"),
        ([True], "plant index must be an integer, got True"),
        ([0.0], "plant index must be an integer, got 0.0"),
    ])
    def test_plants_it_cannot_serve_are_named(self, plants, message, monkeypatch):
        # checked before any reachability test, scan or LP
        calls = count_linprog(monkeypatch)
        inst = scalar_instance([2.0, 3.0, 0.5], capacity=1, horizon=3, inputs=[0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_via_relaxation(inst, plants=plants)
        assert calls == []

    def test_zero_tolerance_reaches_the_lp_polish(self, monkeypatch):
        seen = []
        stack = ncsched.sparse.min_l1_stack

        def recording(*args, **kwargs):
            seen.append(kwargs["zero_rtol"])
            return stack(*args, **kwargs)

        monkeypatch.setattr(ncsched.sparse, "min_l1_stack", recording)
        solve_instance(scalar_instance([2.0, 0.5], capacity=1, horizon=3), method="relax", zero_rtol=1e-5)
        assert seen == [1e-5]

    def test_rows_are_judged_only_by_the_verifier(self):
        # a row whose lifted-system residual (1.1e-7) is above 1e-8 relative
        # still ends within terminal_rtol of zero, so the route returns it
        inst = generate_instance(6, 2, 8, [2] * 6, value_range=2.0, seed=12374).instance
        res = solve_via_relaxation(inst)
        outcome = verify_logic(inst, res.logic)
        assert outcome.violations == ("capacity violation: slot 0 holds 6 plants, capacity is 2",)

    def test_uniqueness_reported_as_assumption(self):
        inst = scalar_instance([2.0, 0.5], capacity=1, horizon=3)
        with pytest.warns(UserWarning, match="^l1 minimizer uniqueness is assumed"):
            solve_via_relaxation(inst)

    def test_demo_family_reaches_grouping_stage(self, demo_instance):
        res = solve_via_relaxation(demo_instance)
        assert len(res.supports) == 100
        assert all(len(s) <= 3 for s in res.supports.values())
        # minimum-l1 bursts of unstable plants pile onto the earliest slots,
        # far past the capacity of 10
        outcome = verify_logic(demo_instance, res.logic)
        assert outcome.max_column_occupancy > 10
        assert any(v.startswith("capacity violation") for v in outcome.violations)

    def test_success_implies_bruteforce_feasible(self):
        rng = np.random.default_rng(41)
        agreements = 0
        for _ in range(12):
            gains = rng.choice([0.4, 0.6, 1.8, 2.5], size=2)
            inst = scalar_instance(gains, capacity=1, horizon=3)
            res = solve_via_relaxation(inst)
            if verify_logic(inst, res.logic).verified:
                assert l0_feasible_bruteforce(inst) is not None
                agreements += 1
        assert agreements > 0

    def test_overlapping_supports_within_capacity_verify(self):
        inst = triangle_instance()
        res = solve_via_relaxation(inst)
        assert res.supports == {0: (0, 1), 1: (1, 2), 2: (0, 2)}
        report = solve_instance(inst, method="relax")
        assert report.verified
        assert report.schedule == [[1, 3], [1, 2], [2, 3]]
        assert "groups" not in report.plan
        assert solve_instance(inst).method == "relaxation"
        assert solve_instance(inst, method="brute").schedule == [[1, 2], [1, 3], [2, 3]]
