import numpy as np
import pytest

from ncsched import NcsInstance, PlantDynamics, generate_instance
from ncsched.core import lifted_matrices, open_loop_scan, rank_and_cond

DEMO_SEED = 12345


def is_reachable(p):
    """numpy's full-rank verdict on the plant's Psi (``rank_and_cond``, one SVD),
    which an instance's group gives by certificate or by that SVD."""
    return bool(rank_and_cond(lifted_matrices(p.A[None], p.b[None], p.d))[0][0])


def count_factorizations(monkeypatch):
    """From now on, list each numpy SVD-based call made, as (name, number of
    matrices it factors)."""
    calls = []
    for name in ("svd", "matrix_rank"):
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, int(np.prod(np.shape(a)[:-2]))))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def open_loop_hit_times(A, xi, horizon, *tolerances):
    """The hit times of ``core.open_loop_scan``, without its states."""
    return open_loop_scan(A, xi, horizon, *tolerances)[0]


def step_left_to_right(A, x):
    """``A @ x`` for one plant, each entry's products summed left to right:
    the order of the stacked recursions' kernel (``core.column_step``)."""
    out = A[:, 0] * x[0]
    for j in range(1, len(x)):
        out = out + A[:, j] * x[j]
    return out


def norm_left_to_right(x):
    """One state's 2-norm, its squares summed left to right (``core.sum_squares``)."""
    total = x[0] * x[0]
    for entry in x[1:]:
        total = total + entry * entry
    return np.sqrt(total)


def random_reachable_plant(rng, d, unstable=False, value_range=2.0):
    """Rejection-sample a reachable (optionally Schur-unstable) plant."""
    while True:
        A = rng.uniform(-value_range, value_range, (d, d))
        b = rng.uniform(-value_range, value_range, d)
        p = PlantDynamics(A, b)
        if not is_reachable(p):
            continue
        if unstable and np.abs(np.linalg.eigvals(A)).max() <= 1 + 1e-9:
            continue
        return p


def companion_plant(d, gain=2.0):
    """Shift register closed through a gain: reachable, not nilpotent."""
    A = np.zeros((d, d))
    if d > 1:
        A[:-1, 1:] = np.eye(d - 1)
    A[-1, 0] = gain
    b = np.zeros(d)
    b[-1] = 1.0
    return PlantDynamics(A, b)


def scalar_instance(gains, capacity, horizon, inputs=None, states=None):
    """Instance of scalar plants x(t+1) = a x(t) + b u(t)."""
    gains = list(gains)
    inputs = [1.0] * len(gains) if inputs is None else list(inputs)
    states = [1.0] * len(gains) if states is None else list(states)
    plants = tuple(PlantDynamics([[a]], [b]) for a, b in zip(gains, inputs))
    xi = tuple(np.array([x]) for x in states)
    return NcsInstance(plants, xi, capacity=capacity, horizon=horizon)


def triangle_instance():
    """Three 2-d plants, M=2, T=3, with l1 supports {0,1}, {1,2} and {0,2}.

    Every slot holds two bursts, so the stacked rows keep the channel rule,
    yet no two of the three supports are disjoint.
    """
    plants = (
        PlantDynamics([[1.5, 1.7], [0.8, 0.2]], [1.7, -1.6]),
        PlantDynamics([[-0.7, 0.8], [-0.8, 1.0]], [-0.9, 1.1]),
        PlantDynamics([[1.5, -0.9], [0.4, 1.1]], [0.9, 1.7]),
    )
    xi = (np.array([-0.3, 0.2]), np.array([1.0, 1.0]), np.array([0.7, 0.8]))
    return NcsInstance(plants, xi, capacity=2, horizon=3)


def huge_initial_norm_instance():
    """A decaying 2-d plant whose initial norm, 2.1e308, passes the largest
    float although each entry is finite, plus a scalar A=2 plant; M=1, T=6.

    Left alone, the 2-d plant's state is about 2.3e306 at T: its zero row
    steers nothing to zero.
    """
    plants = (PlantDynamics(np.diag([0.5, 0.25]), [1.0, 1.0]), PlantDynamics([[2.0]], [1.0]))
    xi = (np.array([1.5e308, 1.5e308]), np.array([1.0]))
    return NcsInstance(plants, xi, capacity=1, horizon=6)


def one_burst_instance():
    """A 2-d plant that one input at slot 0 zeroes, plus a scalar plant; M=1, T=3.

    Each plant's l1 row has one nonzero: the 2-d plant's at slot 0, the
    scalar plant's at slot 2, so the relaxation route's plan reports
    sparsity 1 for both.
    """
    plants = (
        PlantDynamics([[2.0, 0.0], [0.0, 3.0]], [2.0, 3.0]),
        PlantDynamics([[0.5]], [1.0]),
    )
    return NcsInstance(plants, (np.array([1.0, 1.0]), np.array([1.0])), capacity=1, horizon=3)


@pytest.fixture(scope="session")
def demo_instance():
    """The mixed second/third-order family: N=100, M=10, T=50."""
    rec = generate_instance(
        n=100,
        capacity=10,
        horizon=50,
        dims=[2] * 50 + [3] * 50,
        value_range=2.0,
        seed=DEMO_SEED,
    )
    return rec.instance


@pytest.fixture
def mixed_dims_instance():
    """Four plants of dimensions 1..4 sharing a capacity-2 channel, T=7."""
    plants = tuple(companion_plant(d) for d in (1, 2, 3, 4))
    xi = tuple(np.full(d, 0.5) for d in (1, 2, 3, 4))
    return NcsInstance(plants, xi, capacity=2, horizon=7)
