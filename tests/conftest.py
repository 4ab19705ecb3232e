import os

# One BLAS thread, as the CLI and the benchmark run: the test process then has
# a single OS thread, which is when training forks its goal-selection worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from goalsel.data import Trajectory, TrajectoryDataset  # noqa: E402
from goalsel.envs import DemoGenConfig, generate_dataset  # noqa: E402
from goalsel.models import Regressor  # noqa: E402
from goalsel.training import TrainConfig, train  # noqa: E402


def make_traj(rng, length=8, obs_dim=2, act_dim=2, scale=1.0):
    """A random but valid goal-reaching trajectory."""
    rewards = np.zeros(length, dtype=np.float32)
    rewards[-1] = 1.0
    return Trajectory(
        states=rng.normal(0, scale, (length + 1, obs_dim)).astype(np.float32),
        actions=rng.normal(0, scale, (length, act_dim)).astype(np.float32),
        rewards=rewards,
    )


def make_dataset(rng, n_traj=5, lengths=None, obs_dim=2, act_dim=2):
    lengths = lengths if lengths is not None else [int(rng.integers(5, 15)) for _ in range(n_traj)]
    ds = TrajectoryDataset(obs_dim, act_dim, env_id="test-v0")
    for length in lengths:
        ds.append(make_traj(rng, length, obs_dim, act_dim))
    return ds


def goal_regressor(norm, **kwargs):
    """The goal predictor of ``iris_no_goal_vae``, named as build_models does."""
    return Regressor("reg", len(norm.state_mean), norm, norm.state_mean,
                     norm.state_std, **kwargs)


def bc_net(norm, **kwargs):
    """The ``bc`` policy net, named as build_models does."""
    return Regressor("bc", len(norm.state_mean), norm, norm.action_mean,
                     norm.action_std, **kwargs)


def small_train_config(variant="iris", **overrides):
    """Quick-training profile shared by the module tests."""
    base = dict(variant=variant, hidden_dim=24, enc_dim=24, batch_size=64,
                n_iter=1200, seed=0, ckpt_every=600, log_every=50)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_demo_set():
    """A 30-demo Graph Reach dataset plus its branch bookkeeping."""
    return generate_dataset(DemoGenConfig(n_demos=30, seed=21))


@pytest.fixture(scope="session")
def trained_iris_run(small_demo_set, tmp_path_factory):
    dataset, _ = small_demo_set
    result = train(dataset, small_train_config("iris"),
                   tmp_path_factory.mktemp("iris_run"))
    return result, dataset


@pytest.fixture(scope="session")
def trained_bcq_run(small_demo_set, tmp_path_factory):
    dataset, _ = small_demo_set
    result = train(dataset, small_train_config("bcq", n_iter=1500),
                   tmp_path_factory.mktemp("bcq_run"))
    return result, dataset
