import csv
import inspect
import json
import multiprocessing
import os
import platform
import re
import threading
import time

import numpy as np
import pytest

import goalsel
from goalsel import models as models_module
from goalsel import training as training_module
from goalsel.config import config_digest
from goalsel.models import (
    COMPONENTS,
    VARIANTS,
    ConditionalVAE,
    ModelSet,
    PolicyRNN,
    QNet,
    build_models,
)
from goalsel.procs import WORKER_STOP_TIMEOUT_S
from goalsel.training import (
    METRIC_COLUMNS,
    TIMING_COLUMNS,
    UPDATE_ORDER,
    TrainConfig,
    q_targets_batch,
    train,
    train_step,
)
from conftest import bc_net, flat_norm, make_dataset, small_train_config


def q_target(qnet, action_cvae, s_next, r, is_terminal, gamma, n_proposals, rng):
    """Scalar oracle of ``q_targets_batch``: the bootstrap target of one
    transition, enumerating its action proposals one by one.

    Non-terminal: ``r + gamma * max_i Q'(s_next, a_i)``; terminal: the
    absorbing-goal value ``r / (1 - gamma)``.
    """
    if n_proposals < 1:
        raise ValueError("need at least one action proposal")
    if is_terminal:
        return float(r) / (1.0 - gamma)
    s_next = np.asarray(s_next, dtype=np.float64)
    proposals = action_cvae.sample(s_next, n_proposals, rng)
    best = max(float(qnet.value(s_next[None], a[None], use_target=True)[0])
               for a in proposals)
    return float(r) + gamma * best


def action_cvae(hidden_dim, rng):
    """The action cVAE of ``build_models``' defaults on identity normalization."""
    norm = flat_norm()
    return ConditionalVAE(norm.action, norm.state, 4, 0.05, hidden_dim=hidden_dim, rng=rng)


def constant_qnet(rng, value):
    """A QNet whose online and target outputs are the given constant."""
    q = QNet(2, 2, flat_norm(), hidden_dim=4, rng=rng)
    for _, t in q.store:
        t.value[...] = 0.0
    q.store.params["q.l2.b"].value[...] = value
    from goalsel.models import polyak_update
    polyak_update(q, 1.0)
    return q


class TestQTarget:
    def test_terminal_absorbing_value(self, rng):
        q = constant_qnet(rng, 0.0)
        cvae = action_cvae(4, rng)
        value = q_target(q, cvae, np.zeros(2), 1.0, True, 0.99, 8, rng)
        assert np.float32(value) == np.float32(100.0)

    def test_nonterminal_constant_q(self, rng):
        q = constant_qnet(rng, 5.0)
        cvae = action_cvae(4, rng)
        value = q_target(q, cvae, np.zeros(2), 0.0, False, 0.9, 4, rng)
        assert np.isclose(value, 4.5)

    def test_gamma_zero_returns_reward(self, rng):
        q = constant_qnet(rng, 7.0)
        cvae = action_cvae(4, rng)
        assert q_target(q, cvae, np.zeros(2), 0.0, False, 0.0, 4, rng) == 0.0
        assert q_target(q, cvae, np.zeros(2), 1.0, True, 0.0, 4, rng) == 1.0

    def test_single_proposal_degenerates(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=4, rng=rng)
        cvae = action_cvae(4, rng)
        s = rng.normal(0, 1, 2)
        value = q_target(q, cvae, s, 0.0, False, 0.95, 1,
                         np.random.default_rng(3))
        proposal = cvae.sample(s, 1, np.random.default_rng(3))[0]
        assert value == 0.95 * q.value(s[None], proposal[None], use_target=True)[0]

    def test_matches_enumeration_oracle_exactly(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=5, rng=rng)
        cvae = action_cvae(5, rng)
        for i in range(100):
            s = rng.normal(0, 1, 2)
            r = float(rng.random())
            value = q_target(q, cvae, s, r, False, 0.97, 6,
                             np.random.default_rng(i))
            proposals = cvae.sample(s, 6, np.random.default_rng(i))
            expected = r + 0.97 * max(q.value(s[None], a[None], use_target=True)[0]
                                      for a in proposals)
            assert value == expected  # bit-exact: same floating-point path

    def test_monotone_in_proposal_count(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=5, rng=rng)
        cvae = action_cvae(5, rng)
        for i in range(30):
            s = rng.normal(0, 1, 2)
            small = q_target(q, cvae, s, 0.0, False, 0.97, 3,
                             np.random.default_rng(i))
            big = q_target(q, cvae, s, 0.0, False, 0.97, 9,
                           np.random.default_rng(i))
            assert big >= small

    def test_batch_helper_matches_single(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=5, rng=rng)
        cvae = action_cvae(5, rng)
        for i in range(20):
            s = rng.normal(0, 1, (1, 2))
            batched = q_targets_batch(q, cvae, s, [0.3], [False], 0.9, 5,
                                      np.random.default_rng(i))
            single = q_target(q, cvae, s[0], 0.3, False, 0.9, 5,
                              np.random.default_rng(i))
            assert np.isclose(batched[0], single, rtol=1e-12, atol=1e-12)

    def test_needs_positive_proposals(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=4, rng=rng)
        cvae = action_cvae(4, rng)
        with pytest.raises(ValueError, match="proposal"):
            q_target(q, cvae, np.zeros(2), 0.0, False, 0.9, 0, rng)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"variant": "nope"}, {"t_window": 1}, {"gamma": 1.0},
        {"m_proposals": 0}, {"tau": 1.5}, {"lr": 0.0},
        {"hidden_dim": 0}, {"enc_dim": 0}, {"goal_latent": 0}, {"action_latent": 0},
        {"lr": float("nan")}, {"lr": float("inf")}, {"beta_g": float("nan")},
        {"beta_a": float("inf")}, {"seed": -1},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()

    def test_sample_t_for_one_step_variants(self):
        assert TrainConfig(variant="bc").sample_t == 1
        assert TrainConfig(variant="bcq").sample_t == 1
        assert TrainConfig(variant="iris", t_window=8).sample_t == 8
        assert TrainConfig(variant="bc_rnn", t_window=8).sample_t == 8
        assert TrainConfig(variant="iris_no_goal_vae", t_window=8).sample_t == 8


class TestTrainStep:
    def test_losses_present_per_variant(self, small_demo_set):
        dataset, _ = small_demo_set
        expected = {
            "iris": {"loss_policy", "loss_goal_recon", "loss_goal_kl",
                     "loss_action_recon", "loss_action_kl", "loss_q", "q_mean"},
            "iris_no_q": {"loss_policy", "loss_goal_recon", "loss_goal_kl"},
            "iris_no_goal_vae": {"loss_policy", "loss_goal_recon"},
            "bc": {"loss_policy"},
            "bc_rnn": {"loss_policy"},
            "bcq": {"loss_action_recon", "loss_action_kl", "loss_q", "q_mean"},
        }
        for variant, keys in expected.items():
            cfg = small_train_config(variant, n_iter=1)
            models = build_models(variant, 2, 2, dataset.norm_stats,
                                  hidden_dim=8, enc_dim=8,
                                  rng=np.random.default_rng(0))
            losses = train_step(models, dataset, cfg, np.random.default_rng(1))
            assert set(losses) == keys, variant
            assert list(losses) == [c for c in METRIC_COLUMNS if c in keys], variant

    def test_deterministic_loss_records(self, small_demo_set):
        dataset, _ = small_demo_set
        cfg = small_train_config("iris", n_iter=1)

        def run():
            models = build_models("iris", 2, 2, dataset.norm_stats, hidden_dim=8,
                                  enc_dim=8, rng=np.random.default_rng(3))
            step_rng = np.random.default_rng(4)
            return [train_step(models, dataset, cfg, step_rng)
                    for _ in range(100)]

        assert run() == run()  # bit-identical floats

    def test_ablations_leave_other_gradients_unchanged(self, small_demo_set,
                                                      monkeypatch):
        # no parameter moves, so the gradients stay in the stores
        monkeypatch.setattr(training_module, "adam_step", lambda store, lr: store)
        monkeypatch.setattr(training_module, "polyak_update", lambda qnet, tau: qnet)
        dataset, _ = small_demo_set
        cfg_full = small_train_config("iris", n_iter=1)
        cfg_ablated = small_train_config("iris_no_q", n_iter=1)

        def grads(variant, cfg):
            models = build_models(variant, 2, 2, dataset.norm_stats,
                                  hidden_dim=8, enc_dim=8,
                                  rng=np.random.default_rng(3))
            train_step(models, dataset, cfg, np.random.default_rng(4))
            return models

        full = grads("iris", cfg_full)
        ablated = grads("iris_no_q", cfg_ablated)
        for part in ("policy", "goal_cvae"):
            for name, t in full[part].store:
                assert np.array_equal(t.grad, ablated[part].store.params[name].grad)

    def test_update_units_hold_each_component_once(self):
        assert sorted(UPDATE_ORDER) == sorted(COMPONENTS)
        # the Q targets sample from the action cVAE after its update
        assert UPDATE_ORDER.index("action_cvae") < UPDATE_ORDER.index("qnet")

    def test_q_all_transitions_flag(self, small_demo_set):
        dataset, _ = small_demo_set
        cfg = small_train_config("iris", n_iter=1, q_all_transitions=True)
        models = build_models("iris", 2, 2, dataset.norm_stats, hidden_dim=8,
                              enc_dim=8, rng=np.random.default_rng(0))
        losses = train_step(models, dataset, cfg, np.random.default_rng(1))
        assert np.isfinite(losses["loss_q"])


class TestTrainLoop:
    def test_zero_iterations_initial_checkpoint_only(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        result = train(dataset, small_train_config("bc", n_iter=0), tmp_path / "r")
        assert [p.name for p in result.checkpoints] == ["ckpt_0000000.bin"]
        assert result.metrics_path.read_text().strip() == ",".join(METRIC_COLUMNS)

    def test_policy_loss_halves(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        cfg = small_train_config("iris_no_q", n_iter=2000, log_every=25)
        result = train(dataset, cfg, tmp_path / "r")
        metrics = np.genfromtxt(result.metrics_path, delimiter=",", names=True, ndmin=1)
        early = metrics["loss_policy"][metrics["iter"] <= 100].mean()
        late = metrics["loss_policy"][-4:].mean()
        assert late <= 0.5 * early

    def test_same_seed_identical_checkpoints(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        cfg = small_train_config("bcq", n_iter=60, ckpt_every=30)
        a = train(dataset, cfg, tmp_path / "a")
        b = train(dataset, cfg, tmp_path / "b")
        for pa, pb in zip(a.checkpoints, b.checkpoints):
            assert pa.read_bytes() == pb.read_bytes()
        assert a.metrics_path.read_text() == b.metrics_path.read_text()

    def test_checkpoint_cadence(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        cfg = small_train_config("bc", n_iter=50, ckpt_every=20)
        result = train(dataset, cfg, tmp_path / "r")
        names = [p.name for p in result.checkpoints]
        assert names == ["ckpt_0000000.bin", "ckpt_0000020.bin",
                         "ckpt_0000040.bin", "ckpt_0000050.bin"]

    def test_refuses_run_dir_with_checkpoints(self, small_demo_set, tmp_path):
        # a shorter second run would leave the first run's later checkpoints
        dataset, _ = small_demo_set
        run_dir = tmp_path / "r"
        train(dataset, small_train_config("bc", n_iter=6, ckpt_every=3), run_dir)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        with pytest.raises(ValueError, match=re.escape(str(run_dir))):
            train(dataset, small_train_config("bc", n_iter=4, ckpt_every=3), run_dir)
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.parametrize("cfg, lengths, match", [
        (small_train_config("iris", t_window=15), [5, 14, 9], "window of length 15"),
        (small_train_config("bc"), [], "window of length 1"),
    ], ids=["too-short", "empty"])
    def test_unusable_dataset_refused_before_writing(self, tmp_path, rng, cfg,
                                                     lengths, match):
        # refused after writing, a retry into the same directory would be refused too
        with pytest.raises(ValueError, match=match):
            train(make_dataset(rng, lengths=lengths), cfg, tmp_path / "r")
        assert not (tmp_path / "r").exists()

    def test_non_finite_parameter_blocks_checkpoint(self, small_demo_set, tmp_path,
                                                     monkeypatch):
        dataset, _ = small_demo_set
        real_step = training_module.train_step
        calls = []

        def corrupting_step(models, *args, **kwargs):
            # the loss of step 3 stays finite; only its update goes bad
            calls.append(1)
            losses = real_step(models, *args, **kwargs)
            if len(calls) == 3:
                models["bc"].store.params["bc.l0.W"].value[0, 0] = np.nan
            return losses

        monkeypatch.setattr(training_module, "train_step", corrupting_step)
        cfg = small_train_config("bc", n_iter=6, ckpt_every=3)
        with pytest.raises(FloatingPointError, match="bc.l0.W"):
            train(dataset, cfg, tmp_path / "r")
        assert [p.name for p in sorted((tmp_path / "r").glob("ckpt_*.bin"))] == \
            ["ckpt_0000000.bin"]

    def test_metrics_rows_survive_a_failed_run(self, small_demo_set, tmp_path,
                                               monkeypatch):
        dataset, _ = small_demo_set
        real_step = training_module.train_step
        calls = []

        def failing_step(*args, **kwargs):
            calls.append(1)
            losses = real_step(*args, **kwargs)
            return {"loss_policy": np.nan} if len(calls) == 5 else losses

        monkeypatch.setattr(training_module, "train_step", failing_step)
        cfg = small_train_config("bc", n_iter=10, log_every=2)
        with pytest.raises(FloatingPointError, match="iteration 5"):
            train(dataset, cfg, tmp_path / "r")
        metrics = np.genfromtxt(tmp_path / "r" / "metrics.csv", delimiter=",",
                                names=True, ndmin=1)
        assert list(metrics["iter"]) == [2.0, 4.0]
        assert np.all(np.isfinite(metrics["loss_policy"]))

    def test_manifest_records_run(self, small_demo_set, tmp_path, monkeypatch):
        dataset, _ = small_demo_set
        cfg = small_train_config("iris", n_iter=3, hidden_dim=8, enc_dim=8)
        train(dataset, cfg, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["config_digest"] == config_digest(cfg)
        assert manifest["dataset_sha256"] is None  # generated in memory
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["versions"] == {
            "goalsel": goalsel.__version__, "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "python": platform.python_version()}
        assert manifest["dtypes"] == {
            "policy": "float32", "goal_cvae": "float64", "action_cvae": "float64",
            "qnet": "float64", "qnet_target": "float64"}
        assert manifest["start_time"] <= manifest["end_time"]

        def failing_step(*args, **kwargs):
            raise FloatingPointError("step failed")

        monkeypatch.setattr(training_module, "train_step", failing_step)
        with pytest.raises(FloatingPointError):
            train(dataset, cfg, tmp_path / "failed")
        manifest = json.loads((tmp_path / "failed" / "manifest.json").read_text())
        assert manifest["start_time"] and manifest["end_time"] is None

    def test_returned_policy_keeps_no_unroll_cache(self, small_demo_set, tmp_path,
                                                   monkeypatch):
        dataset, _ = small_demo_set
        cfg = small_train_config("iris", n_iter=3, batch_size=16, hidden_dim=8,
                                 enc_dim=8)
        real_step = training_module.train_step
        during = []

        def recording_step(models, *args, **kwargs):
            losses = real_step(models, *args, **kwargs)
            during.append(id(models["policy"]._caches[cfg.t_window, cfg.batch_size]))
            return losses

        monkeypatch.setattr(training_module, "train_step", recording_step)
        policy = train(dataset, cfg, tmp_path / "r").models["policy"]
        assert len(set(during)) == 1  # kept across the steps of the run
        assert policy._caches == {}
        states = dataset.stacked_states[:1]
        policy.step(policy.init_hidden(), states, states)
        assert list(policy._caches) == [(1, 1)]

    def test_metrics_columns_spec(self, trained_iris_run):
        result, _ = trained_iris_run
        header = result.metrics_path.read_text().splitlines()[0]
        assert header == ",".join(METRIC_COLUMNS)
        metrics = np.genfromtxt(result.metrics_path, delimiter=",", names=True, ndmin=1)
        assert np.all(np.isfinite(metrics["loss_policy"]))
        assert np.all(np.isfinite(metrics["q_mean"]))


def tiny_config(variant, **overrides):
    """A few steps at the smallest sizes, for the worker tests."""
    base = dict(hidden_dim=8, enc_dim=8, batch_size=16, n_iter=6, ckpt_every=3,
                log_every=2)
    base.update(overrides)
    return small_train_config(variant, **base)


def gate(monkeypatch, is_open):
    monkeypatch.setattr(training_module, "_can_fork", lambda models: is_open)


def read_timings(run_dir):
    with open(run_dir / "timings.csv", newline="") as fh:
        return list(csv.reader(fh))


class TestSplitWorker:
    @pytest.fixture(autouse=True)
    def cpu_mask_kept(self):
        # the pinned split leaves this process's CPU mask as it found it, after
        # normal and failed runs alike
        mask = os.sched_getaffinity(0)
        yield
        assert os.sched_getaffinity(0) == mask

    @pytest.mark.parametrize("variant", ["iris", "iris_no_q", "bcq", "iris_no_goal_vae"])
    def test_split_matches_serial(self, small_demo_set, tmp_path, monkeypatch,
                                  variant):
        self.check_split_matches_serial(small_demo_set, tmp_path, monkeypatch, variant)

    @pytest.mark.parametrize("m", [1, 3])
    def test_bcq_split_matches_serial_at_odd_and_unit_m(self, small_demo_set, tmp_path,
                                                        monkeypatch, m):
        # the worker takes ceil(m / 2) proposals; at m = 1 this process's half is empty
        self.check_split_matches_serial(small_demo_set, tmp_path, monkeypatch, "bcq",
                                        m_proposals=m)

    @staticmethod
    def check_split_matches_serial(small_demo_set, tmp_path, monkeypatch, variant,
                                   **overrides):
        dataset, _ = small_demo_set
        cfg = tiny_config(variant, **overrides)
        results = {}
        for mode in ("split", "serial"):
            gate(monkeypatch, mode == "split")
            results[mode] = train(dataset, cfg, tmp_path / mode)
        split, serial = results["split"], results["serial"]
        assert [p.name for p in split.checkpoints] == [p.name for p in serial.checkpoints]
        for a, b in zip(split.checkpoints, serial.checkpoints):
            assert a.read_bytes() == b.read_bytes()
        assert split.metrics_path.read_bytes() == serial.metrics_path.read_bytes()
        serial_stores = serial.models.stores()
        for prefix, store in split.models.stores().items():
            other = serial_stores[prefix]
            assert store.step_count == other.step_count == (
                0 if prefix == "qnet_target" else cfg.n_iter)
            assert list(store.params) == list(other.params)
            assert store.buffer.tobytes() == other.buffer.tobytes()
        # one timings row per metrics row; only the split run waits on a worker
        for mode, result in results.items():
            header, *rows = read_timings(result.out_dir)
            assert tuple(header) == TIMING_COLUMNS
            assert [r[0] for r in rows] == ["2", "4", "6"]
            filled = {col for r in rows for col, cell in zip(header, r) if cell}
            expected = {"iter", "sample", "faults"} | {
                {"bc": "policy", "qnet": "q"}.get(name, name) for name in VARIANTS[variant]}
            if mode == "split":
                expected.add("wait")
            assert filled == expected
        assert multiprocessing.active_children() == []

    def test_worker_failure_raised_in_parent(self, small_demo_set, tmp_path,
                                             monkeypatch):
        dataset, _ = small_demo_set

        def failing_q(self, *args, **kwargs):
            raise ArithmeticError("q update exploded")

        monkeypatch.setattr(QNet, "loss_and_grad", failing_q)
        gate(monkeypatch, True)
        with pytest.raises(RuntimeError, match="q update exploded"):
            train(dataset, tiny_config("iris"), tmp_path / "r")
        assert multiprocessing.active_children() == []
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["end_time"] is None

    def test_worker_failure_in_its_half_raised_in_parent(self, small_demo_set, tmp_path,
                                                          monkeypatch):
        # the parent updates the action cVAE and waits for the worker's half
        dataset, _ = small_demo_set
        parent = os.getpid()
        real = QNet.value

        def value(self, *args, **kwargs):
            if os.getpid() != parent:
                raise ArithmeticError("half exploded")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(QNet, "value", value)
        gate(monkeypatch, True)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="half exploded"):
            train(dataset, tiny_config("bcq"), tmp_path / "r")
        assert time.perf_counter() - started < WORKER_STOP_TIMEOUT_S / 4
        assert multiprocessing.active_children() == []

    def test_parent_failure_in_bcq_step_stops_waiting_worker(self, small_demo_set,
                                                              tmp_path, monkeypatch):
        # the worker waits for a half that never opens
        dataset, _ = small_demo_set
        real = ConditionalVAE.loss_and_grad
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("step failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(ConditionalVAE, "loss_and_grad", failing)
        gate(monkeypatch, True)
        started = time.perf_counter()
        with pytest.raises(FloatingPointError, match="step failed"):
            train(dataset, tiny_config("bcq"), tmp_path / "r")
        assert time.perf_counter() - started < WORKER_STOP_TIMEOUT_S / 4
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["train_step", "policy", "q"])
    def test_parent_failure_stops_worker(self, small_demo_set, tmp_path,
                                         monkeypatch, where):
        # a failing policy update leaves the worker in the middle of its step;
        # a failing Q update is one of bcq's parent, after the worker's half
        dataset, _ = small_demo_set
        owner, name = {"train_step": (training_module, "train_step"),
                       "policy": (PolicyRNN, "loss_and_grad"),
                       "q": (QNet, "loss_and_grad")}[where]
        real = getattr(owner, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("step failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)
        gate(monkeypatch, True)
        with pytest.raises(FloatingPointError, match="step failed"):
            train(dataset, tiny_config("bcq" if where == "q" else "iris"), tmp_path / "r")
        assert multiprocessing.active_children() == []

    def test_worker_with_foreign_rng_rejected(self, small_demo_set):
        dataset, _ = small_demo_set
        cfg = tiny_config("iris")
        models = build_models("iris", 2, 2, dataset.norm_stats, hidden_dim=8,
                              enc_dim=8, rng=np.random.default_rng(0))
        worker = training_module._Worker(models, dataset, cfg,
                                         np.random.default_rng(1))
        try:
            with pytest.raises(ValueError, match="rng"):
                train_step(models, dataset, cfg, np.random.default_rng(1),
                           worker=worker)
            losses = train_step(models, dataset, cfg, worker.rng, worker=worker)
            assert set(losses) >= {"loss_policy", "loss_q"}
        finally:
            worker.stop()
        assert multiprocessing.active_children() == []

    def test_worker_pins_both_processes_to_distinct_cpus(self, small_demo_set):
        dataset, _ = small_demo_set
        mask = os.sched_getaffinity(0)
        if len(mask) < 2:
            pytest.skip("needs two CPUs")
        models = build_models("bcq", 2, 2, dataset.norm_stats, hidden_dim=8,
                              rng=np.random.default_rng(0))
        worker = training_module._Worker(models, dataset, tiny_config("bcq"),
                                         np.random.default_rng(0))
        try:
            here, there = os.sched_getaffinity(0), os.sched_getaffinity(worker.process.pid)
        finally:
            worker.stop()
        assert len(here) == len(there) == 1 and here | there <= mask and here != there

    @pytest.mark.parametrize("variant", ["iris", "iris_no_q", "iris_no_goal_vae", "bcq"])
    def test_each_process_keeps_its_role(self, small_demo_set, tmp_path, monkeypatch,
                                         variant):
        # patched before the fork, so the worker logs its updates and halves too
        dataset, _ = small_demo_set
        log = tmp_path / "log"
        real_update, real_serve = training_module._update, models_module.serve

        def record(name):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {name}\n")

        def update(models, name, *args):
            record(name)
            return real_update(models, name, *args)

        def serve(conn, half, fn):  # the loop of the bcq worker's half
            return real_serve(conn, half, lambda *inputs: record("half") or fn(*inputs))

        monkeypatch.setattr(training_module, "_update", update)
        monkeypatch.setattr(models_module, "serve", serve)
        gate(monkeypatch, True)
        cfg = tiny_config(variant)
        train(dataset, cfg, tmp_path / "r")
        runs: dict[bool, list[str]] = {}
        pids = set()
        for line in log.read_text().splitlines():
            pid, name = line.split()
            pids.add(pid)
            runs.setdefault(int(pid) == os.getpid(), []).append(name)
        parent = {"policy"} if "policy" in VARIANTS[variant] else {"action_cvae", "qnet"}
        worker = set(VARIANTS[variant]) - parent or {"half"}  # bcq: the half, each step
        assert len(pids) == 2
        assert sorted(runs[True]) == sorted(list(parent) * cfg.n_iter)
        assert sorted(runs[False]) == sorted(list(worker) * cfg.n_iter)

    @pytest.mark.parametrize("variant", ["bc", "bc_rnn"])
    def test_gate_shut_without_policy_and_partner(self, small_demo_set, variant):
        dataset, _ = small_demo_set
        models = build_models(variant, 2, 2, dataset.norm_stats, hidden_dim=8,
                              rng=np.random.default_rng(0))
        assert not training_module._can_fork(models)

    def test_gate_opens_for_bcq(self, small_demo_set, monkeypatch):
        # the two processes split the Q targets' proposals
        dataset, _ = small_demo_set
        models = build_models("bcq", 2, 2, dataset.norm_stats, hidden_dim=8,
                              rng=np.random.default_rng(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert training_module._can_fork(models)

    def test_gate_shut_without_policy_or_action_cvae(self, monkeypatch):
        # no process would ever open a Q-target half for the worker to serve
        rng = np.random.default_rng(0)
        models = ModelSet([("qnet", QNet(2, 2, flat_norm(), hidden_dim=4, rng=rng)),
                           ("bc", bc_net(flat_norm(), hidden_dim=4, rng=rng))])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert not training_module._can_fork(models)

    def test_gate_shut_on_one_cpu_or_second_thread(self, small_demo_set,
                                                   monkeypatch):
        # the test process runs with BLAS pinned to one thread (conftest.py)
        dataset, _ = small_demo_set
        models = build_models("iris", 2, 2, dataset.norm_stats, hidden_dim=8,
                              rng=np.random.default_rng(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert training_module._can_fork(models)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert not training_module._can_fork(models)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not training_module._can_fork(models)


class TestOfflinePurity:
    def test_training_module_never_imports_envs(self):
        source = inspect.getsource(training_module)
        assert "envs" not in source
        assert not any("envs" in m for m in
                       getattr(training_module, "__all__", []))


class TestSampleActionsOnTrainedModel:
    def test_proposals_near_dataset_actions(self, trained_bcq_run):
        """Median nearest-neighbor distance from action proposals to dataset
        actions near the conditioning state stays below the dataset's own
        action dispersion there."""
        result, dataset = trained_bcq_run
        cvae = result.models["action_cvae"]
        rng = np.random.default_rng(5)
        traj = dataset.trajectories[0]
        t = traj.length // 2
        state = traj.states[t].astype(np.float64)
        # dataset actions observed within a small ball around the state
        all_states = np.concatenate([tr.states[:-1] for tr in dataset])
        all_actions = np.concatenate([tr.actions for tr in dataset])
        near = np.linalg.norm(all_states - state, axis=1) < 0.05
        neighborhood = all_actions[near].astype(np.float64)
        assert len(neighborhood) >= 10
        proposals = cvae.sample(state, 50, rng)
        dists = np.array([np.linalg.norm(neighborhood - p, axis=1).min()
                          for p in proposals])
        dispersion = np.linalg.norm(
            neighborhood - neighborhood.mean(axis=0), axis=1).mean()
        assert np.median(dists) < dispersion
