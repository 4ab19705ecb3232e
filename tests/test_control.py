import math

import numpy as np
import pytest

from goalsel.control import (
    BCController,
    BCQController,
    BCRNNController,
    HierarchicalController,
    make_policy,
)
from goalsel.data import NormStats
from goalsel.envs import make_env
from goalsel.evaluation import rollout
from goalsel.models import VARIANTS, GoalCVAE, build_models
from goalsel.nn import adam_step
from conftest import bc_net, goal_regressor


def flat_norm(obs_dim=2, act_dim=2):
    return NormStats(state_mean=np.zeros(obs_dim), state_std=np.ones(obs_dim),
                     action_mean=np.zeros(act_dim), action_std=np.ones(act_dim))


class StubPolicy:
    """Emits a fixed action and a dummy hidden state."""

    def __init__(self, action=(0.0, 0.0)):
        self.action = np.asarray(action, dtype=np.float64)

    def init_hidden(self, batch=1):
        return np.zeros((batch, 1))

    def step(self, hidden, s, goal=None):
        return self.action[None].copy(), hidden


class StubGoalCVAE:
    """Returns fixed proposals, ignoring the rng."""

    def __init__(self, proposals):
        self.proposals = np.asarray(proposals, dtype=np.float64)

    def sample(self, s, n, rng):
        return self.proposals[:n].copy()


class StubActionCVAE:
    def __init__(self, act_dim=2):
        self.act_dim = act_dim

    def sample_each(self, goals, m, rng):
        return np.zeros((m, len(goals), self.act_dim))

    def sample(self, s, n, rng):
        return np.zeros((n, self.act_dim))


class StubQ:
    """Scores (s, a) with an arbitrary function of the state rows."""

    def __init__(self, fn):
        self.fn = fn

    def value(self, s, a, use_target=False):
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        return np.array([self.fn(row) for row in s])


class TestSelectGoal:
    def test_single_proposal_ignores_q(self, rng):
        proposals = rng.normal(0, 1, (1, 2))
        ctrl = HierarchicalController(
            StubPolicy(), 5, goal_cvae=StubGoalCVAE(proposals),
            action_cvae=StubActionCVAE(), qnet=StubQ(lambda s: -123.0), n_goals=1)
        goal, score = ctrl.select_goal(np.zeros(2), rng)
        assert np.array_equal(goal, proposals[0])

    def test_enumeration_oracle_five_proposals(self, rng):
        proposals = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1],
                              [0.3, 0.3], [0.7, 0.7]])
        target = np.array([0.9, 0.1])
        q = StubQ(lambda s: -float(np.linalg.norm(s - target)))
        ctrl = HierarchicalController(
            StubPolicy(), 5, goal_cvae=StubGoalCVAE(proposals),
            action_cvae=StubActionCVAE(), qnet=q, n_goals=5)
        goal, score = ctrl.select_goal(np.zeros(2), rng)
        scores = [-float(np.linalg.norm(p - target)) for p in proposals]
        assert np.array_equal(goal, proposals[int(np.argmax(scores))])
        assert np.array_equal(goal, proposals[2])

    def test_argmax_invariant_under_monotone_transform(self, rng):
        proposals = rng.normal(0, 1, (6, 2))
        base = lambda s: float(np.sin(s[0]) + 0.5 * s[1])
        ctrl_a = HierarchicalController(
            StubPolicy(), 5, goal_cvae=StubGoalCVAE(proposals),
            action_cvae=StubActionCVAE(), qnet=StubQ(base), n_goals=6)
        ctrl_b = HierarchicalController(
            StubPolicy(), 5, goal_cvae=StubGoalCVAE(proposals),
            action_cvae=StubActionCVAE(),
            qnet=StubQ(lambda s: math.exp(2.0 * base(s)) + 3.0), n_goals=6)
        goal_a, _ = ctrl_a.select_goal(np.zeros(2), np.random.default_rng(0))
        goal_b, _ = ctrl_b.select_goal(np.zeros(2), np.random.default_rng(0))
        assert np.array_equal(goal_a, goal_b)

    def test_tie_break_lowest_index(self, rng):
        proposals = rng.normal(0, 1, (4, 2))
        ctrl = HierarchicalController(
            StubPolicy(), 5, goal_cvae=StubGoalCVAE(proposals),
            action_cvae=StubActionCVAE(), qnet=StubQ(lambda s: 1.0), n_goals=4)
        goal, _ = ctrl.select_goal(np.zeros(2), rng)
        assert np.array_equal(goal, proposals[0])


class TestActCadence:
    def test_t_one_selects_every_step(self, rng):
        ctrl = HierarchicalController(
            StubPolicy(), 1,
            goal_cvae=StubGoalCVAE(rng.normal(0, 1, (1, 2))))
        for _ in range(7):
            ctrl.act(np.zeros(2), rng)
        assert [e.step for e in ctrl.goal_log] == list(range(7))

    def test_goal_held_for_t_steps_then_reselected(self, rng):
        ctrl = HierarchicalController(
            StubPolicy(), 4,
            goal_cvae=StubGoalCVAE(rng.normal(0, 1, (1, 2))))
        for _ in range(9):
            ctrl.act(np.zeros(2), rng)
        assert [e.step for e in ctrl.goal_log] == [0, 4, 8]

    def test_goal_log_count_for_horizon(self, rng):
        # ceil(H / T) goals for an H-step rollout
        for horizon, t_segment in [(20, 4), (21, 4), (7, 10)]:
            ctrl = HierarchicalController(
                StubPolicy(), t_segment,
                goal_cvae=StubGoalCVAE(rng.normal(0, 1, (1, 2))))
            for _ in range(horizon):
                ctrl.act(np.zeros(2), rng)
            assert len(ctrl.goal_log) == math.ceil(horizon / t_segment)

    def test_reset_clears_state(self, rng):
        ctrl = HierarchicalController(
            StubPolicy(), 3,
            goal_cvae=StubGoalCVAE(rng.normal(0, 1, (1, 2))))
        for _ in range(5):
            ctrl.act(np.zeros(2), rng)
        ctrl.reset()
        assert ctrl.goal_log == []
        ctrl.act(np.zeros(2), rng)
        assert ctrl.goal_log[0].step == 0


class TestTrainedControllerRollouts:
    def test_seeded_rollout_replay_identical(self, trained_iris_run):
        result, dataset = trained_iris_run
        env = make_env(dataset.env_id)

        def run():
            policy = make_policy(result.models, t_segment=10, n_goals=20,
                                 m_actions=5)
            rec = rollout(env, policy, 300, np.random.default_rng(8))
            return rec.actions

        assert np.array_equal(run(), run())

    def test_goal_changes_only_at_segment_boundaries(self, trained_iris_run):
        result, dataset = trained_iris_run
        env = make_env(dataset.env_id)
        policy = make_policy(result.models, t_segment=10, n_goals=20, m_actions=5)
        rec = rollout(env, policy, 200, np.random.default_rng(3))
        assert all(e.step % 10 == 0 for e in rec.goal_log)

    def test_no_q_matches_value_mode_under_constant_q(self, trained_iris_run):
        result, dataset = trained_iris_run
        env = make_env(dataset.env_id)
        models = result.models
        const_q = HierarchicalController(
            models["policy"], 10, goal_cvae=models["goal_cvae"],
            action_cvae=models["action_cvae"], qnet=StubQ(lambda s: 0.0),
            n_goals=16, m_actions=4)
        sampled = HierarchicalController(models["policy"], 10,
                                         goal_cvae=models["goal_cvae"])
        rec_a = rollout(env, const_q, 150, np.random.default_rng(12))
        rec_b = rollout(env, sampled, 150, np.random.default_rng(12))
        assert rec_a.length == rec_b.length
        assert np.allclose(rec_a.actions, rec_b.actions, atol=1e-8)


class TestGoalRegressorMode:
    def test_zero_regressor_proposes_mean_state(self, small_demo_set, rng):
        dataset, _ = small_demo_set
        norm = dataset.norm_stats
        reg = goal_regressor(norm, hidden_dim=6, rng=rng)
        for _, t in reg.store:
            t.value[...] = 0.0
        ctrl = HierarchicalController(StubPolicy(), 5, goal_regressor=reg)
        ctrl.act(np.array([0.5, 0.9]), rng)
        assert np.allclose(ctrl.goal_log[0].goal, norm.state_mean)

    def test_goal_is_exact_regressor_output(self, small_demo_set, rng):
        dataset, _ = small_demo_set
        reg = goal_regressor(dataset.norm_stats, hidden_dim=6, rng=rng)
        ctrl = HierarchicalController(StubPolicy(), 5, goal_regressor=reg)
        s = np.array([0.4, 0.7])
        goal, score = ctrl.select_goal(s, rng)
        assert np.array_equal(goal, reg.predict(s[None])[0])
        assert score is None

    def test_beats_single_cvae_sample_on_unimodal_data(self, rng):
        # deterministic regression wins when the future is single-moded
        norm = flat_norm()
        reg = goal_regressor(norm, hidden_dim=16, rng=rng)
        cvae = GoalCVAE(2, norm, latent_dim=4, hidden_dim=16, rng=rng)
        data_rng = np.random.default_rng(0)
        states = data_rng.normal(0, 1, (512, 2))
        futures = states + np.array([0.3, -0.2]) + data_rng.normal(0, 0.02, (512, 2))
        for i in range(0, 512, 64):
            s, f = states[i:i + 64], futures[i:i + 64]
            for _ in range(12):
                reg.loss_and_grad(s, f)
                adam_step(reg.store, 3e-3)
                cvae.loss_and_grad(f, s, rng=data_rng)
                adam_step(cvae.store, 3e-3)
        test_s = data_rng.normal(0, 1, (64, 2))
        test_f = test_s + np.array([0.3, -0.2])
        reg_err = np.linalg.norm(reg.predict(test_s) - test_f, axis=1).mean()
        cvae_err = np.mean([
            np.linalg.norm(cvae.sample(s, 1, data_rng)[0] - f)
            for s, f in zip(test_s, test_f)])
        assert reg_err < cvae_err


class TestBaselines:
    def test_bc_zero_net_mean_action(self, small_demo_set, rng):
        dataset, _ = small_demo_set
        net = bc_net(dataset.norm_stats, hidden_dim=6, rng=rng)
        for _, t in net.store:
            t.value[...] = 0.0
        ctrl = BCController(net)
        ctrl.reset()
        assert np.allclose(ctrl.act(np.array([0.2, 0.8])),
                           dataset.norm_stats.action_mean)

    def test_bcq_single_proposal_returned(self, rng):
        class OneAction(StubActionCVAE):
            def sample(self, s, n, rng):
                return np.array([[0.011, -0.007]])[:n]

        ctrl = BCQController(OneAction(), StubQ(lambda s: -5.0), m_actions=1)
        assert np.array_equal(ctrl.act(np.zeros(2), rng), [0.011, -0.007])

    def test_bcq_argmax_over_fixed_proposals(self, rng):
        proposals = np.array([[0.01, 0.0], [0.0, -0.02], [-0.01, 0.01],
                              [0.02, 0.02], [0.0, 0.0]])

        class Fixed(StubActionCVAE):
            def sample(self, s, n, rng):
                return proposals[:n].copy()

        class ActionQ:
            def value(self, s, a, use_target=False):
                a = np.atleast_2d(a)
                return -np.linalg.norm(a - np.array([0.0, -0.02]), axis=1)

        ctrl = BCQController(Fixed(), ActionQ(), m_actions=5)
        assert np.array_equal(ctrl.act(np.zeros(2), rng), proposals[1])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_make_policy_variant_dispatch(self, variant):
        models = build_models(variant, 2, 2, flat_norm(), hidden_dim=6, enc_dim=6,
                              rng=np.random.default_rng(0))
        policy = make_policy(models)
        expected = {"iris": HierarchicalController, "iris_no_q": HierarchicalController,
                    "iris_no_goal_vae": HierarchicalController, "bc": BCController,
                    "bc_rnn": BCRNNController, "bcq": BCQController}[variant]
        assert type(policy) is expected
        if expected is HierarchicalController:
            assert policy.policy is models["policy"]
            assert policy.goal_cvae is models.get("goal_cvae")
            assert policy.goal_regressor is models.get("goal_reg")
            assert policy.qnet is models.get("qnet")
            assert policy.action_cvae is models.get("action_cvae")


class TestValidation:
    def test_value_mode_requires_models(self):
        with pytest.raises(ValueError, match="value mode"):
            HierarchicalController(StubPolicy(), 5, qnet=StubQ(lambda s: 0.0),
                                   goal_cvae=StubGoalCVAE(np.zeros((1, 2))))

    @pytest.mark.parametrize("sources,match", [
        pytest.param((), "one goal source", id="none"),
        pytest.param(("qnet",), "one goal source", id="q_only"),
        pytest.param(("goal_cvae", "goal_regressor"), "one goal source", id="two"),
        pytest.param(("goal_cvae", "action_cvae", "qnet", "goal_regressor"),
                     "one goal source", id="two_with_q"),
        pytest.param(("goal_regressor", "action_cvae", "qnet"), "value mode",
                     id="q_with_regressor"),
    ])
    def test_rejected_goal_sources(self, sources, match):
        stubs = {"goal_cvae": StubGoalCVAE(np.zeros((1, 2))),
                 "action_cvae": StubActionCVAE(), "qnet": StubQ(lambda s: 0.0),
                 "goal_regressor": StubGoalCVAE(np.zeros((1, 2)))}
        with pytest.raises(ValueError, match=match):
            HierarchicalController(StubPolicy(), 5, **{k: stubs[k] for k in sources})

    def test_bad_t_segment(self):
        with pytest.raises(ValueError, match="t_segment"):
            HierarchicalController(StubPolicy(), 0,
                                   goal_cvae=StubGoalCVAE(np.zeros((1, 2))))
