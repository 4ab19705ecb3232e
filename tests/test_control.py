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
from goalsel.envs import GraphReachEnv, make_env
from goalsel.evaluation import EvalConfig, evaluate, rollout
from goalsel.models import (
    VARIANTS,
    ConditionalVAE,
    ModelSet,
    build_models,
    proposal_value,
)
from goalsel.nn import adam_step
from conftest import bc_net, flat_norm, goal_regressor


class StubPolicy:
    """Emits a fixed action and a dummy hidden state."""

    def __init__(self, action=(0.0, 0.0)):
        self.action = np.asarray(action, dtype=np.float64)

    def init_hidden(self, batch=1):
        return np.zeros((batch, 1))

    def step(self, hidden, s, goal=None):
        return self.action[None].copy(), hidden


class StubQ:
    """Scores (s, a) with an arbitrary function of the state rows."""

    def __init__(self, fn):
        self.fn = fn

    def value(self, s, a, use_target=False):
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        return np.array([self.fn(row) for row in s])


def fixed(proposals):
    """A ``propose`` function that returns the given goals, ignoring the rng."""
    proposals = np.asarray(proposals, dtype=np.float64)
    return lambda s, rng: proposals.copy()


def row_score(fn):
    """A ``score`` function applying ``fn`` to each candidate goal."""
    return lambda goals, rng: np.array([fn(g) for g in goals])


class TestSelectGoal:
    def test_single_proposal_ignores_q(self, rng):
        proposals = rng.normal(0, 1, (1, 2))
        ctrl = HierarchicalController(StubPolicy(), 5, fixed(proposals),
                                      row_score(lambda g: -123.0))
        goal, score = ctrl.select_goal(np.zeros(2), rng)
        assert np.array_equal(goal, proposals[0])

    def test_enumeration_oracle_five_proposals(self, rng):
        proposals = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1],
                              [0.3, 0.3], [0.7, 0.7]])
        target = np.array([0.9, 0.1])
        ctrl = HierarchicalController(
            StubPolicy(), 5, fixed(proposals),
            row_score(lambda g: -float(np.linalg.norm(g - target))))
        goal, score = ctrl.select_goal(np.zeros(2), rng)
        scores = [-float(np.linalg.norm(p - target)) for p in proposals]
        assert np.array_equal(goal, proposals[int(np.argmax(scores))])
        assert np.array_equal(goal, proposals[2])

    def test_argmax_invariant_under_monotone_transform(self, rng):
        proposals = rng.normal(0, 1, (6, 2))
        base = lambda g: float(np.sin(g[0]) + 0.5 * g[1])
        ctrl_a = HierarchicalController(StubPolicy(), 5, fixed(proposals),
                                        row_score(base))
        ctrl_b = HierarchicalController(
            StubPolicy(), 5, fixed(proposals),
            row_score(lambda g: math.exp(2.0 * base(g)) + 3.0))
        goal_a, _ = ctrl_a.select_goal(np.zeros(2), np.random.default_rng(0))
        goal_b, _ = ctrl_b.select_goal(np.zeros(2), np.random.default_rng(0))
        assert np.array_equal(goal_a, goal_b)

    def test_tie_break_lowest_index(self, rng):
        proposals = rng.normal(0, 1, (4, 2))
        ctrl = HierarchicalController(StubPolicy(), 5, fixed(proposals),
                                      row_score(lambda g: 1.0))
        goal, _ = ctrl.select_goal(np.zeros(2), rng)
        assert np.array_equal(goal, proposals[0])


class TestActCadence:
    def test_t_one_selects_every_step(self, rng):
        ctrl = HierarchicalController(StubPolicy(), 1, fixed(rng.normal(0, 1, (1, 2))))
        for _ in range(7):
            ctrl.act(np.zeros(2), rng)
        assert [e.step for e in ctrl.goal_log] == list(range(7))

    def test_goal_held_for_t_steps_then_reselected(self, rng):
        ctrl = HierarchicalController(StubPolicy(), 4, fixed(rng.normal(0, 1, (1, 2))))
        for _ in range(9):
            ctrl.act(np.zeros(2), rng)
        assert [e.step for e in ctrl.goal_log] == [0, 4, 8]

    def test_goal_log_count_for_horizon(self, rng):
        # ceil(H / T) goals for an H-step rollout
        for horizon, t_segment in [(20, 4), (21, 4), (7, 10)]:
            ctrl = HierarchicalController(StubPolicy(), t_segment,
                                          fixed(rng.normal(0, 1, (1, 2))))
            for _ in range(horizon):
                ctrl.act(np.zeros(2), rng)
            assert len(ctrl.goal_log) == math.ceil(horizon / t_segment)

    def test_reset_clears_state(self, rng):
        ctrl = HierarchicalController(StubPolicy(), 3, fixed(rng.normal(0, 1, (1, 2))))
        for _ in range(5):
            ctrl.act(np.zeros(2), rng)
        ctrl.reset()
        assert ctrl.goal_log == []
        ctrl.act(np.zeros(2), rng)
        assert ctrl.goal_log[0].step == 0


class TestRefreshRngs:
    def test_refresh_k_uses_children_2k_and_2k_plus_1_of_the_episode_seed(self):
        models = build_models("iris", 2, 2, flat_norm(), hidden_dim=8, enc_dim=8,
                              rng=np.random.default_rng(0))
        policy = make_policy(models, t_segment=3, n_goals=4, m_actions=3)
        seen = []

        def recorded(fn):
            def call(x, rng):
                seq = rng.bit_generator.seed_seq
                seen.append((seq.entropy, seq.spawn_key, rng.bit_generator.state))
                return fn(x, rng)
            return call

        # a wrapped scorer also keeps evaluate serial
        policy.propose, policy.score = recorded(policy.propose), recorded(policy.score)
        seed = 3
        evaluate(policy, GraphReachEnv(), EvalConfig(n_episodes=2, h_max=7, seeds=(seed,),
                                                     n_goals=4, m_actions=3))
        expected = []
        for ep in range(2):
            for k in range(3):  # refreshes at steps 0, 3 and 6
                for key in (2 * k,), (2 * k + 1,):  # proposals, then scores
                    child = np.random.SeedSequence([seed, ep], spawn_key=key)
                    expected.append(([seed, ep], key,
                                     np.random.default_rng(child).bit_generator.state))
        assert seen == expected


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
        goal_cvae = models["goal_cvae"]
        const_q = HierarchicalController(
            models["policy"], 10, lambda s, rng: goal_cvae.sample(s, 16, rng),
            lambda goals, rng: np.zeros(len(goals)))
        sampled = HierarchicalController(
            models["policy"], 10, lambda s, rng: goal_cvae.sample(s, 1, rng))
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
        ctrl = HierarchicalController(StubPolicy(), 5,
                                      lambda s, rng: reg.predict(s[None]))
        ctrl.act(np.array([0.5, 0.9]), rng)
        assert np.allclose(ctrl.goal_log[0].goal, norm.state.mean)

    def test_goal_is_exact_regressor_output(self, small_demo_set, rng):
        dataset, _ = small_demo_set
        reg = goal_regressor(dataset.norm_stats, hidden_dim=6, rng=rng)
        ctrl = HierarchicalController(StubPolicy(), 5,
                                      lambda s, rng: reg.predict(s[None]))
        s = np.array([0.4, 0.7])
        goal, score = ctrl.select_goal(s, rng)
        assert np.array_equal(goal, reg.predict(s[None])[0])
        assert score is None

    def test_beats_single_cvae_sample_on_unimodal_data(self, rng):
        # deterministic regression wins when the future is single-moded
        norm = flat_norm()
        reg = goal_regressor(norm, hidden_dim=16, rng=rng)
        cvae = ConditionalVAE(norm.state, norm.state, 4, 0.05, hidden_dim=16, rng=rng)
        data_rng = np.random.default_rng(0)
        states = data_rng.normal(0, 1, (512, 2))
        futures = states + np.array([0.3, -0.2]) + data_rng.normal(0, 0.02, (512, 2))
        for i in range(0, 512, 64):
            s, f = states[i:i + 64], futures[i:i + 64]
            for _ in range(12):
                reg.loss_and_grad(s, f)
                adam_step(reg.store, 3e-3)
                cvae.loss_and_grad(f, s, data_rng.standard_normal((len(f), 4)))
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
                           dataset.norm_stats.action.mean)

    def test_bcq_single_proposal_returned(self, rng):
        class OneAction:
            def sample(self, s, n, rng):
                return np.array([[0.011, -0.007]])[:n]

        ctrl = BCQController(OneAction(), StubQ(lambda s: -5.0), m_actions=1)
        assert np.array_equal(ctrl.act(np.zeros(2), rng), [0.011, -0.007])

    def test_bcq_argmax_over_fixed_proposals(self, rng):
        proposals = np.array([[0.01, 0.0], [0.0, -0.02], [-0.01, 0.01],
                              [0.02, 0.02], [0.0, 0.0]])

        class Fixed:
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
        policy = make_policy(models, n_goals=7, m_actions=3)
        expected = {"iris": HierarchicalController, "iris_no_q": HierarchicalController,
                    "iris_no_goal_vae": HierarchicalController, "bc": BCController,
                    "bc_rnn": BCRNNController, "bcq": BCQController}[variant]
        assert type(policy) is expected
        if expected is not HierarchicalController:
            return
        assert policy.policy is models["policy"]
        s = np.array([0.3, 0.8])
        goal, score = policy.select_goal(s, np.random.default_rng(4))
        proposal_rng, score_rng = np.random.default_rng(4).spawn(2)
        if variant == "iris_no_goal_vae":
            want, want_score = models["goal_reg"].predict(s[None])[0], None
        elif variant == "iris_no_q":
            want, want_score = models["goal_cvae"].sample(s, 1, proposal_rng)[0], None
        else:
            goals = models["goal_cvae"].sample(s, 7, proposal_rng)
            values = proposal_value(models["qnet"], models["action_cvae"], goals, 3,
                                    score_rng, use_target=False)
            want, want_score = goals[np.argmax(values)], values.max()
        assert np.array_equal(goal, want)
        assert score == want_score

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_make_policy_rejects_empty_counts(self, variant):
        models = build_models(variant, 2, 2, flat_norm(), hidden_dim=6, enc_dim=6,
                              rng=np.random.default_rng(0))
        for counts in ({"n_goals": 0}, {"m_actions": 0}):
            with pytest.raises(ValueError, match="n_goals and m_actions"):
                make_policy(models, **counts)


def stub_models(*names) -> ModelSet:
    stubs = {"policy": StubPolicy(), "goal_cvae": object(), "action_cvae": object(),
             "qnet": StubQ(lambda s: 0.0), "goal_reg": object()}
    return ModelSet((name, stubs[name]) for name in names)


class TestValidation:
    def test_value_mode_requires_models(self):
        with pytest.raises(ValueError, match="no variant"):
            make_policy(stub_models("policy", "goal_cvae", "qnet"))

    @pytest.mark.parametrize("components", [
        pytest.param((), id="none"),
        pytest.param(("policy", "qnet"), id="q_only"),
        pytest.param(("policy", "goal_cvae", "goal_reg"), id="two"),
        pytest.param(("policy", "goal_cvae", "action_cvae", "qnet", "goal_reg"),
                     id="two_with_q"),
        pytest.param(("policy", "action_cvae", "qnet", "goal_reg"),
                     id="q_with_regressor"),
    ])
    def test_rejected_goal_sources(self, components):
        with pytest.raises(ValueError, match="no variant"):
            make_policy(stub_models(*components))

    def test_bad_t_segment(self):
        with pytest.raises(ValueError, match="t_segment"):
            HierarchicalController(StubPolicy(), 0, fixed(np.zeros((1, 2))))
