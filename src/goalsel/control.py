"""Test-time policies: the hierarchical propose-select-imitate controller, its
two ablations, and the BC / BC-RNN / BCQ baselines.

The hierarchical controller refreshes its goal exactly every ``t_segment``
low-level steps and resets the policy hidden state at each refresh. Goal
refreshes spawn two child rngs (proposals, scoring) in a fixed order, so
variants that skip scoring still draw identical proposals under a shared seed.
Controllers are stateful per-rollout objects; the underlying frozen models can
be shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSet, proposal_value


@dataclass(frozen=True)
class GoalLogEntry:
    step: int
    goal: np.ndarray
    score: float | None


class HierarchicalController:
    """Propose goals, pick the highest-value one, imitate toward it for T steps.

    ``goal_mode`` selects the high level: "value" scores sampled proposals with
    the Q-network, "sample" takes a single generative draw, "regressor" uses a
    deterministic goal predictor (single candidate, no scoring).
    """

    def __init__(self, policy, t_segment: int, goal_mode: str = "value", *,
                 goal_cvae=None, action_cvae=None, qnet=None, goal_regressor=None,
                 n_goals: int = 100, m_actions: int = 10,
                 value_use_target: bool = False):
        if t_segment < 1:
            raise ValueError("t_segment must be >= 1")
        if goal_mode not in ("value", "sample", "regressor"):
            raise ValueError(f"unknown goal_mode {goal_mode!r}")
        if goal_mode == "value" and (goal_cvae is None or action_cvae is None
                                     or qnet is None):
            raise ValueError("value mode needs goal_cvae, action_cvae, and qnet")
        if goal_mode == "sample" and goal_cvae is None:
            raise ValueError("sample mode needs goal_cvae")
        if goal_mode == "regressor" and goal_regressor is None:
            raise ValueError("regressor mode needs goal_regressor")
        if n_goals < 1 or m_actions < 1:
            raise ValueError("n_goals and m_actions must be >= 1")
        self.policy = policy
        self.t_segment = t_segment
        self.goal_mode = goal_mode
        self.goal_cvae = goal_cvae
        self.action_cvae = action_cvae
        self.qnet = qnet
        self.goal_regressor = goal_regressor
        self.n_goals = n_goals
        self.m_actions = m_actions
        self.value_use_target = value_use_target
        self.reset()

    def reset(self) -> None:
        self._hidden = self.policy.init_hidden()
        self._steps = 0
        self._goal: np.ndarray | None = None
        self.goal_log: list[GoalLogEntry] = []

    def select_goal(self, s, rng: np.random.Generator) -> tuple[np.ndarray, float | None]:
        """Pick the next goal; argmax ties break toward the lowest index."""
        proposal_rng, score_rng = rng.spawn(2)
        s = np.asarray(s, dtype=np.float64)
        if self.goal_mode == "regressor":
            return self.goal_regressor.predict(s), None
        if self.goal_mode == "sample":
            return self.goal_cvae.sample(s, 1, proposal_rng)[0], None
        goals = self.goal_cvae.sample(s, self.n_goals, proposal_rng)
        scores = proposal_value(self.qnet, self.action_cvae, goals, self.m_actions,
                                score_rng, use_target=self.value_use_target)
        pick = int(np.argmax(scores))
        return goals[pick], float(scores[pick])

    def act(self, s, rng: np.random.Generator) -> np.ndarray:
        if self._steps % self.t_segment == 0:
            goal, score = self.select_goal(s, rng)
            self._goal = goal
            self._hidden = self.policy.init_hidden()
            self.goal_log.append(GoalLogEntry(self._steps, goal.copy(), score))
        action, self._hidden = self.policy.step(self._hidden, s, self._goal)
        self._steps += 1
        return action


class BCController:
    """Memoryless regression policy."""

    def __init__(self, bc_net):
        self.bc_net = bc_net

    def reset(self) -> None:
        pass

    def act(self, s, rng=None) -> np.ndarray:
        return self.bc_net.predict(np.asarray(s, dtype=np.float64))


class BCRNNController:
    """Recurrent cloning without goals; hidden state spans the episode unless
    ``windowed_reset`` re-zeroes it every ``t_segment`` steps."""

    def __init__(self, policy, t_segment: int = 10, windowed_reset: bool = False):
        self.policy = policy
        self.t_segment = t_segment
        self.windowed_reset = windowed_reset
        self.reset()

    def reset(self) -> None:
        self._hidden = self.policy.init_hidden()
        self._steps = 0

    def act(self, s, rng=None) -> np.ndarray:
        if self.windowed_reset and self._steps % self.t_segment == 0:
            self._hidden = self.policy.init_hidden()
        action, self._hidden = self.policy.step(self._hidden, s, None)
        self._steps += 1
        return action


class BCQController:
    """Pick the highest-Q action among generative proposals at each step."""

    def __init__(self, action_cvae, qnet, m_actions: int = 10,
                 value_use_target: bool = False):
        if m_actions < 1:
            raise ValueError("m_actions must be >= 1")
        self.action_cvae = action_cvae
        self.qnet = qnet
        self.m_actions = m_actions
        self.value_use_target = value_use_target

    def reset(self) -> None:
        pass

    def act(self, s, rng: np.random.Generator) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        proposals = self.action_cvae.sample(s, self.m_actions, rng)
        tiled = np.broadcast_to(s[None, :], (self.m_actions, s.shape[0]))
        q = self.qnet.value(tiled, proposals, use_target=self.value_use_target)
        return proposals[int(np.argmax(q))]


def make_policy(models: ModelSet, *, t_segment: int = 10, n_goals: int = 100,
                m_actions: int = 10, value_use_target: bool = False,
                bc_rnn_windowed_reset: bool = False):
    """Build the test-time policy matching a model set's variant."""
    variant = models.variant
    if variant == "iris":
        return HierarchicalController(
            models.policy, t_segment, "value", goal_cvae=models.goal_cvae,
            action_cvae=models.action_cvae, qnet=models.qnet, n_goals=n_goals,
            m_actions=m_actions, value_use_target=value_use_target)
    if variant == "iris_no_q":
        return HierarchicalController(
            models.policy, t_segment, "sample", goal_cvae=models.goal_cvae)
    if variant == "iris_no_goal_vae":
        return HierarchicalController(
            models.policy, t_segment, "regressor",
            goal_regressor=models.goal_regressor)
    if variant == "bc":
        return BCController(models.bc_net)
    if variant == "bc_rnn":
        return BCRNNController(models.policy, t_segment,
                               windowed_reset=bc_rnn_windowed_reset)
    if variant == "bcq":
        return BCQController(models.action_cvae, models.qnet,
                             m_actions=m_actions,
                             value_use_target=value_use_target)
    raise ValueError(f"unknown variant {variant!r}")
