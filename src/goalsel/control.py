"""Test-time policies: the hierarchical propose-select-imitate controller, its
two ablations, and the BC / BC-RNN / BCQ baselines. :func:`make_policy` picks
the controller from the components of a model set, and the hierarchical
controller's goal selection follows from the models it is given.

The hierarchical controller refreshes its goal exactly every ``t_segment``
low-level steps and resets the policy hidden state at each refresh. Goal
refreshes spawn two child rngs (proposals, scoring) in a fixed order, so
variants that skip scoring still draw identical proposals under a shared seed.
Controllers are stateful per-rollout objects; the underlying frozen models can
be shared read-only. They act on one state at a time, so they add the batch
axis that the models take and drop it from what the models return.
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

    The models given decide the high level: a ``goal_regressor`` predicts one
    goal (no scoring); a ``goal_cvae`` alone takes a single generative draw;
    a ``goal_cvae`` with a ``qnet`` (which needs the ``action_cvae`` for its
    BCQ value) scores ``n_goals`` proposals and keeps the best.
    """

    def __init__(self, policy, t_segment: int, *, goal_cvae=None, action_cvae=None,
                 qnet=None, goal_regressor=None, n_goals: int = 100,
                 m_actions: int = 10):
        if t_segment < 1:
            raise ValueError("t_segment must be >= 1")
        if (goal_cvae is None) == (goal_regressor is None):
            raise ValueError("need one goal source: goal_cvae or goal_regressor")
        if qnet is not None and (goal_cvae is None or action_cvae is None):
            raise ValueError("value mode needs goal_cvae, action_cvae, and qnet")
        if n_goals < 1 or m_actions < 1:
            raise ValueError("n_goals and m_actions must be >= 1")
        self.policy = policy
        self.t_segment = t_segment
        self.goal_cvae = goal_cvae
        self.action_cvae = action_cvae
        self.qnet = qnet
        self.goal_regressor = goal_regressor
        self.n_goals = n_goals
        self.m_actions = m_actions
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
        if self.goal_regressor is not None:
            return self.goal_regressor.predict(s[None])[0], None
        if self.qnet is None:
            return self.goal_cvae.sample(s, 1, proposal_rng)[0], None
        goals = self.goal_cvae.sample(s, self.n_goals, proposal_rng)
        scores = proposal_value(self.qnet, self.action_cvae, goals, self.m_actions,
                                score_rng, use_target=False)
        pick = int(np.argmax(scores))
        return goals[pick], float(scores[pick])

    def act(self, s, rng: np.random.Generator) -> np.ndarray:
        if self._steps % self.t_segment == 0:
            goal, score = self.select_goal(s, rng)
            self._goal = goal
            self._hidden = self.policy.init_hidden()
            self.goal_log.append(GoalLogEntry(self._steps, goal.copy(), score))
        action, self._hidden = self.policy.step(
            self._hidden, np.asarray(s)[None], self._goal[None])
        self._steps += 1
        return action[0]


class BCController:
    """Memoryless regression policy."""

    def __init__(self, bc_net):
        self.bc_net = bc_net

    def reset(self) -> None:
        pass

    def act(self, s, rng=None) -> np.ndarray:
        return self.bc_net.predict(np.asarray(s)[None])[0]


class BCRNNController:
    """Recurrent cloning without goals; the hidden state spans the episode."""

    def __init__(self, policy):
        self.policy = policy
        self.reset()

    def reset(self) -> None:
        self._hidden = self.policy.init_hidden()

    def act(self, s, rng=None) -> np.ndarray:
        action, self._hidden = self.policy.step(self._hidden, np.asarray(s)[None])
        return action[0]


class BCQController:
    """Pick the highest-Q action among generative proposals at each step."""

    def __init__(self, action_cvae, qnet, m_actions: int = 10):
        if m_actions < 1:
            raise ValueError("m_actions must be >= 1")
        self.action_cvae = action_cvae
        self.qnet = qnet
        self.m_actions = m_actions

    def reset(self) -> None:
        pass

    def act(self, s, rng: np.random.Generator) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        proposals = self.action_cvae.sample(s, self.m_actions, rng)
        tiled = np.broadcast_to(s[None, :], (self.m_actions, s.shape[0]))
        q = self.qnet.value(tiled, proposals)
        return proposals[int(np.argmax(q))]


def make_policy(models: ModelSet, *, t_segment: int = 10, n_goals: int = 100,
                m_actions: int = 10):
    """Build the test-time policy that a model set's components call for."""
    if "bc" in models:
        return BCController(models["bc"])
    if "policy" not in models:
        return BCQController(models["action_cvae"], models["qnet"],
                             m_actions=m_actions)
    if not models["policy"].goal_conditioned:
        return BCRNNController(models["policy"])
    return HierarchicalController(
        models["policy"], t_segment, goal_cvae=models.get("goal_cvae"),
        action_cvae=models.get("action_cvae"), qnet=models.get("qnet"),
        goal_regressor=models.get("goal_reg"), n_goals=n_goals, m_actions=m_actions)
