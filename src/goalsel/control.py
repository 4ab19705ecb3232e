"""Test-time policies: the hierarchical propose-select-imitate controller, its
two ablations, and the BC / BC-RNN / BCQ baselines. :func:`make_policy` picks
the controller from the components of a model set and, for the hierarchical
controller, builds the goal source from them as a ``propose`` function and an
optional ``score`` function.

The hierarchical controller refreshes its goal exactly every ``t_segment``
low-level steps and resets the policy hidden state at each refresh. Goal
refreshes spawn two child rngs (proposals, scoring) in a fixed order, so
variants that skip scoring still draw identical proposals under a shared seed.
Controllers are stateful per-rollout objects; the underlying frozen models can
be shared read-only. They act on one state at a time, so they add the batch
axis that the models take and drop it from what the models return.
The ``iris`` scorer, :class:`ProposalScorer`, takes an optional split hook,
which :func:`~goalsel.evaluation.evaluate` sets (:func:`~goalsel.models.proposal_split`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import VARIANTS, ModelSet, proposal_value


@dataclass(frozen=True)
class GoalLogEntry:
    step: int
    goal: np.ndarray
    score: float | None


class ProposalScorer:
    """Each goal's BCQ value over ``m_actions`` action proposals from the online
    Q-net; ``split``, when set, is each :func:`~goalsel.models.proposal_value` hook."""

    def __init__(self, qnet, action_cvae, m_actions: int):
        self.qnet, self.action_cvae, self.m_actions = qnet, action_cvae, m_actions
        self.split = None

    def __call__(self, goals, rng: np.random.Generator) -> np.ndarray:
        return proposal_value(self.qnet, self.action_cvae, goals, self.m_actions, rng,
                              use_target=False, split=self.split)


class HierarchicalController:
    """Propose goals, keep the best-scored one, imitate toward it for T steps.

    ``propose(s, rng)`` returns candidate goals ``(n, obs_dim)`` for one state
    ``s``. ``score(goals, rng)``, when given, returns one value per candidate
    and the highest wins; without it the first candidate is the goal.
    """

    def __init__(self, policy, t_segment: int, propose, score=None):
        if t_segment < 1:
            raise ValueError("t_segment must be >= 1")
        self.policy = policy
        self.t_segment = t_segment
        self.propose = propose
        self.score = score
        self.reset()

    def reset(self) -> None:
        self._hidden = self.policy.init_hidden()
        self._steps = 0
        self._goal: np.ndarray | None = None
        self.goal_log: list[GoalLogEntry] = []

    def select_goal(self, s, rng: np.random.Generator) -> tuple[np.ndarray, float | None]:
        """Pick the next goal; argmax ties break toward the lowest index."""
        proposal_rng, score_rng = rng.spawn(2)
        goals = self.propose(np.asarray(s, dtype=np.float64), proposal_rng)
        if self.score is None:
            return goals[0], None
        scores = self.score(goals, score_rng)
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
        self.action_cvae = action_cvae
        self.qnet = qnet
        self.m_actions = m_actions

    def reset(self) -> None:
        pass

    def act(self, s, rng: np.random.Generator) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        proposals = self.action_cvae.sample(s, self.m_actions, rng)
        q = self.qnet.value(s[None].repeat(self.m_actions, 0), proposals)
        return proposals[int(np.argmax(q))]


def make_policy(models: ModelSet, *, t_segment: int = 10, n_goals: int = 100,
                m_actions: int = 10):
    """Build the test-time policy that a model set's components call for; they
    must be exactly one ``VARIANTS`` entry. Goals come from the regressor, from
    one goal-cVAE draw, or from ``n_goals`` draws scored by their BCQ value."""
    if not any(set(models) == set(parts) for parts in VARIANTS.values()):
        raise ValueError(f"components {sorted(models)} match no variant")
    if n_goals < 1 or m_actions < 1:
        raise ValueError("n_goals and m_actions must be >= 1")
    if "bc" in models:
        return BCController(models["bc"])
    if "policy" not in models:
        return BCQController(models["action_cvae"], models["qnet"], m_actions=m_actions)
    policy = models["policy"]
    if "goal_reg" in models:
        goal_reg = models["goal_reg"]
        return HierarchicalController(policy, t_segment,
                                      lambda s, rng: goal_reg.predict(s[None]))
    if "goal_cvae" not in models:
        return BCRNNController(policy)
    goal_cvae = models["goal_cvae"]
    if "qnet" not in models:
        return HierarchicalController(policy, t_segment,
                                      lambda s, rng: goal_cvae.sample(s, 1, rng))
    return HierarchicalController(
        policy, t_segment, lambda s, rng: goal_cvae.sample(s, n_goals, rng),
        ProposalScorer(models["qnet"], models["action_cvae"], m_actions))
