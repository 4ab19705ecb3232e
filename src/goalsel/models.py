"""The learned models: a goal-conditioned recurrent policy, conditional VAEs
for goal and action proposals, a Q-network with a polyak-averaged target copy
and the BCQ value of a state over action proposals, and a regression net.

``VARIANTS`` states once which components each policy variant has. Training,
checkpoints and the test-time controller follow from the components in the
:class:`ModelSet` that :func:`build_models` returns, never from variant names.

Every model method takes ``(B, ...)`` arrays, one row per batch element, and
returns ``(B, ...)`` arrays; the recurrent policy's training unroll takes
``(B, T, ...)`` windows. A caller with one row adds and drops the batch axis
itself. The one exception is :meth:`ConditionalVAE.sample`, ``n`` samples for
one condition: :meth:`~ConditionalVAE.sample_each` over ``n`` copies of it.
Two functions draw noise from an rng: :meth:`ConditionalVAE.sample` and
:func:`proposal_value`. Every other model method takes its noise as an array.

All models map inputs and targets through the dataset's two scalers
(:class:`~goalsel.data.Scaler`: ``norm.state`` and ``norm.action``) and
denormalize predictions at the interface, so losses are computed in
normalized space and the VAE KL weights stay scale-free. Each model owns a
disjoint :class:`~goalsel.nn.ParamStore`; ``loss_and_grad`` methods return the
scalar loss and accumulate parameter gradients as a side effect. Training runs
:meth:`~goalsel.nn.MLP.forward`, which keeps the caches its backward pass
reads; the inference methods (``ConditionalVAE.sample_each``, ``QNet.value``,
``Regressor.predict``) run the cache-free
:meth:`~goalsel.nn.MLP.predict`, which gives the same bits in less time.

The recurrent policy computes in float32 by default, which nearly halves the
cost of its unroll; the VAEs, the Q-network and the regressor compute in
float64. Gradient checks build the policy in float64. The policy keeps its
unroll's per-step values in arrays reused across calls (:class:`_StepCaches`).
"""

from __future__ import annotations

import functools

import numpy as np

from .data import NormStats, Scaler
from .nn import (
    MLP,
    GaussianHead,
    GRUCell,
    Linear,
    ParamStore,
    kl_to_standard_normal,
    relu,
    relu_backward,
)
from .procs import Half, serve

# A component's position is its place in a checkpoint and the index of the rng
# slot its initialization draws from.
COMPONENTS = ("policy", "goal_cvae", "action_cvae", "qnet", "goal_reg", "bc")

# Variant -> its components. A policy is goal-conditioned when a goal source
# (goal_cvae or goal_reg) is present; a qnet scores the goal or action proposals.
VARIANTS = {
    "iris": ("policy", "goal_cvae", "action_cvae", "qnet"),
    "iris_no_goal_vae": ("policy", "goal_reg"),
    "iris_no_q": ("policy", "goal_cvae"),
    "bc": ("bc",),
    "bc_rnn": ("policy",),
    "bcq": ("action_cvae", "qnet"),
}


class _StepCaches:
    """What the backward pass of a T-step unroll of B rows reads, step first:
    encoder inputs ``x``, ReLU mask and output ``e``, hidden states ``h``
    (T + 1; ``h[t]`` enters step t), gates ``zr``, reset-gated states ``rh``
    and candidates ``c``; plus the (B, T, act) normalized predictions. Each
    step's rows are contiguous, as new arrays would be, so they give the
    same bits."""

    def __init__(self, t_window: int, batch: int, policy: "PolicyRNN"):
        dtype = policy.store.dtype
        steps = (t_window, batch)
        hd = policy.hidden_dim
        self.x = np.empty(steps + (policy.enc.W.shape[0],), dtype)
        self.mask = np.empty(steps + (policy.enc.W.shape[1],), np.bool_)
        self.e = np.empty(steps + (policy.enc.W.shape[1],), dtype)
        self.h = np.empty((t_window + 1, batch, hd), dtype)
        self.zr = np.empty(steps + (2 * hd,), dtype)
        self.rh = np.empty(steps + (hd,), dtype)
        self.c = np.empty(steps + (hd,), dtype)
        self.acts = np.empty((batch, t_window, policy.act_dim), dtype)
        # what step t writes, as views made once: (x, e, mask, zr, rh, c, h[t + 1])
        self.steps = [(self.x[t], self.e[t], self.mask[t], self.zr[t], self.rh[t],
                       self.c[t], self.h[t + 1]) for t in range(t_window)]


class PolicyRNN:
    """Recurrent imitation policy, optionally conditioned on a goal state.

    The training unroll starts from a zero hidden state over a T-step window;
    at test time the controller owns the hidden state and resets it whenever
    it refreshes the goal. Normalized inputs are cast once to ``dtype``, the
    dtype of the parameter store, so the encoder, cell and head compute in it.

    Every step, of the training unroll and of :meth:`step` alike, writes what
    its backward pass would read into a :class:`_StepCaches` allocated once
    per (T, B) shape. Caches allocated per step would grow the heap by the
    whole unroll and hand it back every training step, faulting its pages in
    again each time. No array returned to a caller is part of a kept cache.
    The caches live until :meth:`release_caches`, which
    :func:`~goalsel.training.train` calls when it returns.
    """

    def __init__(self, obs_dim: int, act_dim: int, norm: NormStats, *,
                 hidden_dim: int = 64, enc_dim: int = 64,
                 goal_conditioned: bool = True, dtype=np.float32,
                 rng: np.random.Generator):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.norm = norm
        self.goal_conditioned = goal_conditioned
        self.hidden_dim = hidden_dim
        in_dim = obs_dim * 2 if goal_conditioned else obs_dim
        with ParamStore(dtype) as self.store:
            self.enc = Linear(self.store, "enc", in_dim, enc_dim, rng)
            self.cell = GRUCell(self.store, "gru", enc_dim, hidden_dim, rng)
            self.head = Linear(self.store, "head", hidden_dim, act_dim, rng)
        self._caches: dict[tuple[int, int], _StepCaches] = {}

    def init_hidden(self, batch: int = 1) -> np.ndarray:
        return np.zeros((batch, self.hidden_dim), dtype=self.store.dtype)

    def release_caches(self) -> None:
        """Drop the kept caches; the next unroll or step allocates them again."""
        self._caches.clear()

    def _step_caches(self, t_window: int, s_n: np.ndarray,
                     g_n: np.ndarray | None) -> _StepCaches:
        """The kept caches of a ``t_window``-step unroll, with the encoder
        inputs of (T, B, obs) normalized states ``s_n`` and (B, obs)
        normalized goals ``g_n`` written in."""
        batch = s_n.shape[1]
        caches = self._caches.get((t_window, batch))
        if caches is None:
            caches = self._caches[t_window, batch] = _StepCaches(t_window, batch, self)
        caches.x[..., :self.obs_dim] = s_n
        if self.goal_conditioned:
            if g_n is None:
                raise ValueError("goal-conditioned policy needs a goal")
            caches.x[..., self.obs_dim:] = g_n
        return caches

    def _step(self, views, h: np.ndarray) -> np.ndarray:
        """One recurrent step from the (B, H) hidden state ``h`` on the
        encoder input in ``views``, one entry of :attr:`_StepCaches.steps`:
        writes the step's cached values and new hidden state there and
        returns the normalized (B, act) actions."""
        x, e, mask, zr, rh, c, h_next = views
        relu(self.enc.forward(x)[0], out=(e, mask))
        self.cell.forward(h, e, out=(zr, rh, c, h_next))
        return self.head.forward(h_next)[0]

    def _unroll(self, states_n: np.ndarray, goal_n: np.ndarray | None):
        """(B, T, obs) normalized states from a zero hidden state -> a new
        array of the normalized (B, T, act) actions, and the kept caches."""
        t_window = states_n.shape[1]
        caches = self._step_caches(t_window, states_n.swapaxes(0, 1), goal_n)
        caches.h[0] = 0.0
        for t, views in enumerate(caches.steps):
            caches.acts[:, t] = self._step(views, caches.h[t])
        return caches.acts.copy(), caches

    def loss_and_grad(self, states, actions, goal=None) -> float:
        """Imitation loss: per-window sum of squared normalized-action errors,
        averaged over the batch. Accumulates gradients."""
        states_n = self.norm.state.norm(states)
        actions_n = self.norm.action.norm(actions).astype(self.store.dtype)
        goal_n = None if goal is None else self.norm.state.norm(goal)
        batch, t_window, _ = states_n.shape
        pred_n, caches = self._unroll(states_n, goal_n)
        err = pred_n - actions_n
        loss = float((err ** 2).sum(axis=(1, 2)).mean())
        dpred = 2.0 * err / batch
        dh_next = self.init_hidden(batch)
        for t in range(t_window - 1, -1, -1):
            dh = self.head.backward(caches.h[t + 1], dpred[:, t]) + dh_next
            dh_prev, de = self.cell.backward(
                (caches.e[t], caches.h[t], caches.zr[t], caches.rh[t], caches.c[t]), dh)
            self.enc.backward_params(caches.x[t], relu_backward(caches.mask[t], de))
            dh_next = dh_prev
        return loss

    def step(self, hidden: np.ndarray, s, goal=None) -> tuple[np.ndarray, np.ndarray]:
        """One closed-loop step of (B, obs) states and goals from a (B, H)
        hidden state; returns ((B, act) denormalized actions, new hidden)."""
        g_n = None if goal is None else self.norm.state.norm(goal)
        caches = self._step_caches(1, self.norm.state.norm(s)[None], g_n)
        a_n = self._step(caches.steps[0], hidden)
        return self.norm.action.denorm(a_n), caches.h[1].copy()


class ConditionalVAE:
    """Conditional VAE with a diagonal-Gaussian latent and standard-normal prior.

    The goal cVAE models the state T steps ahead of a state (``target`` and
    ``cond`` are both ``norm.state``); the action cVAE models a demonstrated
    action given its state (``norm.action``, ``norm.state``). The encoder maps
    (normalized target, normalized condition) to a :class:`GaussianHead`; the
    decoder reconstructs the normalized target from (latent, normalized
    condition). Sampling denormalizes at the interface.
    """

    def __init__(self, target: Scaler, cond: Scaler, latent_dim: int, beta: float, *,
                 hidden_dim: int = 64, rng: np.random.Generator):
        self.target = target
        self.cond = cond
        self.latent_dim = latent_dim
        self.beta = float(beta)
        with ParamStore() as self.store:
            self.encoder = MLP(self.store, "enc",
                               [target.dim + cond.dim, hidden_dim, hidden_dim, 2 * latent_dim],
                               rng)
            self.decoder = MLP(self.store, "dec",
                               [latent_dim + cond.dim, hidden_dim, hidden_dim, target.dim],
                               rng)

    def loss_and_grad(self, target, cond, eps) -> tuple[float, dict[str, float]]:
        """Reconstruction (squared error, normalized space) + beta * closed-form KL,
        with the latent reparameterized by the (B, latent_dim) standard-normal
        noise ``eps``. Accumulates gradients."""
        target_n = self.target.norm(target)
        cond_n = self.cond.norm(cond)
        if target_n.shape[0] != cond_n.shape[0]:
            raise ValueError("target/condition batch mismatch")
        batch = target_n.shape[0]
        raw, enc_cache = self.encoder.forward(np.concatenate([target_n, cond_n], axis=-1))
        head = GaussianHead.from_raw(raw)
        sigma = head.sigma
        z = head.mu + sigma * eps
        out_n, dec_cache = self.decoder.forward(np.concatenate([z, cond_n], axis=-1))
        diff = out_n - target_n
        recon = float((diff ** 2).sum(axis=-1).mean())
        kl = float(np.mean(kl_to_standard_normal(head)))
        loss = recon + self.beta * kl

        dout = 2.0 * diff / batch
        din = self.decoder.backward(dec_cache, dout)
        dz = din[:, :self.latent_dim]
        dmu = dz + self.beta * head.mu / batch
        dls = dz * eps * sigma + self.beta * (sigma ** 2 - 1.0) / batch
        dls = dls * head.clip_mask
        self.encoder.backward_params(enc_cache, np.concatenate([dmu, dls], axis=-1))
        return loss, {"recon": recon, "kl": kl}

    def sample(self, cond, n: int, rng: np.random.Generator) -> np.ndarray:
        """n samples for one (cond_dim,) condition: :meth:`sample_each` of one
        ``(1, n, latent_dim)`` normal draw of ``rng`` over n copies of it (a
        copy costs less than ``np.broadcast_to`` per call); returns
        (n, target_dim)."""
        if n < 1:
            raise ValueError("need at least one sample")
        if np.ndim(cond) != 1:
            raise ValueError("sample() takes a single condition; see sample_each()")
        eps = rng.standard_normal((1, n, self.latent_dim))
        return self.sample_each(np.asarray(cond)[None].repeat(n, 0), eps)[0]

    def sample_each(self, cond, eps: np.ndarray) -> np.ndarray:
        """``n = len(eps)`` samples (none when n is 0) for each of a batch of B
        conditions, decoded from the (n, B, latent_dim) latent noise ``eps``;
        returns (n, B, target_dim)."""
        cond_n = self.cond.norm(cond)
        batch = cond_n.shape[0]
        # one decoder input: the condition columns are written once, the
        # latent columns once per proposal
        dec_in = np.empty((batch, self.latent_dim + self.cond.dim))
        dec_in[:, self.latent_dim:] = cond_n
        n = len(eps)
        out_n = np.empty((n, batch, self.target.dim))
        for j in range(n):  # indexing costs less than iterating over the array
            dec_in[:, :self.latent_dim] = eps[j]
            out_n[j] = self.decoder.predict(dec_in)
        return self.target.denorm(out_n)


class QNet:
    """State-action value MLP with a polyak-averaged target copy."""

    def __init__(self, obs_dim: int, act_dim: int, norm: NormStats, *,
                 hidden_dim: int = 64, rng: np.random.Generator):
        self.norm = norm
        sizes = [obs_dim + act_dim, hidden_dim, hidden_dim, 1]
        with ParamStore() as self.store:
            self.mlp = MLP(self.store, "q", sizes, rng)
        with ParamStore() as self.target_store:
            self.target_mlp = MLP(self.target_store, "q", sizes, rng)
        polyak_update(self, 1.0)

    def _inputs(self, s, a) -> np.ndarray:
        return np.concatenate([self.norm.state.norm(s), self.norm.action.norm(a)],
                              axis=-1)

    def value(self, s, a, use_target: bool = False) -> np.ndarray:
        """(B,) values of (B, obs) states and (B, act) actions from the online
        or target parameters, or (n, B) values of (n, B, act) actions, n per
        state."""
        net = self.target_mlp if use_target else self.mlp
        if np.ndim(a) == 2:
            return net.predict(self._inputs(s, a))[:, 0]
        # one Q input: the state columns are written once, the action columns
        # once per proposal
        s_n = self.norm.state.norm(s)
        obs = s_n.shape[1]
        x = np.empty((len(s_n), obs + self.norm.action.dim))
        x[:, :obs] = s_n
        out = np.empty(np.shape(a)[:-1])
        for j in range(len(out)):
            x[:, obs:] = self.norm.action.norm(a[j])
            out[j] = net.predict(x)[:, 0]
        return out

    def loss_and_grad(self, s, a, targets) -> tuple[float, float]:
        """Mean squared TD error against fixed targets; returns (loss, mean Q)."""
        x = self._inputs(s, a)
        targets = np.asarray(targets, dtype=np.float64)
        q, cache = self.mlp.forward(x)
        q = q[:, 0]
        err = q - targets
        loss = float((err ** 2).mean())
        self.mlp.backward_params(cache, (2.0 * err / err.size)[:, None])
        return loss, float(q.mean())


def polyak_update(qnet: QNet, tau: float) -> QNet:
    """target <- tau * online + (1 - tau) * target, elementwise."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    target = qnet.target_store
    target.value *= 1.0 - tau
    target.value += tau * qnet.store.value
    return qnet


def proposal_max(qnet: QNet, action_cvae: ConditionalVAE, s, eps,
                 use_target: bool) -> np.ndarray:
    """``max_j Q(s, a_j)`` over the proposals that ``action_cvae`` decodes from
    the ``(n, B, latent)`` noise ``eps`` at each row of ``s`` (``-inf`` when n
    is 0).

    One Q forward per proposal index: on a 2-CPU host, one forward over all
    n * B rows of a 128-row training batch measured slower than n forwards.
    """
    best = np.full(len(s), -np.inf)
    for q in qnet.value(s, action_cvae.sample_each(s, eps), use_target):
        best = np.maximum(best, q)
    return best


def proposal_value(qnet: QNet, action_cvae: ConditionalVAE, s, m: int,
                   rng: np.random.Generator, use_target: bool,
                   split=None) -> np.ndarray:
    """BCQ state value ``V(s) = max_j Q(s, a_j)`` over ``m`` action-VAE
    proposals ``a_j`` at each row of the (B, obs_dim) batch ``s``, decoded
    from one ``(m, B, latent)`` normal draw of ``rng``, the only draw of
    proposal noise.

    A ``split`` hook (:func:`proposal_split`) is called with ``s`` and the
    noise of the first ``h = ceil(m / 2)`` proposals, starts their max
    elsewhere and returns a function that waits for it, or None, which leaves
    the call whole. The rest is drawn and scored here. Two fills equal one
    draw, so the ``np.maximum`` of the halves is the max over all ``m`` bit
    for bit.
    """
    h = -(-m // 2)
    eps = np.empty((m, len(s), action_cvae.latent_dim))
    rng.standard_normal(out=eps[:h])
    maxima = None if split is None else split(s, eps[:h])
    rng.standard_normal(out=eps[h:])
    # scored before the wait, so that both halves run at once
    best = proposal_max(qnet, action_cvae, s, eps if maxima is None else eps[h:], use_target)
    return best if maxima is None else np.maximum(maxima(), best)


def proposal_split(qnet: QNet, action_cvae: ConditionalVAE, rows: int, m: int,
                   use_target: bool):
    """The :class:`~goalsel.procs.Forked` arguments (loop, args, half) of the
    worker of a split :func:`proposal_value` over ``rows`` states and ``m``
    proposals, whose hook is then ``partial(worker.open_half, timings)``:
    :func:`~goalsel.procs.serve` of :func:`proposal_max` on a
    :class:`~goalsel.procs.Half` of the states and the first half's noise."""
    shapes = (rows, qnet.norm.state.dim), (-(-m // 2), rows, action_cvae.latent_dim)
    fn = functools.partial(proposal_max, qnet, action_cvae, use_target=use_target)
    return serve, (fn,), Half(rows, *shapes)


class Regressor:
    """Deterministic squared-error regression from a state to a target vector:
    the ``goal_reg`` component (state -> state T steps ahead) and the ``bc``
    component (state -> action). Inputs and targets are mapped through the
    ``inputs`` and ``target`` scalers."""

    def __init__(self, name: str, inputs: Scaler, target: Scaler, *,
                 hidden_dim: int = 64, rng: np.random.Generator):
        self.inputs = inputs
        self.target = target
        with ParamStore() as self.store:
            self.mlp = MLP(self.store, name, [inputs.dim, hidden_dim, hidden_dim, target.dim],
                           rng)

    def predict(self, s) -> np.ndarray:
        return self.target.denorm(self.mlp.predict(self.inputs.norm(s)))

    def loss_and_grad(self, s, target) -> float:
        s_n = self.inputs.norm(s)
        out_n, cache = self.mlp.forward(s_n)
        diff = out_n - self.target.norm(target)
        loss = float((diff ** 2).sum(axis=-1).mean())
        self.mlp.backward_params(cache, 2.0 * diff / s_n.shape[0])
        return loss


class ModelSet(dict):
    """Component name -> model for one variant, in ``COMPONENTS`` order."""

    def stores(self) -> dict[str, ParamStore]:
        """Checkpoint prefix -> parameter store, with the Q-network's target
        copy as ``qnet_target`` right after ``qnet``."""
        out: dict[str, ParamStore] = {}
        for name, model in self.items():
            out[name] = model.store
            if name == "qnet":
                out["qnet_target"] = model.target_store
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"{prefix}/{name}": value
                for prefix, store in self.stores().items()
                for name, value in store.state_dict().items()}

    def load_state_dict(self, flat: dict[str, np.ndarray]) -> None:
        """Load prefixed tensors; tensors of a component this set lacks are an
        error, not ignored."""
        stores = self.stores()
        unexpected = sorted({name.split("/", 1)[0] for name in flat} - set(stores))
        if unexpected:
            raise ValueError(f"tensors of components this model set lacks: "
                             f"{unexpected}")
        for prefix, store in stores.items():
            sub = {name[len(prefix) + 1:]: value for name, value in flat.items()
                   if name.startswith(prefix + "/")}
            store.load_state_dict(sub)


def build_models(variant: str, obs_dim: int, act_dim: int, norm: NormStats, *,
                 hidden_dim: int = 64, enc_dim: int = 64, goal_latent: int = 8,
                 action_latent: int = 4, beta_g: float = 0.05, beta_a: float = 0.05,
                 policy_dtype=np.float32, rng: np.random.Generator) -> ModelSet:
    """Instantiate the components that ``VARIANTS`` lists for a variant;
    ``policy_dtype`` is the compute dtype of the recurrent policy.

    Each component draws its initialization from its own fixed rng slot, so a
    component shared by two variants starts from identical parameters when the
    root seed matches.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{tuple(VARIANTS)}")
    parts = VARIANTS[variant]
    make = {
        "policy": lambda r: PolicyRNN(
            obs_dim, act_dim, norm, hidden_dim=hidden_dim, enc_dim=enc_dim,
            goal_conditioned="goal_cvae" in parts or "goal_reg" in parts,
            dtype=policy_dtype, rng=r),
        "goal_cvae": lambda r: ConditionalVAE(norm.state, norm.state, goal_latent, beta_g,
                                              hidden_dim=hidden_dim, rng=r),
        "action_cvae": lambda r: ConditionalVAE(norm.action, norm.state, action_latent,
                                                beta_a, hidden_dim=hidden_dim, rng=r),
        "qnet": lambda r: QNet(obs_dim, act_dim, norm, hidden_dim=hidden_dim, rng=r),
        "goal_reg": lambda r: Regressor("reg", norm.state, norm.state,
                                        hidden_dim=hidden_dim, rng=r),
        "bc": lambda r: Regressor("bc", norm.state, norm.action,
                                  hidden_dim=hidden_dim, rng=r),
    }
    slots = rng.spawn(len(COMPONENTS))
    return ModelSet((name, make[name](slot)) for name, slot in zip(COMPONENTS, slots)
                    if name in parts)
