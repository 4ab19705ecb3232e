import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalsel.data import NormStats
from goalsel.models import (
    VARIANTS,
    ActionCVAE,
    GoalCVAE,
    PolicyRNN,
    QNet,
    build_models,
    polyak_update,
    proposal_value,
)
from goalsel.nn import GaussianHead, adam_step, grad_check, kl_to_standard_normal
from goalsel.training import jitter_params
from conftest import bc_net, goal_regressor


def flat_norm(obs_dim=2, act_dim=2):
    """Identity normalization (zero mean, unit std)."""
    return NormStats(state_mean=np.zeros(obs_dim), state_std=np.ones(obs_dim),
                     action_mean=np.zeros(act_dim), action_std=np.ones(act_dim))


def random_norm(rng, obs_dim=2, act_dim=2):
    return NormStats(state_mean=rng.normal(0, 0.5, obs_dim),
                     state_std=rng.uniform(0.5, 2.0, obs_dim),
                     action_mean=rng.normal(0, 0.5, act_dim),
                     action_std=rng.uniform(0.5, 2.0, act_dim))


def zero_store(store):
    for _, t in store:
        t.value[...] = 0.0


def unroll_actions(policy, states, goal=None):
    """Denormalized (B, T, act) actions of the training unroll of (B, T, obs)
    windows from a zero hidden state."""
    goal_n = None if goal is None else policy.norm.norm_state(goal)
    acts_n, _ = policy._unroll(policy.norm.norm_state(states), goal_n)
    return policy.norm.denorm_action(acts_n)


def reference_loss_and_grad(policy, states, actions, goal=None) -> float:
    """``PolicyRNN.loss_and_grad`` as it was computed before the policy kept
    its step caches: new arrays at every step, a list of per-step cache
    tuples, and the encoder's input gradient computed and dropped. The same
    arithmetic in the same order, so it must give the same bits."""
    dtype = policy.store.dtype
    p = {name: t.value for name, t in policy.store}
    grads = {name: t.grad for name, t in policy.store}
    hd = policy.hidden_dim
    states_n = policy.norm.norm_state(states).astype(dtype)
    actions_n = policy.norm.norm_action(actions).astype(dtype)
    goal_n = None if goal is None else policy.norm.norm_state(goal).astype(dtype)
    batch, t_window, _ = states_n.shape
    h = np.zeros((batch, hd), dtype)
    pred_n = np.empty((batch, t_window, policy.act_dim), dtype)
    caches = []
    for t in range(t_window):
        x = states_n[:, t]
        if policy.goal_conditioned:
            x = np.concatenate([x, goal_n], axis=-1)
        e_pre = x @ p["enc.W"] + p["enc.b"]
        mask = e_pre > 0
        e = e_pre * mask
        xw = e @ p["gru.W"] + p["gru.b"]
        hu = h @ p["gru.U"]
        zr = 0.5 * np.tanh(0.5 * (xw[:, :2 * hd] + hu)) + 0.5
        z, r = zr[:, :hd], zr[:, hd:]
        rh = r * h
        c = np.tanh(xw[:, 2 * hd:] + rh @ p["gru.Uc"])
        h_prev, h = h, (1.0 - z) * h + z * c
        pred_n[:, t] = h @ p["head.W"] + p["head.b"]
        caches.append((x, mask, e, h_prev, z, r, c, rh, h))
    err = pred_n - actions_n
    loss = float((err ** 2).sum(axis=(1, 2)).mean())
    dpred = 2.0 * err / batch
    dh_next = np.zeros((batch, hd), dtype)
    for t in range(t_window - 1, -1, -1):
        x, mask, e, h_prev, z, r, c, rh, h = caches[t]
        dout = dpred[:, t]
        grads["head.W"] += h.T @ dout
        grads["head.b"] += dout.sum(axis=0)
        dh_new = dout @ p["head.W"].T + dh_next
        dz = dh_new * (c - h_prev)
        dc = dh_new * z
        dh = dh_new * (1.0 - z)
        dc_pre = dc * (1.0 - c * c)
        grads["gru.Uc"] += rh.T @ dc_pre
        drh = dc_pre @ p["gru.Uc"].T
        dr = drh * h_prev
        dh += drh * r
        dxw = np.empty_like(dh_new, shape=(batch, 3 * hd))
        dxw[:, :hd] = dz * z * (1.0 - z)
        dxw[:, hd:2 * hd] = dr * r * (1.0 - r)
        dxw[:, 2 * hd:] = dc_pre
        grads["gru.W"] += e.T @ dxw
        grads["gru.b"] += dxw.sum(axis=0)
        grads["gru.U"] += h_prev.T @ dxw[:, :2 * hd]
        dh += dxw[:, :2 * hd] @ p["gru.U"].T
        de = (dxw @ p["gru.W"].T) * mask
        grads["enc.W"] += x.T @ de
        grads["enc.b"] += de.sum(axis=0)
        de @ p["enc.W"].T  # the input gradient that the old unroll dropped
        dh_next = dh
    return loss


def decode(cvae, z, cond):
    """Denormalized decoder output for (B, latent) latents and (B, cond_dim)
    raw conditions."""
    cond_n = (cond - cvae.cond_mean) / cvae.cond_std
    out_n, _ = cvae.decoder.forward(np.concatenate([z, cond_n], axis=-1))
    return out_n * cvae.target_std + cvae.target_mean


class TestPolicyRNN:
    def test_zero_weights_predict_mean_action(self, rng):
        norm = random_norm(rng)
        policy = PolicyRNN(2, 2, norm, hidden_dim=8, enc_dim=8, rng=rng)
        zero_store(policy.store)
        states = rng.normal(0, 1, (1, 4, 2))
        acts = unroll_actions(policy, states, goal=rng.normal(0, 1, (1, 2)))
        assert np.allclose(acts, np.tile(norm.action_mean, (1, 4, 1)))

    def test_batch_permutation_independence(self, rng):
        policy = PolicyRNN(2, 2, flat_norm(), hidden_dim=8, enc_dim=8, rng=rng)
        states = rng.normal(0, 1, (3, 5, 2))
        goals = rng.normal(0, 1, (3, 2))
        out = unroll_actions(policy, states, goals)
        perm = [2, 0, 1]
        out_perm = unroll_actions(policy, states[perm], goals[perm])
        assert np.allclose(out[perm], out_perm)

    def test_matches_manual_unroll(self, rng):
        norm = random_norm(rng)
        policy = PolicyRNN(2, 2, norm, hidden_dim=4, enc_dim=3, dtype=np.float64,
                           rng=rng)
        states = rng.normal(0, 1, (1, 3, 2))
        goal = rng.normal(0, 1, (1, 2))
        out = unroll_actions(policy, states, goal)
        # manual unroll with the public primitives
        h = np.zeros((1, 4))
        g_n = norm.norm_state(goal)
        expected = []
        for t in range(3):
            x = np.concatenate([norm.norm_state(states[:, t]), g_n], axis=1)
            e = np.maximum(x @ policy.enc.W.value + policy.enc.b.value, 0.0)
            h, _ = policy.cell.forward(h, e, (np.empty((1, 8)), np.empty((1, 4)),
                                              np.empty((1, 4)), np.empty((1, 4))))
            a_n = h @ policy.head.W.value + policy.head.b.value
            expected.append(norm.denorm_action(a_n))
        assert np.allclose(out, np.stack(expected, axis=1), rtol=0, atol=1e-12)

    def test_step_matches_unroll(self, rng):
        policy = PolicyRNN(2, 2, flat_norm(), hidden_dim=6, enc_dim=6, rng=rng)
        states = rng.normal(0, 1, (1, 4, 2))
        goal = rng.normal(0, 1, (1, 2))
        unrolled = unroll_actions(policy, states, goal)
        h = policy.init_hidden()
        stepped = []
        for t in range(4):
            a, h = policy.step(h, states[:, t], goal)
            stepped.append(a)
        assert np.allclose(unrolled, np.stack(stepped, axis=1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_step_reproduces_unroll_exactly(self, rng, dtype):
        policy = PolicyRNN(2, 2, random_norm(rng), hidden_dim=6, enc_dim=5,
                           dtype=dtype, rng=rng)
        states = rng.normal(0, 1, (5, 4, 2))
        goal = rng.normal(0, 1, (5, 2))
        unrolled = unroll_actions(policy, states, goal)
        h = policy.init_hidden(5)
        for t in range(4):
            a, h = policy.step(h, states[:, t], goal)
            assert a.shape == (5, 2)
            assert np.array_equal(a, unrolled[:, t]), t

    def test_goal_required_when_conditioned(self, rng):
        policy = PolicyRNN(2, 2, flat_norm(), hidden_dim=4, enc_dim=4, rng=rng)
        with pytest.raises(ValueError, match="goal"):
            policy.step(policy.init_hidden(), rng.normal(0, 1, (1, 2)))

    def test_loss_gradient_check(self, rng):
        policy = PolicyRNN(2, 2, random_norm(rng), hidden_dim=5, enc_dim=4,
                           dtype=np.float64, rng=rng)
        states = rng.normal(0, 1, (2, 4, 2))
        actions = rng.normal(0, 1, (2, 4, 2))
        goal = rng.normal(0, 1, (2, 2))
        errs = grad_check(lambda: policy.loss_and_grad(states, actions, goal),
                          policy.store, rng)
        assert max(errs.values()) < 1e-4, errs

    def test_non_goal_conditioned_gradient_check(self, rng):
        policy = PolicyRNN(2, 2, random_norm(rng), hidden_dim=5, enc_dim=4,
                           goal_conditioned=False, dtype=np.float64, rng=rng)
        states = rng.normal(0, 1, (2, 4, 2))
        actions = rng.normal(0, 1, (2, 4, 2))
        errs = grad_check(lambda: policy.loss_and_grad(states, actions),
                          policy.store, rng)
        assert max(errs.values()) < 1e-4, errs

    def test_float32_matches_float64(self):
        norm = random_norm(np.random.default_rng(7))
        p32, p64 = (PolicyRNN(2, 2, norm, hidden_dim=16, enc_dim=12, dtype=dtype,
                              rng=np.random.default_rng(8))
                    for dtype in (np.float32, np.float64))
        batch = np.random.default_rng(9)
        states = batch.normal(0, 1, (16, 6, 2))
        actions = batch.normal(0, 1, (16, 6, 2))
        goal = batch.normal(0, 1, (16, 2))
        loss32 = p32.loss_and_grad(states, actions, goal)
        loss64 = p64.loss_and_grad(states, actions, goal)
        assert loss32 == pytest.approx(loss64, rel=1e-4)
        for name, t in p64.store:
            assert np.allclose(p32.store.params[name].grad, t.grad, rtol=1e-4,
                               atol=1e-4 * np.abs(t.grad).max()), name

    @pytest.mark.parametrize("goal_conditioned", [True, False])
    def test_float32_policy_never_upcasts(self, rng, goal_conditioned):
        policy = PolicyRNN(2, 2, random_norm(rng), hidden_dim=6, enc_dim=5,
                           goal_conditioned=goal_conditioned, rng=rng)
        states = rng.normal(0, 1, (3, 4, 2))
        goal = rng.normal(0, 1, (3, 2)) if goal_conditioned else None
        pred_n, caches = policy._unroll(
            policy.norm.norm_state(states),
            None if goal is None else policy.norm.norm_state(goal))
        arrays = [pred_n, *cache_arrays(caches)]
        assert len(arrays) == 9
        assert all(a.dtype in (np.float32, np.bool_) for a in arrays)
        policy.loss_and_grad(states, rng.normal(0, 1, (3, 4, 2)), goal)
        adam_step(policy.store)
        assert policy.store.buffer.dtype == np.float32
        assert policy.store.moment1.any() and policy.store.moment2.any()
        for name, t in policy.store:
            assert t.value.dtype == t.grad.dtype == np.float32, name
        _, hidden = policy.step(policy.init_hidden(), states[:1, 0],
                                None if goal is None else goal[:1])
        assert hidden.dtype == np.float32


def policy_pair(dtype, goal_conditioned, seed=3):
    """Two policies with the same parameters."""
    norm = random_norm(np.random.default_rng(seed))
    return [PolicyRNN(2, 2, norm, hidden_dim=16, enc_dim=12,
                      goal_conditioned=goal_conditioned, dtype=dtype,
                      rng=np.random.default_rng(seed + 1)) for _ in range(2)]


def window_batch(rng, batch, t_window):
    """(B, T, obs) states, (B, T, act) actions and (B, obs) goals."""
    return (rng.normal(0, 1, (batch, t_window, 2)),
            rng.normal(0, 1, (batch, t_window, 2)), rng.normal(0, 1, (batch, 2)))


def grad_bytes(policy):
    return {name: t.grad.tobytes() for name, t in policy.store}


def cache_arrays(caches):
    """The arrays of a ``_StepCaches``, without the per-step views of them."""
    return [a for a in vars(caches).values() if isinstance(a, np.ndarray)]


def kept_arrays(policy):
    return [a for caches in policy._caches.values() for a in cache_arrays(caches)]


class TestPolicyCaches:
    """The training unroll against :func:`reference_loss_and_grad`, bit for
    bit, and the life of the caches the policy keeps between calls."""

    @pytest.mark.parametrize("goal_conditioned", [True, False])
    @pytest.mark.parametrize("t_window", [2, 10])
    @pytest.mark.parametrize("batch", [1, 5, 128])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_over_adam_steps(self, dtype, batch, t_window,
                                               goal_conditioned):
        policy, reference = policy_pair(dtype, goal_conditioned)
        rng = np.random.default_rng(batch * 100 + t_window)
        for _ in range(3):
            states, actions, goal = window_batch(rng, batch, t_window)
            goal = goal if goal_conditioned else None
            loss = policy.loss_and_grad(states, actions, goal)
            expected = reference_loss_and_grad(reference, states, actions, goal)
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
            assert grad_bytes(policy) == grad_bytes(reference)
            adam_step(policy.store)
            adam_step(reference.store)

    def test_same_shape_reuses_caches(self, rng):
        policy = PolicyRNN(2, 2, random_norm(rng), hidden_dim=6, enc_dim=5, rng=rng)
        states, actions, goal = window_batch(rng, 4, 3)
        policy.loss_and_grad(states, actions, goal)
        kept = kept_arrays(policy)
        policy.loss_and_grad(*window_batch(rng, 4, 3))
        assert [id(a) for a in kept_arrays(policy)] == [id(a) for a in kept]
        pred_n, _ = policy._unroll(policy.norm.norm_state(states),
                                   policy.norm.norm_state(goal))
        assert not any(np.shares_memory(pred_n, a) for a in kept)

    def test_interleaved_step_leaves_training_unchanged(self, rng):
        policy, reference = policy_pair(np.float32, True)
        first, second = window_batch(rng, 8, 4), window_batch(rng, 8, 4)
        for model in (policy, reference):
            model.loss_and_grad(*first)
            adam_step(model.store)
        kept = [(id(a), a.copy()) for a in kept_arrays(policy)]
        hidden = policy.init_hidden()
        action, new_hidden = policy.step(hidden, rng.normal(0, 1, (1, 2)),
                                         rng.normal(0, 1, (1, 2)))
        after_step = kept_arrays(policy)
        assert all(id(a) == i and np.array_equal(a, old) for (i, old), a
                   in zip(kept, after_step))
        assert not any(np.shares_memory(out, a) for out in (action, new_hidden)
                       for a in kept_arrays(policy))
        policy.loss_and_grad(*second)
        reference.loss_and_grad(*second)
        assert grad_bytes(policy) == grad_bytes(reference)


class TestConditionalVAE:
    def test_zero_beta_perfect_reconstruction(self, rng):
        norm = random_norm(rng)
        cvae = GoalCVAE(2, norm, latent_dim=1, beta=0.0, hidden_dim=4, rng=rng)
        zero_store(cvae.store)
        # zero decoder output denormalizes to the mean, so the mean is exact
        loss, parts = cvae.loss_and_grad(norm.state_mean[None],
                                         rng.normal(0, 1, (1, 2)),
                                         eps=np.zeros((1, 1)))
        assert loss == 0.0 and parts["recon"] == 0.0

    def test_beta_weighted_kl_example(self, rng):
        norm = flat_norm()
        cvae = GoalCVAE(2, norm, latent_dim=1, beta=2.0, hidden_dim=4, rng=rng)
        zero_store(cvae.store)
        # encoder bias fixes mu=1, log_sigma=0; zero decoder reconstructs the mean
        cvae.store.params["enc.l2.b"].value[...] = np.array([1.0, 0.0])
        loss, parts = cvae.loss_and_grad(np.zeros((1, 2)), np.zeros((1, 2)),
                                         eps=np.zeros((1, 1)))
        assert np.isclose(parts["kl"], 0.5)
        assert np.isclose(loss, 1.0)

    def test_matches_recomputation_from_primitives(self, rng):
        norm = random_norm(rng)
        cvae = ActionCVAE(2, 2, norm, latent_dim=3, beta=0.07, hidden_dim=6, rng=rng)
        target = rng.normal(0, 1, (4, 2))
        cond = rng.normal(0, 1, (4, 2))
        eps = rng.standard_normal((4, 3))
        loss, parts = cvae.loss_and_grad(target, cond, eps=eps)
        # independent recomposition
        t_n = (target - norm.action_mean) / norm.action_std
        c_n = (cond - norm.state_mean) / norm.state_std
        raw, _ = cvae.encoder.forward(np.concatenate([t_n, c_n], axis=1))
        head = GaussianHead.from_raw(raw)
        z = head.mu + head.sigma * eps
        out, _ = cvae.decoder.forward(np.concatenate([z, c_n], axis=1))
        recon = ((out - t_n) ** 2).sum(axis=1).mean()
        kl = kl_to_standard_normal(head).mean()
        assert np.isclose(loss, recon + 0.07 * kl, atol=1e-12)
        assert np.isclose(parts["recon"], recon)

    def test_gradient_check_frozen_eps(self, rng):
        cvae = GoalCVAE(2, random_norm(rng), latent_dim=2, beta=0.1,
                        hidden_dim=5, rng=rng)
        jitter_params(cvae.store, rng)
        target = rng.normal(0, 1, (3, 2))
        cond = rng.normal(0, 1, (3, 2))
        eps = rng.standard_normal((3, 2))
        errs = grad_check(lambda: cvae.loss_and_grad(target, cond, eps=eps)[0],
                          cvae.store, rng)
        assert max(errs.values()) < 1e-4, errs


class TestSampling:
    def test_single_sample_frozen_zero_latent(self, rng):
        # the latent is frozen by seeding: the same seed rebuilds it here
        norm = random_norm(rng)
        cvae = GoalCVAE(2, norm, latent_dim=3, hidden_dim=6, rng=rng)
        s = rng.normal(0, 1, 2)
        out = cvae.sample(s, 1, np.random.default_rng(5))
        z = np.random.default_rng(5).standard_normal((1, 3))
        assert np.allclose(out, decode(cvae, z, s[None]))

    def test_seeded_determinism(self, rng):
        cvae = ActionCVAE(2, 2, flat_norm(), latent_dim=2, hidden_dim=6, rng=rng)
        s = rng.normal(0, 1, 2)
        a = cvae.sample(s, 8, np.random.default_rng(3))
        b = cvae.sample(s, 8, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_zero_samples_rejected(self, rng):
        cvae = GoalCVAE(2, flat_norm(), hidden_dim=4, rng=rng)
        with pytest.raises(ValueError, match="at least one"):
            cvae.sample(np.zeros(2), 0, rng)

    def test_outputs_finite_and_shaped(self, rng):
        cvae = GoalCVAE(3, flat_norm(3, 2), latent_dim=2, hidden_dim=5, rng=rng)
        out = cvae.sample(np.zeros(3), 17, rng)
        assert out.shape == (17, 3)
        assert np.all(np.isfinite(out))

    def test_sample_each_nests_sample(self, rng):
        cvae = ActionCVAE(2, 2, flat_norm(), latent_dim=2, hidden_dim=5, rng=rng)
        conds = rng.normal(0, 1, (3, 2))
        out = cvae.sample_each(conds, 4, np.random.default_rng(0))
        assert out.shape == (4, 3, 2)
        z = np.random.default_rng(0).standard_normal((4, 3, 2))
        for j in range(4):
            assert np.allclose(out[j], decode(cvae, z[j], conds))


class TestQNet:
    def test_zero_weights_zero_value(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=4, rng=rng)
        zero_store(q.store)
        value = q.value(rng.normal(0, 1, (1, 2)), rng.normal(0, 1, (1, 2)))
        assert np.array_equal(value, [0.0])

    def test_target_equals_online_after_full_polyak(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=4, rng=rng)
        for _, t in q.store:
            t.value += rng.normal(0, 0.1, t.value.shape)
        polyak_update(q, 1.0)
        s, a = rng.normal(0, 1, (1, 2)), rng.normal(0, 1, (1, 2))
        assert np.array_equal(q.value(s, a, use_target=True), q.value(s, a))

    def test_value_matches_mlp_on_concat(self, rng):
        norm = random_norm(rng)
        q = QNet(2, 2, norm, hidden_dim=5, rng=rng)
        s, a = rng.normal(0, 1, (1, 2)), rng.normal(0, 1, (1, 2))
        x = np.concatenate([norm.norm_state(s), norm.norm_action(a)], axis=1)
        assert np.allclose(q.value(s, a), q.mlp.forward(x)[0][:, 0])

    def test_loss_gradient_check(self, rng):
        q = QNet(2, 2, random_norm(rng), hidden_dim=5, rng=rng)
        s = rng.normal(0, 1, (4, 2))
        a = rng.normal(0, 1, (4, 2))
        targets = rng.normal(0, 1, 4)
        errs = grad_check(lambda: q.loss_and_grad(s, a, targets)[0], q.store, rng)
        assert max(errs.values()) < 1e-4, errs


class TestProposalValue:
    @pytest.mark.parametrize("batch, use_target", [(100, False), (128, True)])
    def test_matches_forward_reference_bit_for_bit(self, rng, batch, use_target):
        norm = random_norm(rng)
        q = QNet(2, 2, norm, rng=rng)
        cvae = ActionCVAE(2, 2, norm, rng=rng)
        for store in (q.store, q.target_store, cvae.store):
            for _, t in store:
                t.value += rng.normal(0, 0.3, t.shape)
        s = rng.normal(0, 1, (batch, 2))
        m = 10
        got = proposal_value(q, cvae, s, m, np.random.default_rng(7), use_target)
        # reference: the training forward pass, one proposal index at a time
        z = np.random.default_rng(7).standard_normal((m, batch, cvae.latent_dim))
        net = q.target_mlp if use_target else q.mlp
        s_n = (s - norm.state_mean) / norm.state_std
        best = np.full(batch, -np.inf)
        for j in range(m):
            a = decode(cvae, z[j], s)
            a_n = (a - norm.action_mean) / norm.action_std
            value, _ = net.forward(np.concatenate([s_n, a_n], axis=1))
            best = np.maximum(best, value[:, 0])
        assert got.tobytes() == best.tobytes()


class TestPolyak:
    def test_tau_zero_keeps_target(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=4, rng=rng)
        for _, t in q.store:
            t.value += 1.0
        before = q.target_store.state_dict()
        polyak_update(q, 0.0)
        after = q.target_store.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_half_tau_twice(self, rng):
        q = QNet(1, 1, flat_norm(1, 1), hidden_dim=2, rng=rng)
        name = "q.l0.W"
        q.store.params[name].value[...] = 4.0
        q.target_store.params[name].value[...] = 0.0
        polyak_update(q, 0.5)
        assert np.all(q.target_store.params[name].value == 2.0)
        polyak_update(q, 0.5)
        assert np.all(q.target_store.params[name].value == 3.0)

    def test_tau_out_of_range(self, rng):
        q = QNet(2, 2, flat_norm(), hidden_dim=4, rng=rng)
        with pytest.raises(ValueError, match="tau"):
            polyak_update(q, 1.5)

    @given(tau=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_contraction_toward_online(self, tau, seed):
        rng = np.random.default_rng(seed)
        q = QNet(2, 2, flat_norm(), hidden_dim=3, rng=rng)
        for _, t in q.target_store:
            t.value += rng.normal(0, 1, t.value.shape)
        gaps_before = {k: np.abs(q.target_store.params[k].value - t.value)
                       for k, t in q.store.params.items()}
        polyak_update(q, tau)
        for k, t in q.store.params.items():
            gap_after = np.abs(q.target_store.params[k].value - t.value)
            assert np.all(gap_after <= (1 - tau) * gaps_before[k] + 1e-12)


class TestAuxiliaryNets:
    def test_goal_regressor_gradient_check(self, rng):
        reg = goal_regressor(random_norm(rng), hidden_dim=5, rng=rng)
        s = rng.normal(0, 1, (4, 2))
        target = rng.normal(0, 1, (4, 2))
        errs = grad_check(lambda: reg.loss_and_grad(s, target), reg.store, rng)
        assert max(errs.values()) < 1e-4, errs

    def test_bc_net_gradient_check(self, rng):
        net = bc_net(random_norm(rng), hidden_dim=5, rng=rng)
        s = rng.normal(0, 1, (4, 2))
        a = rng.normal(0, 1, (4, 2))
        errs = grad_check(lambda: net.loss_and_grad(s, a), net.store, rng)
        assert max(errs.values()) < 1e-4, errs

    def test_zero_bc_net_outputs_mean_action(self, rng):
        norm = random_norm(rng)
        net = bc_net(norm, hidden_dim=4, rng=rng)
        zero_store(net.store)
        assert np.allclose(net.predict(rng.normal(0, 1, (1, 2))), norm.action_mean)

    def test_zero_regressor_outputs_mean_state(self, rng):
        norm = random_norm(rng)
        reg = goal_regressor(norm, hidden_dim=4, rng=rng)
        zero_store(reg.store)
        assert np.allclose(reg.predict(rng.normal(0, 1, (1, 2))), norm.state_mean)


class TestModelSet:
    def test_shared_components_identical_across_variants(self):
        norm = flat_norm()
        a = build_models("iris", 2, 2, norm, hidden_dim=8,
                         rng=np.random.default_rng(5))
        b = build_models("iris_no_q", 2, 2, norm, hidden_dim=8,
                         rng=np.random.default_rng(5))
        for part in ("policy", "goal_cvae"):
            for name, t in a[part].store:
                assert np.array_equal(t.value, b[part].store.params[name].value)

    def test_state_dict_roundtrip_with_prefixes(self, rng):
        models = build_models("iris", 2, 2, flat_norm(), hidden_dim=6, rng=rng)
        state = models.state_dict()
        assert any(k.startswith("policy/") for k in state)
        assert any(k.startswith("qnet_target/") for k in state)
        fresh = build_models("iris", 2, 2, flat_norm(), hidden_dim=6,
                             rng=np.random.default_rng(99))
        fresh.load_state_dict(state)
        for k, v in fresh.state_dict().items():
            assert np.array_equal(v, state[k])

    def test_tensors_of_missing_components_rejected(self, rng):
        state = build_models("iris", 2, 2, flat_norm(), hidden_dim=6,
                             rng=rng).state_dict()
        bcq = build_models("bcq", 2, 2, flat_norm(), hidden_dim=6,
                           rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"\['goal_cvae', 'policy'\]"):
            bcq.load_state_dict(state)

    def test_unknown_variant_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown variant"):
            build_models("dagger", 2, 2, flat_norm(), rng=rng)

    def test_variant_component_presence(self, rng):
        cases = {
            "iris": ["policy", "goal_cvae", "action_cvae", "qnet", "qnet_target"],
            "iris_no_goal_vae": ["policy", "goal_reg"],
            "iris_no_q": ["policy", "goal_cvae"],
            "bc": ["bc"],
            "bc_rnn": ["policy"],
            "bcq": ["action_cvae", "qnet", "qnet_target"],
        }
        assert list(cases) == list(VARIANTS)
        for variant, prefixes in cases.items():
            models = build_models(variant, 2, 2, flat_norm(),
                                  rng=np.random.default_rng(0))
            assert list(models.stores()) == prefixes
