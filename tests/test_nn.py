import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from goalsel.binfile import FormatError, Writer
from goalsel.nn import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    GRUCell,
    MLP,
    GaussianHead,
    ParamStore,
    Tensor,
    adam_step,
    grad_check,
    kl_to_standard_normal,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        with ParamStore() as store:
            store.add("w", np.zeros(3))
            with pytest.raises(ValueError, match="duplicate"):
                store.add("w", np.zeros(3))

    def test_add_after_allocation_rejected(self):
        with ParamStore() as store:
            store.add("w", np.zeros(3))
        with pytest.raises(ValueError, match="already allocated"):
            store.add("v", np.zeros(3))
        assert list(store.params) == ["w"] and store.buffer.shape == (4, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_added_values_land_in_the_buffer(self, rng, dtype):
        a = rng.normal(size=(3, 2))
        with ParamStore(dtype) as store:
            t = store.add("a", a)
            store.add("b", np.ones(4))
        a_cast = a.astype(dtype)
        a[...] = 0.0  # the store keeps its own copy
        assert store.value.tobytes() == np.concatenate(
            [a_cast.ravel(), np.ones(4, dtype)]).tobytes()
        assert np.shares_memory(t.value, store.value) and t.value.shape == (3, 2)
        assert not store.buffer[1:].any()

    def test_building_peaks_near_the_final_buffer(self, rng):
        # one allocation at the final size: the values held until the block
        # ends add a quarter; growing by a copy per tensor would double it
        tracemalloc.start()
        try:
            with ParamStore() as store:
                MLP(store, "m", [64, 256, 256, 64], rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.buffer.nbytes <= peak < 1.4 * store.buffer.nbytes

    def test_state_dict_roundtrip(self, rng):
        with ParamStore() as store:
            store.add("a", rng.normal(size=(3, 2)))
            store.add("b", rng.normal(size=4))
        state = store.state_dict()
        store.params["a"].value[...] = 0.0
        store.load_state_dict(state)
        assert np.array_equal(store.params["a"].value, state["a"])

    def test_load_shape_mismatch(self):
        with ParamStore() as store:
            store.add("a", np.zeros(3))
        with pytest.raises(ValueError, match="shape mismatch"):
            store.load_state_dict({"a": np.zeros(4)})

    def test_assert_finite(self):
        with ParamStore() as store:
            t = store.add("a", np.zeros(2))
        t.value[0] = np.inf
        with pytest.raises(FloatingPointError):
            store.assert_finite()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_share_keeps_contents_and_crosses_fork(self, rng, dtype):
        with ParamStore(dtype) as store:
            store.add("a", rng.normal(size=(3, 2)))
            store.add("b", rng.normal(size=5))
        store.params["a"].grad[...] = 1.0
        adam_step(store)
        store.params["b"].grad[...] = 2.0
        before = store.buffer.copy()
        assert store.share() is store
        assert store.step_count == 1
        assert store.buffer.dtype == dtype
        assert store.buffer.tobytes() == before.tobytes()
        for t in store.params.values():
            assert np.shares_memory(t.value, store.buffer)
            assert np.shares_memory(t.grad, store.buffer)

        def child():
            store.params["a"].value[...] = 7.0
            store.moment2[-5:] = 3.0
            store.params["b"].grad[...] = 0.0
            store.step_count = 4

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(10)
        assert process.exitcode == 0
        assert np.all(store.params["a"].value == 7.0)
        assert np.all(store.moment2[-5:] == 3.0)
        assert not store.params["b"].grad.any()
        assert store.step_count == 4


class TestMLP:
    def test_zero_weights_zero_output(self, rng):
        with ParamStore() as store:
            mlp = MLP(store, "m", [3, 4, 2], rng)
        for _, t in store:
            t.value[...] = 0.0
        out, _ = mlp.forward(rng.normal(size=(1, 3)))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_identity_single_layer(self, rng):
        with ParamStore() as store:
            mlp = MLP(store, "m", [3, 3], rng)
        store.params["m.l0.W"].value[...] = np.eye(3)
        store.params["m.l0.b"].value[...] = 0.0
        x = rng.normal(size=(1, 3))
        assert np.allclose(mlp.forward(x)[0], x)

    def test_matches_hand_matrix_arithmetic(self, rng):
        # 2x2 two-layer net checked against explicit by-hand products
        with ParamStore() as store:
            mlp = MLP(store, "m", [2, 2, 2], rng)
        w0 = store.params["m.l0.W"].value
        b0 = store.params["m.l0.b"].value
        w1 = store.params["m.l1.W"].value
        b1 = store.params["m.l1.b"].value
        b0[...] = rng.normal(size=2)
        b1[...] = rng.normal(size=2)
        x = rng.normal(size=2)
        hidden = [max(x[0] * w0[0, j] + x[1] * w0[1, j] + b0[j], 0.0) for j in range(2)]
        expected = [hidden[0] * w1[0, j] + hidden[1] * w1[1, j] + b1[j] for j in range(2)]
        assert np.allclose(mlp.forward(x[None])[0], [expected], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predict_is_forward_bit_for_bit(self, rng, dtype):
        with ParamStore(dtype) as store:
            mlp = MLP(store, "m", [3, 16, 16, 2], rng)
        for _, t in store:
            t.value += rng.normal(0, 0.5, t.shape)
        # row 0 is zero, so every first-layer unit sits at its negative bias
        b0 = store.params["m.l0.b"].value
        b0[...] = -np.abs(b0) - 0.1
        x = rng.normal(0, 3, (9, 3)).astype(dtype)
        x[0] = 0.0
        x_before = x.copy()
        out, caches = mlp.forward(x)
        masks = caches[0][1]
        assert not masks[0].any() and masks[1:].any()
        got = mlp.predict(x)
        assert got.dtype == out.dtype
        assert np.array_equal(got, out) and got.tobytes() == out.tobytes()
        assert np.array_equal(x, x_before)

    def test_backward_params_leaves_backward_param_grads(self, rng):
        with ParamStore() as store:
            mlp = MLP(store, "m", [3, 8, 8, 2], rng)
        for _, t in store:
            t.value += rng.normal(0, 0.5, t.shape)
        x = rng.normal(size=(5, 3))
        dout = rng.normal(size=(5, 2))
        grads = []
        for backward in (mlp.backward, mlp.backward_params):
            store.zero_grad()
            backward(mlp.forward(x)[1], dout)
            grads.append({name: t.grad.tobytes() for name, t in store})
        assert grads[0] == grads[1]
        assert all(t.grad.any() for _, t in store)

    def test_shape_mismatch_raises(self, rng):
        with ParamStore() as store:
            mlp = MLP(store, "m", [3, 2], rng)
        with pytest.raises(ValueError):
            mlp.forward(np.zeros((1, 5)))


def _scalar_gru_reference(cell, h, x):
    """Naive per-coordinate reference for the fused-weight cell."""
    hd = cell.hidden_dim
    W, U, Uc, b = (cell.W.value, cell.U.value, cell.Uc.value, cell.b.value)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = [sig(sum(x[i] * W[i, j] for i in range(len(x)))
             + sum(h[i] * U[i, j] for i in range(hd)) + b[j])
         for j in range(hd)]
    r = [sig(sum(x[i] * W[i, hd + j] for i in range(len(x)))
             + sum(h[i] * U[i, hd + j] for i in range(hd)) + b[hd + j])
         for j in range(hd)]
    rh = [r[i] * h[i] for i in range(hd)]
    c = [math.tanh(sum(x[i] * W[i, 2 * hd + j] for i in range(len(x)))
                   + sum(rh[i] * Uc[i, j] for i in range(hd)) + b[2 * hd + j])
         for j in range(hd)]
    return np.array([(1.0 - z[j]) * h[j] + z[j] * c[j] for j in range(hd)])


def gru_forward(cell, h, x):
    """One cell update of (B, H) hidden states on (B, in) inputs into new
    arrays."""
    out = (np.empty((len(h), 2 * cell.hidden_dim)), np.empty_like(h),
           np.empty_like(h), np.empty_like(h))
    return cell.forward(h, x, out)[0]


def gru(cell, h, x):
    """One cell update of a single (h, x) row pair."""
    return gru_forward(cell, np.atleast_2d(h), np.atleast_2d(x))[0]


def head_of(mu, log_sigma):
    """A Gaussian head from mu and raw (unclamped) log-sigma."""
    return GaussianHead.from_raw(np.concatenate([mu, log_sigma], axis=-1))


class TestSigmoid:
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
    def test_matches_expit_and_keeps_dtype(self, rng, dtype, rtol):
        # 0.5 + 0.5 * tanh rounds to the dtype's absolute spacing near 0.5,
        # so tiny outputs carry an absolute, not a relative, error
        x = rng.normal(0, 6, (64, 32)).astype(dtype)
        out = sigmoid(x)
        assert out.dtype == dtype
        assert np.allclose(out, expit(x), rtol=rtol, atol=np.finfo(dtype).eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_limits_and_midpoint(self, dtype):
        with np.errstate(all="raise"):
            out = sigmoid(np.array([-1e4, 0.0, 1e4], dtype=dtype))
        assert out.tolist() == [0.0, 0.5, 1.0]


class TestGRU:
    def test_zero_weights_halve_hidden(self, rng):
        with ParamStore() as store:
            cell = GRUCell(store, "g", 2, 3, rng)
        for _, t in store:
            t.value[...] = 0.0
        h = rng.normal(size=3)
        # z = sigmoid(0) = 0.5 and candidate = tanh(0) = 0, so h' = 0.5 h
        assert np.allclose(gru(cell, h, np.zeros(2)), 0.5 * h)
        assert np.array_equal(gru(cell, np.zeros(3), rng.normal(size=2)),
                              np.zeros(3))

    def test_saturated_update_gate_ignores_hidden(self, rng):
        with ParamStore() as store:
            cell = GRUCell(store, "g", 2, 3, rng)
        cell.b.value[:3] = 50.0   # saturate the update gate
        cell.Uc.value[...] = 0.0  # candidate independent of hidden
        x = rng.normal(size=2)
        out_a = gru(cell, rng.normal(size=3), x)
        out_b = gru(cell, rng.normal(size=3), x)
        assert np.allclose(out_a, out_b, atol=1e-3)

    def test_matches_scalar_reference(self, rng):
        with ParamStore() as store:
            cell = GRUCell(store, "g", 3, 4, rng)
        h = rng.normal(size=4)
        x = rng.normal(size=3)
        assert np.allclose(gru(cell, h, x),
                           _scalar_gru_reference(cell, h, x), atol=1e-12)

    def test_batched_matches_single(self, rng):
        with ParamStore() as store:
            cell = GRUCell(store, "g", 3, 4, rng)
        h = rng.normal(size=(5, 4))
        x = rng.normal(size=(5, 3))
        batched = gru_forward(cell, h, x)
        for i in range(5):
            assert np.allclose(batched[i], gru(cell, h[i], x[i]))


class TestGaussianHead:
    def test_sigma_floor_keeps_z_near_mu(self):
        head = head_of(np.array([1.0, -2.0]), np.array([-20.0, -20.0]))
        z = head.mu + head.sigma * np.array([1.0, -1.0])
        assert np.allclose(z, head.mu, atol=0.01)
        assert np.all(head.log_sigma == -5.0)

    def test_injected_eps_exact(self):
        head = head_of(np.array([0.5, -0.5]), np.array([0.3, -0.2]))
        eps = np.array([2.0, -1.5])
        assert np.array_equal(head.mu + head.sigma * eps,
                              np.array([0.5, -0.5]) + np.exp([0.3, -0.2]) * eps)

    def test_law_of_large_numbers(self):
        head = head_of(np.zeros(100_000), np.zeros(100_000))
        z = head.mu + head.sigma * np.random.default_rng(7).standard_normal(100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05

    def test_kl_zero_at_standard_normal(self):
        head = head_of(np.zeros(3), np.zeros(3))
        assert kl_to_standard_normal(head) == 0.0

    def test_kl_closed_form_scalar(self):
        head = head_of(np.array([1.0]), np.array([0.0]))
        assert np.isclose(kl_to_standard_normal(head), 0.5)

    def test_kl_matches_monte_carlo(self):
        mu, sigma = 0.3, 0.7
        head = head_of(np.array([mu]), np.array([np.log(sigma)]))
        rng = np.random.default_rng(11)
        x = rng.normal(mu, sigma, 1_000_000)
        log_q = -0.5 * ((x - mu) / sigma) ** 2 - np.log(sigma)
        log_p = -0.5 * x ** 2
        mc = float(np.mean(log_q - log_p))
        assert abs(float(kl_to_standard_normal(head)) - mc) < 1e-2

    @given(mu=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
           ls=st.lists(st.floats(-4.5, 1.5), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_kl_nonnegative(self, mu, ls):
        k = min(len(mu), len(ls))
        head = head_of(np.array(mu[:k]), np.array(ls[:k]))
        assert kl_to_standard_normal(head) >= -1e-12

    def test_even_split_required(self):
        with pytest.raises(ValueError, match="even"):
            GaussianHead.from_raw(np.zeros(3))


class TestAdam:
    def test_zero_grad_is_noop_any_state(self, rng):
        with ParamStore() as store:
            store.add("x", rng.normal(size=3))
            store.add("y", rng.normal(size=(2, 2)))
        # nonzero optimizer state must not move parameters when grads are zero
        store.moment1[...] = 1.0
        store.moment2[...] = 2.0
        store.step_count = 5
        before = store.buffer.copy()
        adam_step(store, lr=0.1)
        assert np.array_equal(store.buffer, before)
        assert store.step_count == 6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_tensor_loop(self, rng, dtype):
        def reference_step(store, moments, lr):
            # one tensor at a time, as each tensor once kept its own moments
            store.step_count += 1
            t = store.step_count
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for name, tensor in store:
                g = tensor.grad
                m, v = moments[name]
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                tensor.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
                g.fill(0.0)

        shapes = {"w": (3, 4), "b": (4,), "u": (4, 2), "c": (1,)}
        stores = [ParamStore(dtype) for _ in range(2)]
        with stores[0], stores[1]:
            for name, shape in shapes.items():
                value = rng.normal(size=shape)
                for store in stores:
                    store.add(name, value)
        flat, reference = stores
        moments = {n: (np.zeros_like(t.value), np.zeros_like(t.value))
                   for n, t in reference}
        for _ in range(5):
            for name, shape in shapes.items():
                grad = rng.normal(size=shape)
                flat.params[name].grad[...] = grad
                reference.params[name].grad[...] = grad
            adam_step(flat, lr=1e-2)
            reference_step(reference, moments, lr=1e-2)
            for name, tensor in reference:
                assert flat.params[name].value.tobytes() == tensor.value.tobytes()
            for row, moment in ((flat.moment1, 0), (flat.moment2, 1)):
                want = np.concatenate([mv[moment].ravel() for mv in moments.values()])
                assert row.tobytes() == want.tobytes()
            assert not flat.grad.any()

    def test_first_step_magnitude_and_sign(self):
        with ParamStore() as store:
            t = store.add("x", np.array([0.0]))
        t.grad[...] = 3.7
        adam_step(store, lr=1e-3)
        assert np.isclose(t.value[0], -1e-3, rtol=1e-6)
        with ParamStore() as store2:
            t2 = store2.add("x", np.array([0.0]))
        t2.grad[...] = -0.2
        adam_step(store2, lr=1e-3)
        assert np.isclose(t2.value[0], 1e-3, rtol=1e-6)

    def test_grads_zeroed_after_step(self):
        with ParamStore() as store:
            t = store.add("x", np.array([1.0]))
        t.grad[...] = 1.0
        adam_step(store)
        assert np.all(t.grad == 0.0)

    def test_quadratic_convergence_matches_recursion(self):
        with ParamStore() as store:
            t = store.add("x", np.array([1.0]))
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        # independent scalar recursion
        x, m, v = 1.0, 0.0, 0.0
        for step in range(1, 101):
            g = 2.0 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** step)) / (math.sqrt(v / (1 - b2 ** step)) + eps)
        for _ in range(100):
            t.grad[...] = 2.0 * t.value
            adam_step(store, lr=lr, beta1=b1, beta2=b2, eps=eps)
        assert abs(t.value[0]) < 0.1
        assert np.isclose(t.value[0], x, atol=1e-12)


class TestGradCheck:
    def test_quadratic_loss_exact(self, rng):
        with ParamStore() as store:
            t = store.add("x", rng.normal(size=6))
        target = rng.normal(size=6)

        def loss_fn():
            diff = t.value - target
            t.grad += 2.0 * diff
            return float((diff ** 2).sum())

        errs = grad_check(loss_fn, store, rng, coords_per_param=6)
        assert max(errs.values()) < 1e-7, errs


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        tensors = {
            "policy/enc.W": rng.normal(size=(4, 3)).astype(np.float32),
            "qnet/q.l0.b": rng.normal(size=5).astype(np.float32),
        }
        path = tmp_path / "c.bin"
        save_checkpoint(path, tensors, config_hash="abc123")
        loaded, digest = load_checkpoint(path)
        assert digest == "abc123"
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].tobytes() == tensors[name].tobytes()
            assert loaded[name].shape == tensors[name].shape

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(path, {"a": np.zeros(2, dtype=np.float32)}, config_hash="h")
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(path, {"a": np.zeros(8, dtype=np.float32)}, config_hash="h")
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_repeated_tensor_name(self, tmp_path):
        w = Writer(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        w.text("h")
        w.u32(2)
        for fill in (0.0, 1.0):
            w.text("q/a")
            w.u32(1)
            w.u32(2)
            w.f32(np.full(2, fill, dtype=np.float32))
        path = tmp_path / "c.bin"
        w.write(path)
        with pytest.raises(FormatError, match="'q/a' repeated"):
            load_checkpoint(path)


class TestTensor:
    def test_grad_matches_shape(self):
        with ParamStore() as store:
            store.add("a", np.zeros(4))
            t = store.add("b", np.ones((2, 3)))
        assert isinstance(t, Tensor)
        assert t.grad.shape == (2, 3)
        assert t.shape == (2, 3)
        assert np.shares_memory(t.value, store.value)
        assert np.shares_memory(t.grad, store.grad)
        assert np.array_equal(store.value, [0.0] * 4 + [1.0] * 6)
