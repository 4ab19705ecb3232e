"""Minimal neural substrate: parameter tensors with gradient slots, dense and
gated-recurrent layers, clamped diagonal-Gaussian heads, Adam, finite-difference
gradient checking, and a named-tensor checkpoint format (stored in the
container of :mod:`goalsel.binfile`).

Each :class:`ParamStore` holds its parameters, gradients and Adam moments in
one flat buffer of one dtype (float64 unless the owner asks for float32), so
that Adam and the other whole-store operations are single array operations;
layers compute in the dtype of their inputs and parameters, with hand-written
backward passes. Layers follow a ``forward(...) -> (output, cache)`` /
``backward(cache, dout) -> din`` convention; parameter gradients accumulate
into the owning :class:`Tensor` until the next :func:`adam_step`, so a
recurrent cell can be unrolled and backpropagated one cached step at a time.
:meth:`GRUCell.forward` writes its cached values into arrays the caller
passes, as :func:`relu` does when given ``out``, so that an unroll can keep
them in buffers it reuses, and :meth:`Linear.backward_params` and
:meth:`MLP.backward_params` skip the input gradient of a layer whose input is
data. :meth:`MLP.predict` is the inference pass: it returns the output of
:meth:`MLP.forward` bit for bit but keeps no caches.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .binfile import FormatError, Reader, Writer

LOG_SIGMA_MIN = -5.0
LOG_SIGMA_MAX = 2.0

CHECKPOINT_MAGIC = b"IRC1"
CHECKPOINT_VERSION = 1


class Tensor:
    """A parameter array and its same-shaped gradient slot: views of one
    segment of the owning :class:`ParamStore`'s buffer."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self.value = value
        self.grad = grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class ParamStore:
    """Named parameter tensors laid end to end, in the order added, in one
    ``(4, n)`` buffer of the store's ``dtype``, plus Adam's step counter. The
    rows, also bound as ``value``, ``grad``, ``moment1`` and ``moment2``, are
    the flat values, gradients and both Adam moments; each tensor's ``value``
    and ``grad`` are views of its segment of the first two.

    A store is filled in a ``with`` block (``with ParamStore() as store:``):
    :meth:`add` keeps each tensor's value until the block ends, which
    allocates the buffer once, at its final size, and binds the views.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self._step = np.zeros(1, np.int64)
        self.buffer = None

    def __enter__(self) -> "ParamStore":
        return self

    def __exit__(self, *exc_info) -> None:
        values = [t.value for t in self.params.values()]
        self._bind(np.zeros((4, sum(v.size for v in values)), self.dtype))
        for t, value in zip(self.params.values(), values):
            t.value[...] = value

    def _bind(self, buffer: np.ndarray) -> None:
        """Make ``buffer`` the store's and rebind the row and tensor views."""
        self.buffer = buffer
        self.value, self.grad, self.moment1, self.moment2 = buffer
        start = 0
        for t in self.params.values():
            stop = start + t.value.size
            t.value = buffer[0, start:stop].reshape(t.shape)
            t.grad = buffer[1, start:stop].reshape(t.shape)
            start = stop

    @property
    def step_count(self) -> int:
        """Adam steps taken so far."""
        return int(self._step[0])

    @step_count.setter
    def step_count(self, value: int) -> None:
        self._step[0] = value

    def add(self, name: str, value) -> Tensor:
        """Add a tensor holding ``value`` (zero gradient and moments). Its
        ``value`` is a copy until the ``with`` block ends, and its ``grad``
        is ``None``; then both are views of the buffer."""
        if self.buffer is not None:
            raise ValueError("the store's buffer is already allocated")
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor = self.params[name] = Tensor(np.array(value, dtype=self.dtype), None)
        return tensor

    def __iter__(self):
        return iter(self.params.items())

    def __len__(self):
        return len(self.params)

    def share(self) -> "ParamStore":
        """Copy the step counter and the buffer into one anonymous shared
        memory mapping and rebind the views to it, so that a process forked
        afterwards reads and writes the same memory as this one, and either
        process can take the store's next Adam step. Arrays captured before
        the call keep the old private memory."""
        shared = mmap.mmap(-1, 8 + self.buffer.nbytes)  # views keep it alive
        step = np.frombuffer(shared, np.int64, 1)
        step[0] = self.step_count
        buffer = np.frombuffer(shared, self.dtype, offset=8).reshape(self.buffer.shape)
        buffer[...] = self.buffer
        self._step = step
        self._bind(buffer)
        return self

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def assert_finite(self) -> None:
        if np.isfinite(self.value).all():
            return
        name = next(n for n, t in self.params.items() if not np.isfinite(t.value).all())
        raise FloatingPointError(f"non-finite values in parameter {name!r}")

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.value.copy() for name, t in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            missing = set(self.params) - set(state)
            extra = set(state) - set(self.params)
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)}, "
                             f"unexpected={sorted(extra)}")
        for name, value in state.items():
            tensor = self.params[name]
            value = np.asarray(value, dtype=self.dtype)
            if value.shape != tensor.value.shape:
                raise ValueError(f"shape mismatch for {name!r}: "
                                 f"{value.shape} vs {tensor.value.shape}")
            tensor.value[...] = value


def fan_in_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """Affine layer y = x @ W + b with fan-in uniform W and zero b."""

    def __init__(self, store: ParamStore, name: str, n_in: int, n_out: int,
                 rng: np.random.Generator):
        self.W = store.add(f"{name}.W", fan_in_uniform(rng, n_in, (n_in, n_out)))
        self.b = store.add(f"{name}.b", np.zeros(n_out))

    def forward(self, x: np.ndarray):
        return x @ self.W.value + self.b.value, x

    def backward_params(self, cache: np.ndarray, dout: np.ndarray) -> None:
        """The parameter gradients of :meth:`backward` without the input
        gradient, for a layer whose input is data."""
        self.W.grad += cache.T @ dout
        self.b.grad += dout.sum(axis=0)

    def backward(self, cache: np.ndarray, dout: np.ndarray) -> np.ndarray:
        self.backward_params(cache, dout)
        return dout @ self.W.value.T


def sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """Logistic function as ``0.5 * tanh(0.5 x) + 0.5``: it keeps the input
    dtype and cannot overflow, and costs less than ``scipy.special.expit``.
    Computed in ``out`` (which may be ``x``) if given, else in one new array."""
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def relu(x: np.ndarray, out=None):
    """``(x * mask, mask)`` with ``mask = x > 0``, written into the arrays
    ``out = (y, mask)`` if given."""
    y, mask = (None, None) if out is None else out
    mask = np.greater(x, 0, out=mask)
    return np.multiply(x, mask, out=y), mask


def relu_backward(mask: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return dout * mask


class MLP:
    """Affine stack with ReLU hidden activations and a linear output layer.

    ``forward`` keeps each layer's input and ReLU mask for ``backward``;
    ``predict`` keeps nothing and is what inference calls.
    """

    def __init__(self, store: ParamStore, name: str, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.layers = [
            Linear(store, f"{name}.l{i}", sizes[i], sizes[i + 1], rng)
            for i in range(len(sizes) - 1)
        ]

    def forward(self, x: np.ndarray):
        caches = []
        for i, layer in enumerate(self.layers):
            x, lin_cache = layer.forward(x)
            if i < len(self.layers) - 1:
                x, mask = relu(x)
            else:
                mask = None
            caches.append((lin_cache, mask))
        return x, caches

    def predict(self, x: np.ndarray) -> np.ndarray:
        """``forward(x)[0]`` without caches, computed in place per layer.

        ReLU here gives +0.0 where ``forward`` gives -0.0 (a negative input
        times a false mask); the next layer's bias add maps both to the same
        value, so the outputs are bit-identical for finite inputs and parameters.
        """
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = x @ layer.W.value
            x += layer.b.value
            if i < last:
                np.maximum(x, 0.0, out=x)
        return x

    def backward_params(self, caches, dout: np.ndarray) -> np.ndarray:
        """The parameter gradients of :meth:`backward` without the input
        gradient, for a network whose input is data. Returns the gradient at
        the first layer's output."""
        for i in range(len(self.layers) - 1, -1, -1):
            lin_cache, mask = caches[i]
            if mask is not None:
                dout = relu_backward(mask, dout)
            if i == 0:
                self.layers[0].backward_params(lin_cache, dout)
            else:
                dout = self.layers[i].backward(lin_cache, dout)
        return dout

    def backward(self, caches, dout: np.ndarray) -> np.ndarray:
        return self.backward_params(caches, dout) @ self.layers[0].W.value.T


class GRUCell:
    """Gated-recurrent update: h' = (1 - z) * h + z * tanh(candidate).

    Gate weights are stored block-fused for speed: ``W`` is (in, 3H) with
    column blocks [update | reset | candidate], ``U`` is (H, 2H) with blocks
    [update | reset], ``Uc`` is the (H, H) candidate recurrence applied to
    the reset-gated hidden state, and ``b`` is the (3H,) fused bias.
    """

    def __init__(self, store: ParamStore, name: str, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        fan = in_dim + hidden_dim
        self.W = store.add(f"{name}.W", fan_in_uniform(rng, fan, (in_dim, 3 * hidden_dim)))
        self.U = store.add(f"{name}.U", fan_in_uniform(rng, fan, (hidden_dim, 2 * hidden_dim)))
        self.Uc = store.add(f"{name}.Uc", fan_in_uniform(rng, fan, (hidden_dim, hidden_dim)))
        self.b = store.add(f"{name}.b", np.zeros(3 * hidden_dim))

    def forward(self, h: np.ndarray, x: np.ndarray, out):
        """One update of (B, H) hidden states on (B, in) inputs, written into
        the caller's arrays ``out = (zr, rh, c, h_new)``: the update and reset
        gates side by side (B, 2H), the reset-gated hidden state, the
        candidate and the new state. Returns the new state and the cache
        ``(x, h, zr, rh, c)`` that :meth:`backward` reads."""
        hd = self.hidden_dim
        zr, rh, c, h_new = out
        xw = x @ self.W.value + self.b.value
        hu = h @ self.U.value
        # one sigmoid for both gates: on a batch-1 step its cost is per
        # ufunc call, not per element
        sigmoid(np.add(xw[:, :2 * hd], hu, out=zr), out=zr)
        z, r = zr[:, :hd], zr[:, hd:]
        np.multiply(r, h, out=rh)
        np.tanh(xw[:, 2 * hd:] + rh @ self.Uc.value, out=c)
        np.add((1.0 - z) * h, z * c, out=h_new)
        return h_new, (x, h, zr, rh, c)

    def backward(self, cache, dh_new: np.ndarray):
        x, h, zr, rh, c = cache
        hd = self.hidden_dim
        z, r = zr[:, :hd], zr[:, hd:]
        dz = dh_new * (c - h)
        dc = dh_new * z
        dh = dh_new * (1.0 - z)

        dc_pre = dc * (1.0 - c * c)
        self.Uc.grad += rh.T @ dc_pre
        drh = dc_pre @ self.Uc.value.T
        dr = drh * h
        dh += drh * r

        dxw = np.empty_like(dh_new, shape=(dh_new.shape[0], 3 * hd))
        dxw[:, :hd] = dz * z * (1.0 - z)
        dxw[:, hd:2 * hd] = dr * r * (1.0 - r)
        dxw[:, 2 * hd:] = dc_pre
        self.W.grad += x.T @ dxw
        self.b.grad += dxw.sum(axis=0)
        self.U.grad += h.T @ dxw[:, :2 * hd]
        dh += dxw[:, :2 * hd] @ self.U.value.T
        dx = dxw @ self.W.value.T
        return dh, dx


@dataclass(frozen=True)
class GaussianHead:
    """Diagonal-Gaussian parameters with log-sigma clamped to a fixed range.

    ``clip_mask`` is 1 where the raw log-sigma was inside the clamp, so
    gradients pass through only there.
    """

    mu: np.ndarray
    log_sigma: np.ndarray
    clip_mask: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "GaussianHead":
        """Split a (..., 2k) raw encoder output into mu and clamped log-sigma."""
        k = raw.shape[-1] // 2
        if raw.shape[-1] != 2 * k:
            raise ValueError("raw head output must have an even last dimension")
        mu = raw[..., :k]
        ls_raw = raw[..., k:]
        log_sigma = np.clip(ls_raw, LOG_SIGMA_MIN, LOG_SIGMA_MAX)
        mask = ((ls_raw >= LOG_SIGMA_MIN) & (ls_raw <= LOG_SIGMA_MAX)).astype(np.float64)
        return cls(mu=mu, log_sigma=log_sigma, clip_mask=mask)


def kl_to_standard_normal(head: GaussianHead):
    """Closed-form KL(N(mu, sigma) || N(0, 1)), summed over the latent axis."""
    sigma_sq = np.exp(2.0 * head.log_sigma)
    per_dim = 0.5 * (head.mu ** 2 + sigma_sq - 1.0 - 2.0 * head.log_sigma)
    return per_dim.sum(axis=-1)


def adam_step(store: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> ParamStore:
    """Bias-corrected adaptive-moment update of the whole store in one pass
    over its buffer; gradients are zeroed afterward.

    A store whose gradient is identically zero is left untouched (values and
    moments; the step counter still advances), so a zero-gradient step is a
    parameter no-op for any state.
    """
    store.step_count += 1
    t = store.step_count
    g = store.grad
    if not g.any():
        return store
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m, v = store.moment1, store.moment2
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    store.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    g.fill(0.0)
    return store


def grad_check(loss_fn, store: ParamStore, rng: np.random.Generator,
               h: float = 1e-4, coords_per_param: int = 4) -> dict[str, float]:
    """Compare analytic gradients with central finite differences at up to
    ``coords_per_param`` random coordinates of each parameter; returns each
    parameter's max relative error.

    ``loss_fn`` must be deterministic (any sampling noise frozen), return the
    scalar loss, and accumulate gradients into ``store`` as a side effect.
    """
    store.zero_grad()
    loss_fn()
    analytic = {name: t.grad.copy().reshape(-1) for name, t in store.params.items()}
    errs = {}
    for name, tensor in store.params.items():
        flat = tensor.value.reshape(-1)
        n = min(coords_per_param, flat.size)
        errs[name] = 0.0
        for i in rng.choice(flat.size, size=n, replace=False):
            saved = flat[i]
            flat[i] = saved + h
            store.zero_grad()
            plus = float(loss_fn())
            flat[i] = saved - h
            store.zero_grad()
            minus = float(loss_fn())
            flat[i] = saved
            numeric = (plus - minus) / (2.0 * h)
            ana = float(analytic[name][i])
            rel = abs(ana - numeric) / max(abs(ana) + abs(numeric), 1e-8)
            errs[name] = max(errs[name], rel)
    store.zero_grad()
    return errs


def save_checkpoint(path, tensors: dict[str, np.ndarray], config_hash: str) -> None:
    """Write a named-tensor container (name, shape, f32 payload) stamped with
    the digest of the config that produced it."""
    w = Writer(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    w.text(config_hash)
    w.u32(len(tensors))
    for name, value in tensors.items():
        value = np.asarray(value)
        w.text(name)
        w.u32(value.ndim)
        for d in value.shape:
            w.u32(d)
        w.f32(value)
    w.write(path)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Read a checkpoint container; returns (name -> f32 array, config hash)."""
    r = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    config_hash = r.text()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text()
        if name in tensors:
            raise FormatError(f"tensor {name!r} repeated in checkpoint file")
        tensors[name] = r.f32(tuple(r.u32() for _ in range(r.u32())))
    r.finish()
    return tensors, config_hash
