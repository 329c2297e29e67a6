"""Trainable building blocks in plain numpy: dense, LSTM, attention, batch norm, losses, Adam.

Every layer keeps its parameters and gradient buffers in name-keyed
dicts of float64 arrays and caches its forward activations on the
instance, so a full backward pass runs without an autodiff framework.
All gradients are hand-derived; the test suite checks each block and the
composed model against central finite differences.

Conventions: batch-first arrays; dense weights are (out, in); batch norm
takes the last axis as the features and pools the others; LSTM gate
order is input, forget, output, candidate with the four gate blocks
stacked row-wise in one matrix. Attention has one fixed form: a step's
score is the sum of the components of tanh(W h_t + b), softmax-normalized
over time.

Every block has the same signature, ``forward(x, train=True, rng=None)``
and ``backward(grad)``; only dropout draws from ``rng``. So a list of
blocks is a chain: :func:`forward_chain` runs it in order and
:func:`backward_chain` in reverse. A block built with ``init=False`` draws
nothing: its parameters are read-only NaN placeholders of the right
shapes, for a caller that installs fitted arrays in their place (see
``TwoStreamModel.load_params``).

The training step is kept lean: the LSTM projects its inputs for all
time steps in one matmul and runs one sigmoid per step over the stacked
input/forget/output gates, the LSTM and attention weight gradients are
matmuls over the flattened batch·time axis with no transposed copies,
and ``sigmoid`` is branch-free. Each ``backward`` writes over its
block's ``grads`` (``out=``), so nothing zeroes them and no weight
gradient is a new array; ``adam_step`` applies the clip factor and
updates in place block by block without full-size temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LEAKY_SLOPE = 0.3
PROB_FLOOR = 1e-12
# Elements per Adam block: its five f64 slices (1.25 MiB) stay in cache across the passes.
ADAM_BLOCK = 1 << 15


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _unset(**shapes) -> dict[str, np.ndarray]:
    """Parameters of a block built to be loaded: read-only NaN views that allocate nothing."""
    return {key: np.broadcast_to(np.nan, shape) for key, shape in shapes.items()}


def stable_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max subtraction; invariant to adding a constant along ``axis``."""
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without branches: ``exp`` only sees ``-|z|``, so it never overflows.

    With e = exp(-|z|) this is 1/(1+e) for z >= 0 and e/(1+e) below, the
    same operations, and so the same bits, as the two-branch formula.
    ``min(z, -z)`` rather than ``-abs(z)`` keeps the sign of a NaN input.
    """
    e = np.exp(np.minimum(z, -z))
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return z
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        return sigmoid(z)
    if kind == "leaky-relu":
        return np.where(z > 0.0, z, LEAKY_SLOPE * z)
    if kind == "softmax":
        return stable_softmax(z, axis=-1)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_backward(grad_y: np.ndarray, z: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return grad_y
    if kind == "tanh":
        return grad_y * (1.0 - y ** 2)
    if kind == "sigmoid":
        return grad_y * y * (1.0 - y)
    if kind == "leaky-relu":
        return grad_y * np.where(z > 0.0, 1.0, LEAKY_SLOPE)
    if kind == "softmax":
        inner = np.sum(grad_y * y, axis=-1, keepdims=True)
        return y * (grad_y - inner)
    raise ValueError(f"unknown activation {kind!r}")


class Dense:
    """Fully connected layer y = act(x W^T + b)."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "identity",
                 rng: np.random.Generator | None = None, *, init: bool = True):
        self.activation = activation
        if init:
            rng = rng or np.random.default_rng(0)
            self.params = {
                "w": glorot_uniform(rng, (out_dim, in_dim), in_dim, out_dim),
                "b": np.zeros(out_dim),
            }
        else:
            self.params = _unset(w=(out_dim, in_dim), b=(out_dim,))
        self.grads = {key: np.zeros(arr.shape) for key, arr in self.params.items()}

    def forward(self, x: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        self._x = x
        self._z = x @ self.params["w"].T + self.params["b"]
        self._y = _activate(self._z, self.activation)
        return self._y

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        dz = _activate_backward(grad_y, self._z, self._y, self.activation)
        np.matmul(dz.T, self._x, out=self.grads["w"])
        np.sum(dz, axis=0, out=self.grads["b"])
        return dz @ self.params["w"]


class Lstm:
    """Single LSTM layer unrolled over a (batch, length, input) sequence.

    Standard gate equations with sigmoid input/forget/output gates and a
    tanh candidate: c_t = f*c + i*g, h_t = o*tanh(c_t), starting from zero
    state. The forget-gate bias is initialized to +1.

    The one (4H, in + H) weight is used as two blocks: the input
    projection x_t W_x^T + b of every step is one matmul before the time
    loop, so only h_{t-1} W_h^T recurs, and one sigmoid call covers the
    stacked input/forget/output gates. Backward likewise keeps only
    dh_{t-1} = da_t W_h in its loop, then forms the input-weight,
    recurrent-weight, bias and input gradients of all steps with one
    matmul or sum each over the flattened batch·time axis.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator | None = None,
                 *, init: bool = True):
        self.in_dim = in_dim
        self.hidden = hidden
        if init:
            rng = rng or np.random.default_rng(0)
            w = glorot_uniform(rng, (4 * hidden, in_dim + hidden), in_dim + hidden, hidden)
            b = np.zeros(4 * hidden)
            b[hidden:2 * hidden] = 1.0
            self.params = {"w": w, "b": b}
        else:
            self.params = _unset(w=(4 * hidden, in_dim + hidden), b=(4 * hidden,))
        self.grads = {key: np.zeros(arr.shape) for key, arr in self.params.items()}

    def forward(self, x: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ValueError(
                f"expected input of shape (batch, length, {self.in_dim}), got {x.shape}"
            )
        batch, length, _ = x.shape
        nh, w = self.hidden, self.params["w"]
        w_h_t = w[:, self.in_dim:].T
        # Pre-activations of all steps from the input; activated in place below.
        gates = x.reshape(-1, self.in_dim) @ w[:, :self.in_dim].T + self.params["b"]
        gates = gates.reshape(batch, length, 4 * nh)
        cells = np.zeros((batch, length + 1, nh))  # cells[:, t] is c_{t-1}
        tanh_c = np.empty((batch, length, nh))
        outputs = np.empty((batch, length, nh))
        for t in range(length):
            a = gates[:, t]
            if t:
                a += outputs[:, t - 1] @ w_h_t
            a[:, :3 * nh] = sigmoid(a[:, :3 * nh])
            np.tanh(a[:, 3 * nh:], out=a[:, 3 * nh:])
            i, f, o, g = (a[:, k * nh:(k + 1) * nh] for k in range(4))
            cells[:, t + 1] = f * cells[:, t] + i * g
            np.tanh(cells[:, t + 1], out=tanh_c[:, t])
            np.multiply(o, tanh_c[:, t], out=outputs[:, t])
        self._x, self._gates, self._cells, self._tanh_c, self._h = x, gates, cells, tanh_c, outputs
        return outputs

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        batch, length, _ = grad_out.shape
        nh, w, w_grad = self.hidden, self.params["w"], self.grads["w"]
        gates, cells, tanh_c = self._gates, self._cells, self._tanh_c
        i, f, o, g = (gates[..., k * nh:(k + 1) * nh] for k in range(4))
        # Local derivatives of every step at once; only dh and dc recur.
        sig = gates[..., :3 * nh]
        d_sig = sig * (1.0 - sig)
        d_g = 1.0 - g ** 2
        d_c = o * (1.0 - tanh_c ** 2)
        w_h = w[:, self.in_dim:]
        da = np.empty_like(gates)
        dh_next = np.zeros((batch, nh))
        dc_next = np.zeros((batch, nh))
        for t in reversed(range(length)):
            dh = grad_out[:, t] + dh_next
            dc = dh * d_c[:, t] + dc_next
            da_t = da[:, t]
            np.multiply(dc, g[:, t], out=da_t[:, :nh])
            np.multiply(dc, cells[:, t], out=da_t[:, nh:2 * nh])
            np.multiply(dh, tanh_c[:, t], out=da_t[:, 2 * nh:3 * nh])
            np.multiply(dc, i[:, t], out=da_t[:, 3 * nh:])
            da_t[:, :3 * nh] *= d_sig[:, t]
            da_t[:, 3 * nh:] *= d_g[:, t]
            dc_next = dc * f[:, t]
            if t:
                dh_next = da_t @ w_h
        flat = da.reshape(-1, 4 * nh)
        # Step t's gates read h_{t-1}, zero at step 0: h shifted one step makes this one matmul.
        h_prev = np.zeros_like(self._h)
        h_prev[:, 1:] = self._h[:, :-1]
        np.matmul(flat.T, self._x.reshape(-1, self.in_dim), out=w_grad[:, :self.in_dim])
        np.matmul(flat.T, h_prev.reshape(-1, nh), out=w_grad[:, self.in_dim:])
        np.sum(flat, axis=0, out=self.grads["b"])
        return (flat @ w[:, :self.in_dim]).reshape(batch, length, self.in_dim)


class Attention:
    """Soft attention over a hidden-state sequence.

    Scores each step through u_t = tanh(W h_t + b) with a square W; the
    scalar score of a step is the sum of u_t's components, softmax-normalized
    over time, and the context is the weighted sum of hidden states.
    """

    def __init__(self, hidden: int, rng: np.random.Generator | None = None,
                 *, init: bool = True):
        self.hidden = hidden
        if init:
            rng = rng or np.random.default_rng(0)
            self.params = {
                "w": glorot_uniform(rng, (hidden, hidden), hidden, hidden),
                "b": np.zeros(hidden),
            }
        else:
            self.params = _unset(w=(hidden, hidden), b=(hidden,))
        self.grads = {key: np.zeros(arr.shape) for key, arr in self.params.items()}

    def forward(self, h_seq: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if h_seq.ndim != 3 or h_seq.shape[2] != self.hidden:
            raise ValueError(
                f"expected (batch, length, {self.hidden}) hidden sequence, got {h_seq.shape}"
            )
        self._h = h_seq
        # One gemm on the (batch * length, H) view, not one per batch row.
        u = h_seq.reshape(-1, self.hidden) @ self.params["w"].T
        u += self.params["b"]
        self._u = np.tanh(u, out=u).reshape(h_seq.shape)
        self._alpha = stable_softmax(self._u.sum(axis=2), axis=1)  # (batch, length)
        return np.einsum("bl,blh->bh", self._alpha, h_seq)

    @property
    def weights(self) -> np.ndarray:
        """Attention weights from the last forward pass."""
        return self._alpha

    def backward(self, grad_context: np.ndarray) -> np.ndarray:
        h, u, alpha = self._h, self._u, self._alpha
        dalpha = np.einsum("bh,blh->bl", grad_context, h)
        dh = alpha[:, :, None] * grad_context[:, None, :]
        dscores = alpha * (dalpha - np.sum(dalpha * alpha, axis=1, keepdims=True))
        # Each component of u_t adds to the score, so all share its gradient.
        da = dscores[:, :, None] * (1.0 - u ** 2)
        da_flat = da.reshape(-1, self.hidden)
        np.matmul(da_flat.T, h.reshape(-1, self.hidden), out=self.grads["w"])
        np.sum(da, axis=(0, 1), out=self.grads["b"])
        dh += (da_flat @ self.params["w"]).reshape(dh.shape)
        return dh


class Dropout:
    """Inverted dropout: scales kept units by 1/(1-rate) in training, identity in eval."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_y
        return grad_y * self._mask


class BatchNorm:
    """Per-feature standardization with learned scale/shift and running stats, then act.

    The features are the last axis, and the statistics pool every other
    axis: a (batch, length, hidden) sequence is normalized per hidden unit
    over batch and time, and comes back in its own shape. ``activation``
    takes the names :class:`Dense` does. The running stats are
    ``buffers``: a checkpoint saves them, the optimizer never sees them.
    """

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5,
                 activation: str = "identity"):
        self.eps = eps
        self.momentum = momentum
        self.activation = activation
        self.params = {"gamma": np.ones(dim), "beta": np.zeros(dim)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.buffers = {"running_mean": np.zeros(dim), "running_var": np.ones(dim)}

    @property
    def running_mean(self) -> np.ndarray:
        return self.buffers["running_mean"]

    @property
    def running_var(self) -> np.ndarray:
        return self.buffers["running_var"]

    def forward(self, x: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        flat = x.reshape(-1, x.shape[-1])
        if train:
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            m, stats = self.momentum, self.buffers
            stats["running_mean"] = (1 - m) * stats["running_mean"] + m * mean
            stats["running_var"] = (1 - m) * stats["running_var"] + m * var
        else:
            mean = self.running_mean
            var = self.running_var
        self._train = train
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._xhat = (flat - mean) * self._inv_std
        self._z = self.params["gamma"] * self._xhat + self.params["beta"]
        self._y = _activate(self._z, self.activation)
        return self._y.reshape(x.shape)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._xhat, self._inv_std
        dz = _activate_backward(
            grad_y.reshape(-1, grad_y.shape[-1]), self._z, self._y, self.activation
        )
        np.sum(dz * xhat, axis=0, out=self.grads["gamma"])
        np.sum(dz, axis=0, out=self.grads["beta"])
        dxhat = dz * self.params["gamma"]
        if not self._train:
            return (dxhat * inv_std).reshape(grad_y.shape)
        n = dz.shape[0]
        # Batch statistics depend on x, so fold their gradients back in.
        return ((inv_std / n) * (
            n * dxhat - np.sum(dxhat, axis=0) - xhat * np.sum(dxhat * xhat, axis=0)
        )).reshape(grad_y.shape)


def forward_chain(blocks, x: np.ndarray, train: bool = True,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Run ``x`` through ``blocks`` in order."""
    for block in blocks:
        x = block.forward(x, train=train, rng=rng)
    return x


def backward_chain(blocks, grad: np.ndarray) -> np.ndarray:
    """Backpropagate ``grad`` through ``blocks`` in reverse; returns the input gradient."""
    for block in reversed(blocks):
        grad = block.backward(grad)
    return grad


# ---------------------------------------------------------------------------
# Losses. Each loss returns (scalar mean loss, gradient wrt its first input).
# ---------------------------------------------------------------------------

def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean categorical cross-entropy of probabilities against one-hot targets."""
    p = np.maximum(probs, PROB_FLOOR)
    return float(-np.mean(np.sum(targets * np.log(p), axis=-1)))


def softmax_cross_entropy_with_logits(logits: np.ndarray, targets: np.ndarray):
    """Fused softmax + categorical cross-entropy, numerically stable."""
    probs = stable_softmax(logits, axis=-1)
    loss = cross_entropy(probs, targets)
    grad = (probs - targets) / logits.shape[0]
    return loss, grad


def binary_cross_entropy(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of probabilities against 0/1 targets."""
    p = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def binary_cross_entropy_with_logits(logits: np.ndarray, y: np.ndarray):
    """Fused sigmoid + binary cross-entropy."""
    p = sigmoid(logits)
    loss = binary_cross_entropy(p, y)
    grad = (p - y) / y.size
    return loss, grad


def mean_squared_error(pred: np.ndarray, y: np.ndarray):
    """Mean squared error and its gradient wrt the prediction."""
    diff = pred - y
    loss = float(np.mean(diff ** 2))
    grad = 2.0 * diff / diff.size
    return loss, grad


# ---------------------------------------------------------------------------
# Optimization.
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float = 0.001) -> AdamState:
    state = AdamState(lr=lr)
    state.m = {k: np.zeros(p.shape) for k, p in params.items()}
    state.v = {k: np.zeros(p.shape) for k, p in params.items()}
    return state


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray], scale: float = 1.0) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update on the gradients times ``scale``, applied in place.

    Each tensor is updated through its flat view one cache-sized block at
    a time, with two scratch buffers and no full-size temporaries; the
    gradients are only read. Each block g is scaled first, then the
    textbook formula's operations run in its order (m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g**2, p -= lr*(m/bias1) / (sqrt(v/bias2) + eps)),
    so the result is bit-identical to scaling the grads, then that step.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    size = min(ADAM_BLOCK, max((p.size for p in params.values()), default=0))
    buf1, buf2 = np.empty(size), np.empty(size)
    for key, p in params.items():
        p_flat, m_flat, v_flat = (_flat_view(a, key) for a in (p, state.m[key], state.v[key]))
        g_flat = grads[key].reshape(-1)
        for lo in range(0, p_flat.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p_flat.size)
            g, m, v = g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
            s1, s2 = buf1[:hi - lo], buf2[:hi - lo]
            if scale != 1.0:  # s2 holds the scaled block until g's last use
                g = np.multiply(g, scale, out=s2)
            m *= b1
            np.multiply(1.0 - b1, g, out=s1)
            m += s1
            v *= b2
            np.square(g, out=s1)
            s1 *= 1.0 - b2
            v += s1
            np.divide(m, bias1, out=s1)
            s1 *= state.lr
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += state.eps
            s1 /= s2
            p_flat[lo:hi] -= s1
    return params


def _flat_view(array: np.ndarray, key: str) -> np.ndarray:
    """A 1-d view of ``array`` that writes through to it."""
    if not array.flags.c_contiguous:
        raise ValueError(f"Adam updates {key!r} in place and needs C-contiguous arrays")
    return array.reshape(-1)


def clip_global_norm(grads: dict[str, np.ndarray]) -> float:
    """The joint L2 norm of all gradients, which are left as they are.

    The squares are summed one ``ADAM_BLOCK`` at a time through one scratch
    buffer, so no full-size ``g ** 2`` is made. :func:`clip_scale` turns
    the norm into the factor that :func:`adam_step` applies.
    """
    scratch = np.empty(min(ADAM_BLOCK, max((g.size for g in grads.values()), default=0)))
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads.values():
            flat = g.reshape(-1)
            for lo in range(0, flat.size, ADAM_BLOCK):
                block = flat[lo:lo + ADAM_BLOCK]
                total += float(np.square(block, out=scratch[:block.size]).sum())
    return np.sqrt(total)


def clip_scale(norm: float, max_norm: float = 5.0) -> float:
    """The factor that brings a joint gradient norm down to ``max_norm``; 1 within it, and
    for a non-finite norm, so divergence stays visible instead of being zeroed out."""
    return max_norm / norm if np.isfinite(norm) and norm > max_norm and norm > 0.0 else 1.0


# ---------------------------------------------------------------------------
# Checkpoints: the named-tensor container from the data module (magic,
# version, per-tensor name + shape header, f64 little-endian payload).
# ---------------------------------------------------------------------------

def save_checkpoint(path, tensors: dict[str, np.ndarray]):
    from .data import write_tensors

    write_tensors(path, tensors)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    from .data import read_tensors

    return read_tensors(path)
