"""Trainable building blocks in plain numpy: dense, LSTM, attention, batch norm, losses, Adam.

Every layer keeps its parameters and gradient buffers in name-keyed
dicts of float64 arrays, so a full backward pass runs without an
autodiff framework. A block's ``grads`` is empty until its first
backward makes the buffers, so a block that only runs inference holds
its parameters and nothing else. One rule covers the activations: a
training forward (``train=True``) caches what its backward reads, the
backward consumes that cache, and an inference forward (``train=False``)
caches nothing and drops any cache left by an earlier one. So each
backward needs a training forward of its own; one after an inference
forward, after another backward or before any forward raises
RuntimeError naming the block. The LSTM, attention and batch norm, whose
activations are the bulk of a training step's memory, cache only what
their backward cannot rebuild bit for bit. All gradients are
hand-derived; the test suite checks each block and the composed model
against central finite differences.

Conventions: batch-first arrays; dense weights are (out, in); batch norm
takes the last axis as the features and pools the others; LSTM gate
order is input, forget, output, candidate with the four gate blocks
stacked row-wise in one matrix. Attention has one fixed form: a step's
score is the sum of the components of tanh(W h_t + b), softmax-normalized
over time.

Every block has the same signature, ``forward(x, train=True, rng=None)``
and ``backward(grad, input_grad=True)``; only dropout draws from ``rng``,
and ``input_grad=False`` asks a block for its parameter gradients alone
(its backward then returns None). So a list of blocks is a chain:
:func:`forward_chain` runs it in order and :func:`backward_chain` in
reverse. A block built with ``init=False`` draws nothing: its
parameters are read-only NaN placeholders of the right shapes, for a
caller that installs fitted arrays in their place (see
``TwoStreamModel.load_params``).

The training step is kept lean: the LSTM projects its inputs for all
time steps in one matmul and runs one sigmoid per step over the stacked
input/forget/output gates, the LSTM and dense weight gradients are
matmuls over the flattened batch·time axis with no transposed copies,
and ``sigmoid`` is branch-free. Each ``backward`` writes over all of its
block's ``grads`` (``out=``), so the first one makes them with
``np.empty``, nothing zeroes them and no weight gradient is a new array.
``adam_step`` makes each tensor's moments at the first step, which
writes them whole, then applies the clip factor and updates in place
block by block without full-size temporaries. Every affine map adds its
bias in place, and ``_activate``, the one table of nonlinearities
(attention scores through a dense tanh block, and the model's fusion
weights and head use it too), writes identity, tanh and leaky ReLU into
the pre-activation. The backward passes build their derivatives in
buffers they already hold: the LSTM turns its cached gates into the gate
gradients step by step, and a tanh block its cached output into its
derivative. What is not cached is recomputed with the forward's own
operations on the same arrays: tanh(c_t) from the cached cells, x̂ from
batch norm's input and mean. Each product keeps the two factors it has
in the plain expression, so the results are the same bits.
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


def _grads_of(block) -> dict[str, np.ndarray]:
    """``block.grads``; its first backward fills the dict in place with uninitialised buffers
    of the parameters' shapes, which every backward then writes over in full."""
    if not block.grads:
        block.grads.update({key: np.empty(p.shape) for key, p in block.params.items()})
    return block.grads


def _consume_cache(block) -> tuple:
    """The activations ``block``'s last training forward cached, handed to its backward once."""
    cache = block._cache
    if cache is None:
        raise RuntimeError(
            f"{type(block).__name__}.backward needs a training forward pass first: each "
            "backward consumes the activations that forward(train=True) cached"
        )
    block._cache = None
    return cache


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
    """``kind`` applied to the pre-activation ``z``; identity, tanh and leaky ReLU write into z."""
    if kind == "identity":
        return z
    if kind == "tanh":
        return np.tanh(z, out=z)
    if kind == "sigmoid":
        return sigmoid(z)
    if kind == "leaky-relu":
        # The bits of where(z > 0, z, slope * z), signed zeros included, with no mask.
        return np.maximum(z, LEAKY_SLOPE * z, out=z)
    if kind == "softmax":
        return stable_softmax(z, axis=-1)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_backward(grad_y: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """The gradient wrt the pre-activation from the output ``y`` alone; tanh's is built in y."""
    if kind == "identity":
        return grad_y
    if kind == "tanh":
        dz = np.square(y, out=y)
        np.subtract(1.0, dz, out=dz)
        dz *= grad_y
        return dz
    if kind == "sigmoid":
        return grad_y * y * (1.0 - y)
    if kind == "leaky-relu":
        # y has the sign of z, so it picks the same slope z would.
        dz = np.where(y > 0.0, 1.0, LEAKY_SLOPE)
        dz *= grad_y
        return dz
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
        self.grads: dict[str, np.ndarray] = {}  # made by the first backward
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        z = x @ self.params["w"].T
        z += self.params["b"]
        y = _activate(z, self.activation)
        self._cache = (x, y) if train else None
        return y

    def backward(self, grad_y: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x, y = _consume_cache(self)
        dz = _activate_backward(grad_y, y, self.activation)
        grads = _grads_of(self)
        np.matmul(dz.T, x, out=grads["w"])
        np.sum(dz, axis=0, out=grads["b"])
        return dz @ self.params["w"] if input_grad else None


class Lstm:
    """Single LSTM layer unrolled over a (batch, length, input) sequence.

    Standard gate equations with sigmoid input/forget/output gates and a
    tanh candidate: c_t = f*c + i*g, h_t = o*tanh(c_t), starting from zero
    state. The forget-gate bias is initialized to +1.

    The one (4H, in + H) weight is used as two blocks: the input
    projection x_t W_x^T + b of every step is one matmul before the time
    loop, so only h_{t-1} W_h^T recurs, and one sigmoid call covers the
    stacked input/forget/output gates. A training forward caches the
    input, the activated gates, the cells and the outputs; tanh(c_t) lives
    in one step buffer. Backward keeps only dh_{t-1} = da_t W_h and dc in its
    loop: it recomputes tanh(c_t) and o*(1 - tanh^2 c_t) from the cached
    cell, forms the step's products, then overwrites the step's gate slab
    with the local derivatives times them, so the gates become the gate
    gradients da and no second (batch, length, 4H) array is made. It then
    forms the input-weight, recurrent-weight, bias and input gradients of
    all steps with one matmul or sum each over the flattened batch·time
    axis, dropping each cached array once its last reader has run.
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
        self.grads: dict[str, np.ndarray] = {}  # made by the first backward
        self._cache = None

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
        gates = x.reshape(-1, self.in_dim) @ w[:, :self.in_dim].T
        gates += self.params["b"]
        gates = gates.reshape(batch, length, 4 * nh)
        cells = np.empty((batch, length + 1, nh))  # cells[:, t] is c_{t-1}
        cells[:, 0] = 0.0
        tanh_c = np.empty((batch, nh))  # tanh(c_t) of one step; the backward recomputes it
        outputs = np.empty((batch, length, nh))
        for t in range(length):
            a = gates[:, t]
            if t:
                a += outputs[:, t - 1] @ w_h_t
            a[:, :3 * nh] = sigmoid(a[:, :3 * nh])
            np.tanh(a[:, 3 * nh:], out=a[:, 3 * nh:])
            i, f, o, g = (a[:, k * nh:(k + 1) * nh] for k in range(4))
            cells[:, t + 1] = f * cells[:, t] + i * g
            np.tanh(cells[:, t + 1], out=tanh_c)
            np.multiply(o, tanh_c, out=outputs[:, t])
        self._cache = (x, gates, cells, outputs) if train else None
        return outputs

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x, gates, cells, h = _consume_cache(self)
        batch, length, _ = grad_out.shape
        nh, w, grads = self.hidden, self.params["w"], _grads_of(self)
        w_h = w[:, self.in_dim:]
        # One step's buffers: tanh(c_t) and o * (1 - tanh(c_t)^2), rebuilt with the
        # forward's operations; the products dc*g, dc*c_{t-1}, dh*tanh(c_t), dc*i; 1 - sig.
        tanh_c, d_c = np.empty((2, batch, nh))
        step = np.empty((batch, 4 * nh))
        one_minus_sig = np.empty((batch, 3 * nh))
        dh_next = np.zeros((batch, nh))
        dc_next = np.zeros((batch, nh))
        for t in reversed(range(length)):
            a = gates[:, t]
            i, f, o, g = (a[:, k * nh:(k + 1) * nh] for k in range(4))
            np.tanh(cells[:, t + 1], out=tanh_c)
            np.square(tanh_c, out=d_c)
            np.subtract(1.0, d_c, out=d_c)
            d_c *= o
            dh = grad_out[:, t] + dh_next
            dc = dh * d_c + dc_next
            np.multiply(dc, g, out=step[:, :nh])
            np.multiply(dc, cells[:, t], out=step[:, nh:2 * nh])
            np.multiply(dh, tanh_c, out=step[:, 2 * nh:3 * nh])
            np.multiply(dc, i, out=step[:, 3 * nh:])
            dc_next = dc * f
            # The step's gates are not read again: their slab becomes the gate gradients,
            # sig*(1-sig) for input/forget/output and 1-g^2 for the candidate, times step.
            np.subtract(1.0, a[:, :3 * nh], out=one_minus_sig)
            a[:, :3 * nh] *= one_minus_sig
            np.square(g, out=g)
            np.subtract(1.0, g, out=g)
            a *= step
            if t:
                dh_next = a @ w_h
        del cells  # the time loop was its last reader
        flat = gates.reshape(-1, 4 * nh)
        # Step t's gates read h_{t-1}, zero at step 0: h shifted one step makes this one matmul.
        h_prev = np.empty_like(h)
        h_prev[:, 0] = 0.0
        h_prev[:, 1:] = h[:, :-1]
        del h
        np.matmul(flat.T, x.reshape(-1, self.in_dim), out=grads["w"][:, :self.in_dim])
        del x
        np.matmul(flat.T, h_prev.reshape(-1, nh), out=grads["w"][:, self.in_dim:])
        del h_prev
        np.sum(flat, axis=0, out=grads["b"])
        if not input_grad:
            return None
        return (flat @ w[:, :self.in_dim]).reshape(batch, length, self.in_dim)


class Attention:
    """Soft attention over a hidden-state sequence.

    A square ``Dense(hidden, hidden, "tanh")``, the block's ``scorer``, maps
    each step to u_t = tanh(W h_t + b); ``params`` and ``grads`` are its
    dicts, not copies, so the scorer's first backward fills this block's
    ``grads`` too. A step's score is the sum of u_t's components,
    softmax-normalized over time, and the context is the weighted sum of
    hidden states. A training forward caches the hidden states for the
    backward; the weights of any forward stay readable through ``weights``,
    which is None before the first.
    """

    def __init__(self, hidden: int, rng: np.random.Generator | None = None,
                 *, init: bool = True):
        self.hidden = hidden
        self.scorer = Dense(hidden, hidden, "tanh", rng=rng, init=init)
        self.params, self.grads = self.scorer.params, self.scorer.grads
        self._alpha = self._cache = None

    def forward(self, h_seq: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if h_seq.ndim != 3 or h_seq.shape[2] != self.hidden:
            raise ValueError(
                f"expected (batch, length, {self.hidden}) hidden sequence, got {h_seq.shape}"
            )
        # One gemm on the (batch * length, H) view, not one per batch row.
        u = self.scorer.forward(h_seq.reshape(-1, self.hidden), train)
        self._alpha = _activate(u.reshape(h_seq.shape).sum(axis=2), "softmax")  # (batch, length)
        self._cache = (h_seq,) if train else None
        return np.einsum("bl,blh->bh", self._alpha, h_seq)

    @property
    def weights(self) -> np.ndarray | None:
        """Attention weights (batch, length) from the last forward pass; None before the first."""
        return self._alpha

    def backward(self, grad_context: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        (h,) = _consume_cache(self)
        alpha = self._alpha
        dscores = _activate_backward(np.einsum("bh,blh->bl", grad_context, h), alpha, "softmax")
        # Each component of u_t adds to the score, so all share its gradient.
        dh_flat = self.scorer.backward(dscores.reshape(-1, 1), input_grad)
        if not input_grad:
            return None
        dh = alpha[:, :, None] * grad_context[:, None, :]
        dh += dh_flat.reshape(dh.shape)
        return dh


class Dropout:
    """Inverted dropout: scales kept units by 1/(1-rate) in training, identity in eval."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._cache = (None,) if train else None  # a training forward's mask is None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        self._cache = (mask,)
        return x * mask

    def backward(self, grad_y: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        (mask,) = _consume_cache(self)
        if not input_grad:
            return None
        return grad_y if mask is None else grad_y * mask


class BatchNorm:
    """Per-feature standardization with learned scale/shift and running stats, then act.

    The features are the last axis, and the statistics pool every other
    axis: a (batch, length, hidden) sequence is normalized per hidden unit
    over batch and time, and comes back in its own shape. ``activation``
    takes the names :class:`Dense` does. The running stats are
    ``buffers``: a checkpoint saves them, the optimizer never sees them.
    A training forward caches its input, the batch mean and 1/std and the
    output, which the backward consumes; the backward rebuilds x̂ from
    them with the forward's two operations, and its batch-statistics tail
    runs in place in the formula's order.
    """

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5,
                 activation: str = "identity"):
        self.eps = eps
        self.momentum = momentum
        self.activation = activation
        self.params = {"gamma": np.ones(dim), "beta": np.zeros(dim)}
        self.grads: dict[str, np.ndarray] = {}  # made by the first backward
        self.buffers = {"running_mean": np.zeros(dim), "running_var": np.ones(dim)}
        self._cache = None

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
        inv_std = 1.0 / np.sqrt(var + self.eps)
        z = flat - mean
        z *= inv_std  # x-hat, which the backward rebuilds with these two operations
        z *= self.params["gamma"]
        z += self.params["beta"]
        y = _activate(z, self.activation)
        self._cache = (flat, mean, inv_std, y) if train else None
        return y.reshape(x.shape)

    def backward(self, grad_y: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        flat, mean, inv_std, y = _consume_cache(self)
        dz = _activate_backward(grad_y.reshape(-1, grad_y.shape[-1]), y, self.activation)
        del y
        xhat = flat - mean
        xhat *= inv_std
        prod = dz * xhat
        grads = _grads_of(self)
        np.sum(prod, axis=0, out=grads["gamma"])
        np.sum(dz, axis=0, out=grads["beta"])
        if not input_grad:
            return None
        dxhat = np.multiply(dz, self.params["gamma"], out=prod)
        del dz, prod
        # Batch statistics depend on x, so fold their gradients back in:
        # (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)).
        n = dxhat.shape[0]
        dxhat_sum = np.sum(dxhat, axis=0)
        xhat *= np.sum(dxhat * xhat, axis=0)
        dxhat *= n
        dxhat -= dxhat_sum
        dxhat -= xhat
        dxhat *= inv_std / n
        return dxhat.reshape(grad_y.shape)


def forward_chain(blocks, x: np.ndarray, train: bool = True,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Run ``x`` through ``blocks`` in order."""
    for block in blocks:
        x = block.forward(x, train=train, rng=rng)
    return x


def backward_chain(blocks, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
    """Backpropagate ``grad`` through ``blocks`` in reverse; returns the input gradient.

    With ``input_grad=False`` the first block computes only its parameter
    gradients, and the chain returns None.
    """
    for block in reversed(blocks[1:]):
        grad = block.backward(grad)
    return blocks[0].backward(grad, input_grad=input_grad)


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
    """First/second moment accumulators plus the step counter; a tensor's moments are
    made by the first :func:`adam_step` that updates it."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float = 0.001) -> AdamState:
    """An optimizer for ``params`` at learning rate ``lr``; it holds no arrays yet."""
    return AdamState(lr=lr)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray], scale: float = 1.0) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update on the gradients times ``scale``, applied in place.

    Each tensor is updated through its flat view one cache-sized block at
    a time, with two scratch buffers and no full-size temporaries; the
    gradients are only read. Each block g is scaled first, then the
    textbook formula's operations run in its order (m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g**2, p -= lr*(m/bias1) / (sqrt(v/bias2) + eps)),
    so the result is bit-identical to scaling the grads, then that step.
    A tensor's first step starts from m = v = 0, so it makes the moments
    with ``np.empty`` and writes b1*0 + s as s + 0.0, the same bits.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    size = min(ADAM_BLOCK, max((p.size for p in params.values()), default=0))
    buf1, buf2 = np.empty(size), np.empty(size)
    for key, p in params.items():
        if not p.flags.c_contiguous:
            raise ValueError(f"Adam updates {key!r} in place and needs C-contiguous arrays")
        first = key not in state.m
        if first:
            state.m[key], state.v[key] = np.empty(p.shape), np.empty(p.shape)
        p_flat, m_flat, v_flat = (a.reshape(-1) for a in (p, state.m[key], state.v[key]))
        g_flat = grads[key].reshape(-1)
        for lo in range(0, p_flat.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p_flat.size)
            g, m, v = g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
            s1, s2 = buf1[:hi - lo], buf2[:hi - lo]
            if scale != 1.0:  # s2 holds the scaled block until g's last use
                g = np.multiply(g, scale, out=s2)
            if first:
                # + 0.0 turns a -0.0 into +0.0 as the sum with b1*0 does; (1-b2)*g**2
                # is never -0.0, so v's sum with b2*0 changes no bit.
                np.multiply(1.0 - b1, g, out=m)
                m += 0.0
                np.square(g, out=v)
                v *= 1.0 - b2
            else:
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
