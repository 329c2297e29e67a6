"""Two-stream architecture: LSTM-attention temporal stream, dense spatial stream, learned fusion.

The temporal stream runs stacked LSTM layers (each followed by a
per-dataset regularizer: dropout at rate 0.2 after the first layer and
0.1 after the others, or batch norm plus leaky ReLU) over the spectral
feature sequence, pools the final layer's hidden states with soft
attention, and projects to an embedding. The spatial stream maps the
concatenated tangent-space vector through two dense layers with dropout.
Fusion scores each embedding with a small encoder, normalizes the two
scalar scores, rescales each embedding by (1 + weight), and feeds the
concatenation through a dense layer into the task head. The weights,
the head's scores and their derivatives come from ``nnet``'s activation table.

The loss decides the task: :data:`TASKS` maps each loss to the task it
trains, and :data:`METRICS` each task to the metrics it reports, in the
order ``ablate`` writes them. The decisions, the training records,
``evaluate_model``, the config's checks and the pipeline's metric rows
read these two tables; the targets follow the head's output count. The
head's losses live here too, in :meth:`TwoStreamModel.loss_and_grad`.

One label from :data:`VARIANTS` names the model. ``fused`` is the model
above; ``temporal`` and ``spatial`` keep one stream; ``concatenation``
drops the encoders and concatenates the embeddings unscaled;
``soft-attention`` rescales by the weight alone and
``independent-sigmoid`` takes each weight from a sigmoid of its own
score instead of a softmax over both. The label's index in
:data:`VARIANTS` is the ``meta.variant`` code stored in checkpoints.

``TwoStreamModel`` is named chains of ``nnet`` blocks: ``blocks`` maps
checkpoint names to blocks in construction order (the order of the init
draws and of ``params()``), ``streams`` holds one chain per input,
temporal first, ``encoders`` one scoring chain per stream for the labels
that score the embeddings, and ``top`` is ``[fusion_fc, head]``. Its
``state()`` is the whole checkpoint: the parameters, the batch-norm
running statistics and the ``meta.*`` codes of the choices that tensor
names and shapes leave open (variant, output count, activation, loss).
``seed=None`` builds the same chains without an initialisation, for a
fitted model: ``load_params`` then checks a checkpoint against
``state()`` and installs its arrays, with no draw and no copy, which is
how ``evaluate`` and ``ablate`` load. No block makes gradient buffers
before its first backward, so a fitted model holds the checkpoint's
arrays only, and ``grads()`` is empty until a training step.
:class:`ModelSettings` declares the sizes, regularizer, head and
schedule once, with their checks.

Training is plain mini-batch Adam with global-norm gradient clipping, on
the model config's schedule; everything is deterministic given the seed.
The per-step cost sits in ``nnet``: time-batched LSTM input projections,
one sigmoid call on the stacked gates, weight gradients that each backward
writes over the last ones (the first backward makes them), and an
in-place Adam update that applies the clip factor (its first step makes
the moments); the step holds params, grads and two moments plus the part
of one forward pass's activations that no backward can rebuild bit for
bit (no tanh(c), x̂ or separate gate gradients), which the LSTM,
attention and batch-norm backward passes free as they read them. Neither
stream computes the gradient with respect to its input, which nothing
reads. An epoch makes one forward pass over the training set: its
record's metric comes from the same training-mode predictions as its loss.

The model keeps the blocks' one cache rule: a training forward caches
what ``backward`` reads (the fusion keeps the embeddings and their
scales), ``backward`` consumes it, and an inference forward caches
nothing. So ``predict_scores``, which ``evaluate``, ``ablate`` and grid
validation run, leaves no activations on the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import NumericalError
from .nnet import (
    AdamState,
    Attention,
    BatchNorm,
    Dense,
    Dropout,
    Lstm,
    _activate,
    _activate_backward,
    _consume_cache,
    adam_step,
    backward_chain,
    clip_global_norm,
    clip_scale,
    forward_chain,
)

# Model labels; the order is the ``meta.variant`` code stored in checkpoints.
VARIANTS = (
    "fused", "temporal", "spatial", "concatenation", "soft-attention", "independent-sigmoid"
)
# Labels whose fusion scores the embeddings with encoders.
_SCORED = ("fused", "soft-attention", "independent-sigmoid")

# Losses each output activation pairs with; ``config`` checks a config file against it too.
LOSS_FOR_ACTIVATION = {
    "softmax": ("cross-entropy",),
    "sigmoid": ("bce", "mse"),
    "linear": ("mse",),
}
# The task each loss trains; ``config`` checks a config's ``task`` against it.
TASKS = {"cross-entropy": "classification", "bce": "classification", "mse": "regression"}
# The metrics each task reports, in the order of the ``ablate`` rows.
METRICS = {"classification": ("accuracy", "kappa"), "regression": ("rmse", "pcc")}
# Task-head vocabularies; the order is the ``meta.output_activation``/``meta.loss`` code.
OUTPUT_ACTIVATIONS = tuple(LOSS_FOR_ACTIVATION)
LOSSES = tuple(TASKS)
# Cross-entropy and bce take the log of probabilities kept within [PROB_FLOOR, 1 - PROB_FLOOR].
PROB_FLOOR = 1e-12
# The choices that a checkpoint's tensor names and shapes leave open, stored as
# ``meta.<field>``: a label as its index into this vocabulary, a count (None) as itself.
_META_VOCABULARIES = {
    "variant": VARIANTS,
    "n_outputs": None,
    "output_activation": OUTPUT_ACTIVATIONS,
    "loss": LOSSES,
}


def _meta_text(name: str, code: float) -> str:
    """A stored ``meta.<name>`` code as the choice it stands for."""
    vocabulary = _META_VOCABULARIES[name]
    if vocabulary is None:
        return f"{code:.0f} outputs"
    if code.is_integer() and 0 <= code < len(vocabulary):
        return repr(vocabulary[int(code)])
    return f"code {code:g}"


def check_head_outputs(loss: str, n_outputs: int, n_classes: int | None = None) -> None:
    """Raise ValueError unless a head of ``n_outputs`` units can train with ``loss``.

    Cross-entropy scores one class per output and needs two or more; bce and
    mse train one unit, and bce scores two classes. ``n_classes``, when
    given, is the class count of a classification task, which the head must
    score. ``config`` checks a config file against this too.
    """
    if loss == "cross-entropy" and n_outputs < 2:
        raise ValueError("categorical cross-entropy needs at least two outputs")
    if loss != "cross-entropy" and n_outputs != 1:
        raise ValueError(f"{loss} pairs with a single output unit")
    if loss == "bce" and n_classes not in (None, 2):
        raise ValueError(f"bce scores two classes, not {n_classes}")


def head_outputs(loss: str, task: str, n_classes: int) -> int:
    """The output units of a ``loss`` head on ``task``: one per class for a cross-entropy
    classification head, one otherwise; :func:`check_head_outputs` then judges the count."""
    return n_classes if loss == "cross-entropy" and task == "classification" else 1


@dataclass(kw_only=True)
class ModelSettings:
    """The settings a config file and a model share: sizes, regularizer, head, schedule.

    ``config.PipelineConfig`` and :class:`ArchitectureConfig` extend this
    class. A bad value raises ValueError naming the key and the value.
    """

    # Each enumerated key and its choices, checked in one loop; PipelineConfig extends it.
    _CHOICES = {"output_activation": OUTPUT_ACTIVATIONS,
                "temporal_regularizer": ("batchnorm", "dropout"), "variant": VARIANTS}

    output_activation: str = "softmax"
    loss: str = "cross-entropy"
    temporal_regularizer: str = "batchnorm"
    variant: str = "fused"
    lstm_layers: int = 3
    lstm_hidden: int = 256
    temporal_embedding_dim: int = 64
    spatial_hidden: int = 512
    spatial_embedding_dim: int = 64
    encoder_hidden: int = 32
    fusion_hidden: int = 128
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.001

    def __post_init__(self):
        for key, choices in self._CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(
                    f"unknown {key} {getattr(self, key)!r}; choose one of {list(choices)}"
                )
        allowed = LOSS_FOR_ACTIVATION[self.output_activation]
        if self.loss not in allowed:
            raise ValueError(
                f"loss {self.loss!r} cannot pair with output_activation "
                f"{self.output_activation!r}, which takes {' or '.join(allowed)}"
            )
        for f in fields(ModelSettings):  # every integer setting is a size or a count
            if type(f.default) is int and getattr(self, f.name) < 1:
                raise ValueError(f"key {f.name!r} must be at least 1, got {getattr(self, f.name)}")
        if not 0.0 < self.learning_rate < math.inf:  # false for NaN too
            raise ValueError(f"key 'learning_rate' must be in (0, inf), got {self.learning_rate}")


@dataclass(kw_only=True)
class ArchitectureConfig(ModelSettings):
    """One model instance: the shared settings plus its input and output sizes."""

    temporal_input_dim: int
    spatial_input_dim: int
    n_outputs: int
    spatial_dropout: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        check_head_outputs(self.loss, self.n_outputs)


class TwoStreamModel:
    """Trainable spatio-temporal model: named block chains; see the module docstring."""

    def __init__(self, config: ArchitectureConfig, seed: int | None = 0):
        self.config = config
        # seed=None builds the shapes only, for load_params to fill; nothing is drawn.
        init = seed is not None
        rng = np.random.default_rng(seed) if init else None
        dense = partial(Dense, rng=rng, init=init)
        self.blocks: dict[str, object] = {}
        self.streams: dict[str, list] = {}
        self.encoders: dict[str, list] = {}
        dims = {}
        if config.variant != "spatial":
            temporal, in_dim = {}, config.temporal_input_dim
            for i in range(config.lstm_layers):
                temporal[f"lstm{i}"] = Lstm(in_dim, config.lstm_hidden, rng=rng, init=init)
                # Keras's batch-norm momentum 0.99 is a new-batch weight of 0.01.
                temporal[f"lstm{i}_reg"] = (
                    BatchNorm(config.lstm_hidden, momentum=0.01, activation="leaky-relu")
                    if config.temporal_regularizer == "batchnorm"
                    else Dropout(0.2 if i == 0 else 0.1)
                )
                in_dim = config.lstm_hidden
            temporal["attention"] = Attention(config.lstm_hidden, rng=rng, init=init)
            temporal["temporal_embed"] = dense(
                config.lstm_hidden, config.temporal_embedding_dim, "identity"
            )
            self.streams["temporal"] = self._chain(temporal)
            dims["temporal"] = config.temporal_embedding_dim
        if config.variant != "temporal":
            self.streams["spatial"] = self._chain({
                "spatial_fc1": dense(
                    config.spatial_input_dim, config.spatial_hidden, "leaky-relu"
                ),
                "spatial_drop1": Dropout(config.spatial_dropout),
                "spatial_fc2": dense(
                    config.spatial_hidden, config.spatial_embedding_dim, "identity"
                ),
                "spatial_drop2": Dropout(config.spatial_dropout),
            })
            dims["spatial"] = config.spatial_embedding_dim
        if config.variant in _SCORED:
            for name, dim in dims.items():
                self.encoders[name] = self._chain({
                    f"encoder_{name[0]}0": dense(dim, config.encoder_hidden, "tanh"),
                    f"encoder_{name[0]}1": dense(config.encoder_hidden, 1, "identity"),
                })
        self.top = self._chain({
            "fusion_fc": dense(sum(dims.values()), config.fusion_hidden, "leaky-relu"),
            "head": dense(config.fusion_hidden, config.n_outputs, "identity"),
        })
        # The nnet activations of the fusion weights and of the head's scores.
        self._fusion = "sigmoid" if config.variant == "independent-sigmoid" else "softmax"
        self._head = {"linear": "identity"}.get(config.output_activation,
                                                config.output_activation)
        self._alpha = self._cache = None

    def _chain(self, named: dict) -> list:
        """Register blocks under their checkpoint names; returns them as a chain."""
        self.blocks.update(named)
        return list(named.values())

    # -- parameter access ---------------------------------------------------

    def _tensors(self, *kinds: str) -> dict[str, np.ndarray]:
        return {
            f"{name}.{key}": arr
            for name, block in self.blocks.items()
            for kind in kinds
            for key, arr in getattr(block, kind, {}).items()
        }

    def params(self) -> dict[str, np.ndarray]:
        return self._tensors("params")

    def grads(self) -> dict[str, np.ndarray]:
        return self._tensors("grads")

    def state(self) -> dict[str, np.ndarray]:
        """The checkpoint: each block's parameters and batch-norm running statistics, in
        block order, then the ``meta.*`` codes of ``_META_VOCABULARIES`` as 0-d arrays."""
        state = self._tensors("params", "buffers")
        for name, vocabulary in _META_VOCABULARIES.items():
            value = getattr(self.config, name)
            state[f"meta.{name}"] = np.array(
                float(value if vocabulary is None else vocabulary.index(value))
            )
        return state

    def load_params(self, tensors: dict[str, np.ndarray]):
        """Install ``tensors`` (checkpoint name -> array), as :meth:`state` wrote them.

        ValueError, in this order: a ``meta.*`` code other than the model's
        own (naming the key and both choices), names other than the model's
        state, a shape that differs. Each array then becomes the model's
        own, not a copy, when it is float64, C-contiguous, aligned and
        writable, as :func:`spd_bci.data.read_tensors` returns them; the
        model owns it from then on, and training updates it in place. Any
        other array is converted once.
        """
        state = self.state()
        for name in _META_VOCABULARIES:
            key = f"meta.{name}"
            stored = tensors.get(key)
            # A meta tensor of another shape is left to the shape check below.
            if stored is not None and stored.shape == () and float(stored) != state[key]:
                raise ValueError(
                    f"key {key!r} is {_meta_text(name, float(stored))}, "
                    f"this config has {_meta_text(name, float(state[key]))}"
                )
        missing = set(state) - set(tensors)
        if missing:
            raise ValueError(f"checkpoint is missing tensors: {sorted(missing)}")
        extra = set(tensors) - set(state)
        if extra:
            raise ValueError(f"checkpoint has tensors this model does not: {sorted(extra)}")
        for key, arr in state.items():
            incoming = tensors[key]
            if incoming.shape != arr.shape:
                raise ValueError(
                    f"tensor {key!r} has shape {incoming.shape}, model expects {arr.shape}"
                )
        for name, block in self.blocks.items():
            for store in (block.params, getattr(block, "buffers", {})):
                for key in store:
                    store[key] = np.require(tensors[f"{name}.{key}"], np.float64, "CAW")

    # -- forward/backward ---------------------------------------------------

    def forward(self, xt, xs, train=True, rng=None) -> np.ndarray:
        inputs = {"temporal": xt, "spatial": xs}
        embeds = [
            forward_chain(chain, inputs[name], train, rng) for name, chain in self.streams.items()
        ]
        alpha = scale = None
        if self.encoders:
            scores = np.concatenate(
                [forward_chain(enc, e, train) for enc, e in zip(self.encoders.values(), embeds)],
                axis=1,
            )
            self._alpha = alpha = _activate(scores, self._fusion)
            scale = (0.0 if self.config.variant == "soft-attention" else 1.0) + alpha
        self._cache = (embeds, alpha, scale) if train else None
        if scale is not None:
            embeds = [scale[:, k:k + 1] * e for k, e in enumerate(embeds)]
        return forward_chain(self.top, np.concatenate(embeds, axis=1), train)

    @property
    def fusion_weights(self) -> np.ndarray | None:
        """Stream weights (batch, 2) from the last forward pass; None for a variant that
        does not score its embeddings, and before the first forward."""
        return self._alpha

    def backward(self, grad_logits):
        embeds, alpha, scale = _consume_cache(self)
        grad = backward_chain(self.top, grad_logits)
        grads = np.split(grad, np.cumsum([e.shape[1] for e in embeds])[:-1], axis=1)
        if self.encoders:
            dalpha = np.stack([np.sum(g * e, axis=1) for g, e in zip(grads, embeds)], axis=1)
            dscores = _activate_backward(dalpha, alpha, self._fusion)
            grads = [
                scale[:, k:k + 1] * g + backward_chain(enc, dscores[:, k:k + 1])
                for k, (g, enc) in enumerate(zip(grads, self.encoders.values()))
            ]
        for chain, g in zip(self.streams.values(), grads):
            backward_chain(chain, g, input_grad=False)

    # -- task head ------------------------------------------------------------

    def loss_and_grad(self, logits, targets) -> tuple[float, np.ndarray]:
        """The mean loss of the head's scores against ``targets``, and its gradient wrt
        the logits.

        Cross-entropy (softmax head) and bce (sigmoid head) take the log of
        the scores kept within [PROB_FLOOR, 1 - PROB_FLOOR], so a saturated
        score gives a finite loss, and their gradient wrt the logits is
        (scores - targets) / n. mse scores the head's probability or value
        and backpropagates through the head's activation.
        """
        scores = self.activate(logits)
        n = len(targets)
        if self.config.loss == "cross-entropy":
            loss = -np.mean(np.sum(targets * np.log(np.maximum(scores, PROB_FLOOR)), axis=-1))
        elif self.config.loss == "bce":
            p = np.clip(scores, PROB_FLOOR, 1.0 - PROB_FLOOR)
            loss = -np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
        else:
            diff = scores - targets
            return float(np.mean(diff ** 2)), _activate_backward(2.0 * diff / n, scores, self._head)
        return float(loss), (scores - targets) / n

    def activate(self, logits) -> np.ndarray:
        """Head scores from logits: class probabilities, a probability, or the value."""
        return _activate(logits, self._head)

    def decide(self, scores) -> np.ndarray:
        """Predictions from head scores: the class, 0/1 at 0.5, or the regression value."""
        if TASKS[self.config.loss] == "regression":
            return scores[:, 0]
        if scores.shape[1] == 1:  # bce's one unit is the probability of class 1
            return (scores[:, 0] >= 0.5).astype(int)
        return np.argmax(scores, axis=1)

    def predict_scores(self, xt, xs) -> np.ndarray:
        return self.activate(self.forward(xt, xs, train=False))

    def predict(self, xt, xs) -> np.ndarray:
        return self.decide(self.predict_scores(xt, xs))


def encode_targets(labels, config: ArchitectureConfig) -> np.ndarray:
    """Labels to training targets: one-hot for a head with one unit per class (only
    cross-entropy's has more than one), column vectors otherwise."""
    labels = np.asarray(labels)
    if config.n_outputs > 1:
        idx = labels.astype(int)
        if idx.min() < 0 or idx.max() >= config.n_outputs:
            raise ValueError(
                f"class labels outside [0, {config.n_outputs}): {idx.min()}..{idx.max()}"
            )
        onehot = np.zeros((len(idx), config.n_outputs))
        onehot[np.arange(len(idx)), idx] = 1.0
        return onehot
    return labels.astype(np.float64).reshape(-1, 1)


def train_model(model: TwoStreamModel, xt, xs, labels, *, seed: int = 0) -> list[dict]:
    """Mini-batch Adam training; returns one record per epoch.

    The schedule (epochs, batch size, learning rate) is ``model.config``'s.
    Deterministic given the seed: shuffling and dropout masks come from
    one generator. A non-finite loss aborts with diagnostics. Each record
    holds ``epoch``, ``loss``, the mean over the epoch's batches of the
    training-mode loss, each taken before that batch's update, and the
    task's first metric (accuracy or rmse) of those same training-mode
    predictions, by the rule of :meth:`TwoStreamModel.predict`. An epoch
    makes one forward pass over the data.
    """
    cfg = model.config
    targets = encode_targets(labels, cfg)
    n = targets.shape[0]
    if xt is not None and len(xt) != n:
        raise ValueError(f"{len(xt)} temporal inputs for {n} labels")
    if xs is not None and len(xs) != n:
        raise ValueError(f"{len(xs)} spatial inputs for {n} labels")
    metric = METRICS[TASKS[cfg.loss]][0]
    rng = np.random.default_rng(seed)
    optimizer = AdamState(lr=cfg.learning_rate)
    history = []
    labels_array = np.asarray(labels)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        predictions = []  # the epoch's training-mode predictions, in ``order``
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            bt = xt[batch] if xt is not None else None
            bs = xs[batch] if xs is not None else None
            logits = model.forward(bt, bs, train=True, rng=rng)
            loss, dlogits = model.loss_and_grad(logits, targets[batch])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch starting at sample {start}"
                )
            predictions.append(model.decide(model.activate(logits)))
            model.backward(dlogits)
            grads = model.grads()
            scale = clip_scale(clip_global_norm(grads))
            adam_step(optimizer, model.params(), grads, scale)
            epoch_loss += loss * len(batch)
        predicted, seen = np.concatenate(predictions), labels_array[order]
        if metric == "accuracy":
            score = float(np.mean(predicted == seen.astype(int)))
        else:
            score = root_mean_squared_error(seen, predicted)
        history.append({"epoch": epoch, "loss": epoch_loss / n, metric: score})
    return history


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def confusion_counts(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Confusion matrix with true classes as rows, predictions as columns."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    counts = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


def kappa_from_agreement(p0: float, pe: float) -> float:
    """Cohen's kappa from observed and chance agreement ratios."""
    if pe >= 1.0:
        raise NumericalError("chance agreement of 1 makes kappa undefined")
    return (p0 - pe) / (1.0 - pe)


def cohen_kappa(confusion: np.ndarray) -> float:
    """Chance-corrected agreement with empirical marginals for the chance term."""
    confusion = np.asarray(confusion, dtype=np.float64)
    total = confusion.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    p0 = np.trace(confusion) / total
    pe = float(np.sum(confusion.sum(axis=1) * confusion.sum(axis=0)) / total ** 2)
    return kappa_from_agreement(p0, pe)


def root_mean_squared_error(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def pearson_correlation(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    a = y_true - y_true.mean()
    b = y_pred - y_pred.mean()
    denom = np.sqrt(np.sum(a ** 2) * np.sum(b ** 2))
    if denom == 0.0:
        raise NumericalError("Pearson correlation undefined: zero variance in inputs")
    # Rounding can carry |r| just past 1 (two points give exactly +-1 in exact arithmetic).
    return float(np.clip(np.sum(a * b) / denom, -1.0, 1.0))


def _defined(metric, *args):
    """``metric(*args)``, or None where the data leave it undefined."""
    try:
        return metric(*args)
    except NumericalError:
        return None


def evaluate_model(model: TwoStreamModel, xt, xs, labels) -> dict:
    """Task metrics on held-out data: accuracy and kappa, or RMSE and PCC.

    Kappa (one class, predicted perfectly) and PCC (constant labels or
    predictions) can be undefined on a small split; they are then None.
    """
    predictions = model.predict(xt, xs)
    labels = np.asarray(labels)
    if TASKS[model.config.loss] == "regression":
        return {
            "rmse": root_mean_squared_error(labels, predictions),
            "pcc": _defined(pearson_correlation, labels, predictions),
        }
    n_classes = max(model.config.n_outputs, 2)  # bce's one unit scores two classes
    confusion = confusion_counts(labels.astype(int), predictions, n_classes)
    return {
        "accuracy": float(np.mean(predictions == labels.astype(int))),
        "kappa": _defined(cohen_kappa, confusion),
        "confusion": confusion.tolist(),
    }
