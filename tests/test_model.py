"""Architecture tests: streams, fusion, training behavior, evaluation metrics."""

import numpy as np
import pytest
from conftest import finite_difference_grads, max_relative_error
from hypothesis import given, settings
from hypothesis import strategies as st

from spd_bci.errors import NumericalError
from spd_bci.model import (
    LOSSES,
    OUTPUT_ACTIVATIONS,
    VARIANTS,
    ArchitectureConfig,
    TwoStreamModel,
    cohen_kappa,
    confusion_counts,
    encode_targets,
    evaluate_model,
    kappa_from_agreement,
    pearson_correlation,
    root_mean_squared_error,
    train_model,
)
from spd_bci.nnet import BatchNorm, Lstm, forward_chain, sigmoid, stable_softmax

TINY = dict(
    temporal_input_dim=5,
    spatial_input_dim=6,
    n_outputs=2,
    lstm_layers=3,
    lstm_hidden=8,
    temporal_embedding_dim=8,
    spatial_hidden=16,
    spatial_embedding_dim=8,
    encoder_hidden=4,
    fusion_hidden=16,
    spatial_dropout=0.0,
)


def tiny_model(seed=0, **overrides):
    cfg = ArchitectureConfig(**{**TINY, **overrides})
    return TwoStreamModel(cfg, seed=seed)


def tiny_batch(rng, batch=4, length=3):
    xt = rng.standard_normal((batch, length, TINY["temporal_input_dim"]))
    xs = rng.standard_normal((batch, TINY["spatial_input_dim"]))
    return xt, xs


def zero_params(model):
    for arr in model.params().values():
        arr[:] = 0.0


class TestArchitectureConfig:
    def test_rejects_bad_loss_pairing(self):
        with pytest.raises(ValueError, match="pair"):
            ArchitectureConfig(**{**TINY, "output_activation": "softmax", "loss": "mse"})

    def test_rejects_multiclass_bce(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(
                **{**TINY, "output_activation": "sigmoid", "loss": "bce", "n_outputs": 3}
            )

    def test_rejects_unknown_fusion_mode(self):
        # A fusion rule is named by its variant label; "weighted" is the rule of "fused".
        with pytest.raises(ValueError, match="unknown variant"):
            ArchitectureConfig(**{**TINY, "variant": "weighted"})

    def test_temporal_dropout_is_two_tenths_then_one_tenth(self):
        model = tiny_model(temporal_regularizer="dropout")
        assert [model.blocks[f"lstm{i}_reg"].rate for i in range(3)] == [0.2, 0.1, 0.1]


# Checkpoint tensor names in order, from a two-layer LSTM stack; pinned so that
# a restructuring of the model cannot silently rename or reorder them.
_TEMPORAL_BN = [
    "lstm0.w", "lstm0.b", "lstm0_reg.gamma", "lstm0_reg.beta",
    "lstm1.w", "lstm1.b", "lstm1_reg.gamma", "lstm1_reg.beta",
    "attention.w", "attention.b", "temporal_embed.w", "temporal_embed.b",
]
_TEMPORAL_DROPOUT = [
    "lstm0.w", "lstm0.b", "lstm1.w", "lstm1.b",
    "attention.w", "attention.b", "temporal_embed.w", "temporal_embed.b",
]
_SPATIAL = ["spatial_fc1.w", "spatial_fc1.b", "spatial_fc2.w", "spatial_fc2.b"]
_ENCODERS = [
    "encoder_t0.w", "encoder_t0.b", "encoder_t1.w", "encoder_t1.b",
    "encoder_s0.w", "encoder_s0.b", "encoder_s1.w", "encoder_s1.b",
]
_TOP = ["fusion_fc.w", "fusion_fc.b", "head.w", "head.b"]
CHECKPOINT_KEYS = {
    (label, regularizer): keys
    for regularizer, temporal in (("batchnorm", _TEMPORAL_BN), ("dropout", _TEMPORAL_DROPOUT))
    for label, keys in (
        ("fused", temporal + _SPATIAL + _ENCODERS + _TOP),
        ("temporal", temporal + _TOP),
        ("spatial", _SPATIAL + _TOP),
        ("concatenation", temporal + _SPATIAL + _TOP),
        ("soft-attention", temporal + _SPATIAL + _ENCODERS + _TOP),
        ("independent-sigmoid", temporal + _SPATIAL + _ENCODERS + _TOP),
    )
}


@pytest.mark.parametrize("label, regularizer", sorted(CHECKPOINT_KEYS))
def test_checkpoint_keys_are_pinned(label, regularizer):
    model = tiny_model(lstm_layers=2, temporal_regularizer=regularizer, variant=label)
    assert list(model.params()) == CHECKPOINT_KEYS[label, regularizer]
    # The first backward makes the gradient buffers, so their keys are read after one step.
    rng = np.random.default_rng(31)
    logits = model.forward(*tiny_batch(rng), train=True, rng=rng)
    model.backward(np.ones_like(logits))
    assert list(model.grads()) == CHECKPOINT_KEYS[label, regularizer]


@pytest.mark.parametrize("label", VARIANTS)
def test_state_is_params_and_buffers_then_meta(label):
    model = tiny_model(lstm_layers=2, variant=label, output_activation="sigmoid", loss="bce",
                       n_outputs=1)
    state = model.state()
    names = list(state)
    meta = ["meta.variant", "meta.n_outputs", "meta.output_activation", "meta.loss"]
    assert names[-4:] == meta
    assert [n for n in names[:-4] if ".running_" not in n] == list(model.params())
    codes = [VARIANTS.index(label), 1, OUTPUT_ACTIVATIONS.index("sigmoid"), LOSSES.index("bce")]
    for key, code in zip(meta, codes):
        assert state[key].shape == () and state[key].dtype == np.float64
        assert state[key] == code, key


class TestTemporalStream:
    def test_zero_network_gives_zero_embedding(self):
        model = tiny_model()
        zero_params(model)
        xt, _ = tiny_batch(np.random.default_rng(0))
        embed = forward_chain(model.streams["temporal"], xt, train=False)
        np.testing.assert_array_equal(embed, 0.0)

    @pytest.mark.parametrize("length", [7, 15])
    def test_embedding_dimension_independent_of_window_count(self, length):
        model = tiny_model()
        xt = np.random.default_rng(1).standard_normal((3, length, TINY["temporal_input_dim"]))
        assert forward_chain(model.streams["temporal"], xt, train=False).shape == (3, 8)


class TestSpatialStream:
    def test_zero_network_gives_zero_embedding(self):
        model = tiny_model()
        zero_params(model)
        _, xs = tiny_batch(np.random.default_rng(2))
        embed = forward_chain(model.streams["spatial"], xs, train=False)
        np.testing.assert_array_equal(embed, 0.0)

    def test_dataset_scale_dimensions(self):
        cfg = ArchitectureConfig(
            temporal_input_dim=620,
            spatial_input_dim=5880,
            n_outputs=3,
            lstm_hidden=16,  # keep the test light; the spatial path is the point
        )
        model = TwoStreamModel(cfg, seed=0)
        xs = np.random.default_rng(3).standard_normal((2, 5880))
        assert forward_chain(model.streams["spatial"], xs, train=False).shape == (2, 64)
        assert model.blocks["spatial_fc1"].params["w"].shape == (512, 5880)


class TestFusion:
    def test_equal_scores_give_half_weights_and_three_halves_scale(self):
        model = tiny_model()
        for dense in (*model.encoders["temporal"], *model.encoders["spatial"]):
            dense.params["w"][:] = 0.0
            dense.params["b"][:] = 0.0
        xt, xs = tiny_batch(np.random.default_rng(4))
        model.forward(xt, xs, train=False)
        np.testing.assert_allclose(model.fusion_weights, 0.5, atol=1e-12)

    def test_extreme_score_saturates_scales(self):
        model = tiny_model()
        for dense in (*model.encoders["temporal"], *model.encoders["spatial"]):
            dense.params["w"][:] = 0.0
            dense.params["b"][:] = 0.0
        model.blocks["encoder_t1"].params["b"][:] = 50.0
        model.blocks["encoder_s1"].params["b"][:] = -50.0
        xt, xs = tiny_batch(np.random.default_rng(5))
        model.forward(xt, xs, train=False)
        alpha = model.fusion_weights
        np.testing.assert_allclose(alpha[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(alpha[:, 1], 0.0, atol=1e-12)

    def test_weights_sum_to_one(self):
        model = tiny_model(seed=3)
        xt, xs = tiny_batch(np.random.default_rng(6))
        model.forward(xt, xs, train=False)
        alpha = model.fusion_weights
        assert np.all(alpha > 0.0) and np.all(alpha < 1.0)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)

    def test_weighted_scales_stay_in_one_to_two(self):
        model = tiny_model(seed=7)
        xt, xs = tiny_batch(np.random.default_rng(7))
        model.forward(xt, xs, train=False)
        scale = 1.0 + model.fusion_weights
        assert np.all(scale > 1.0) and np.all(scale < 2.0)

    def test_concatenation_mode_reduces_to_plain_head(self):
        model = tiny_model(variant="concatenation")
        xt, xs = tiny_batch(np.random.default_rng(8))
        logits = model.forward(xt, xs, train=False)
        e_t = forward_chain(model.streams["temporal"], xt, train=False)
        e_s = forward_chain(model.streams["spatial"], xs, train=False)
        manual = forward_chain(model.top, np.concatenate([e_t, e_s], axis=1), train=False)
        np.testing.assert_allclose(logits, manual, atol=1e-12)

    def test_independent_sigmoid_mode_scales_between_one_and_two(self):
        model = tiny_model(variant="independent-sigmoid", seed=9)
        xt, xs = tiny_batch(np.random.default_rng(9))
        model.forward(xt, xs, train=False)
        alpha = model.fusion_weights
        assert np.all(alpha > 0.0) and np.all(alpha < 1.0)

    def test_shifting_both_scores_leaves_weights_scaling_changes_them(self):
        model = tiny_model(seed=10)
        xt, xs = tiny_batch(np.random.default_rng(10))
        model.forward(xt, xs, train=False)
        baseline = model.fusion_weights.copy()
        # Same constant added to both scalar scores: softmax unchanged.
        score_t, score_s = model.blocks["encoder_t1"], model.blocks["encoder_s1"]
        score_t.params["b"] += 7.5
        score_s.params["b"] += 7.5
        model.forward(xt, xs, train=False)
        np.testing.assert_allclose(model.fusion_weights, baseline, atol=1e-12)
        # Scaling both scores changes the weights (softmax is not scale invariant).
        score_t.params["w"] *= 3.0
        score_t.params["b"] = (score_t.params["b"] - 7.5) * 3.0
        score_s.params["w"] *= 3.0
        score_s.params["b"] = (score_s.params["b"] - 7.5) * 3.0
        model.forward(xt, xs, train=False)
        assert not np.allclose(model.fusion_weights, baseline, atol=1e-6)

    @pytest.mark.parametrize("variant", ["temporal", "spatial", "concatenation", "fused"])
    def test_fusion_weights_are_none_where_nothing_scores_the_embeddings(self, variant):
        model = tiny_model(variant=variant)
        assert model.fusion_weights is None  # before the first forward
        model.forward(*tiny_batch(np.random.default_rng(11)), train=False)
        assert (model.fusion_weights is None) == (variant != "fused")


class TestBackwardNeedsATrainingForward:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_backward_after_an_inference_forward_or_none_raises(self, variant):
        model = tiny_model(variant=variant)
        xt, xs = tiny_batch(np.random.default_rng(12))
        message = "^TwoStreamModel.backward needs a training forward"
        with pytest.raises(RuntimeError, match=message):
            model.backward(np.ones((4, 2)))
        logits = model.forward(xt, xs, train=True, rng=np.random.default_rng(13))
        model.forward(xt, xs, train=False)  # drops the training forward's cache
        with pytest.raises(RuntimeError, match=message):
            model.backward(np.ones_like(logits))
        model.forward(xt, xs, train=True, rng=np.random.default_rng(13))
        model.backward(np.ones_like(logits))
        with pytest.raises(RuntimeError, match=message):
            model.backward(np.ones_like(logits))


class TestEndToEndGradients:
    # The ids name the fusion rule; "fused" is the weighted (1 + weight) rule.
    @pytest.mark.parametrize(
        "variant",
        ["fused", "soft-attention", "concatenation", "independent-sigmoid"],
        ids=["weighted", "soft-attention", "concatenation", "independent-sigmoid"],
    )
    def test_fused_model_matches_finite_differences(self, variant):
        rng = np.random.default_rng(20)
        model = tiny_model(seed=5, variant=variant)
        xt, xs = tiny_batch(rng)
        targets = encode_targets(np.array([0, 1, 1, 0]), model.config)

        def loss():
            logits = model.forward(xt, xs, train=True)
            return model.loss_and_grad(logits, targets)[0]

        logits = model.forward(xt, xs, train=True)
        _, dlogits = model.loss_and_grad(logits, targets)
        model.backward(dlogits)
        analytic = {k: v.copy() for k, v in model.grads().items()}
        numeric = finite_difference_grads(loss, model.params())
        for key, grad in analytic.items():
            err = max_relative_error(grad, numeric[key])
            assert err < 1e-4, f"{variant}: tensor {key} rel err {err:.2e}"

    @pytest.mark.parametrize("variant", ["temporal", "spatial"])
    def test_single_stream_variants_match_finite_differences(self, variant):
        rng = np.random.default_rng(21)
        model = tiny_model(seed=6, variant=variant)
        xt, xs = tiny_batch(rng)
        targets = encode_targets(np.array([1, 0, 1, 0]), model.config)

        def loss():
            logits = model.forward(xt, xs, train=True)
            return model.loss_and_grad(logits, targets)[0]

        logits = model.forward(xt, xs, train=True)
        _, dlogits = model.loss_and_grad(logits, targets)
        model.backward(dlogits)
        analytic = {k: v.copy() for k, v in model.grads().items()}
        numeric = finite_difference_grads(loss, model.params())
        for key, grad in analytic.items():
            err = max_relative_error(grad, numeric[key])
            assert err < 1e-4, f"{variant}: tensor {key} rel err {err:.2e}"


# The four task heads: output activation, loss and output count.
HEADS = {
    "softmax-cross-entropy": dict(output_activation="softmax", loss="cross-entropy", n_outputs=3),
    "sigmoid-bce": dict(output_activation="sigmoid", loss="bce", n_outputs=1),
    "sigmoid-mse": dict(output_activation="sigmoid", loss="mse", n_outputs=1),
    "linear-mse": dict(output_activation="linear", loss="mse", n_outputs=1),
}


def reference_loss_and_grad(config, logits, targets):
    """The loss and logit gradient as ``nnet``'s loss functions computed them, kept as a
    reference copy: fused softmax cross-entropy, fused sigmoid bce, and mse on the head's
    scores backpropagated through the head's activation."""
    if config.loss == "cross-entropy":
        probs = stable_softmax(logits, axis=-1)
        p = np.maximum(probs, 1e-12)
        loss = float(-np.mean(np.sum(targets * np.log(p), axis=-1)))
        return loss, (probs - targets) / logits.shape[0]
    if config.loss == "bce":
        p = sigmoid(logits)
        clipped = np.clip(p, 1e-12, 1.0 - 1e-12)
        loss = float(-np.mean(targets * np.log(clipped) + (1.0 - targets) * np.log(1.0 - clipped)))
        return loss, (p - targets) / targets.size
    scores = sigmoid(logits) if config.output_activation == "sigmoid" else logits
    diff = scores - targets
    grad = 2.0 * diff / diff.size
    if config.output_activation == "sigmoid":
        grad = grad * scores * (1.0 - scores)
    return float(np.mean(diff ** 2)), grad


def head_targets(config, rng, n):
    """Targets for ``n`` trials: one-hot classes, 0/1 labels, or values in (0, 1)."""
    if config.loss == "mse":
        return encode_targets(rng.uniform(0.05, 0.95, size=n), config)
    return encode_targets(rng.integers(0, max(config.n_outputs, 2), size=n), config)


class TestLossAndGrad:
    """The task head's loss and its gradient wrt the logits, for each head."""

    @pytest.mark.parametrize("head", HEADS)
    def test_matches_the_reference_bits_and_finite_differences(self, head):
        model = tiny_model(**HEADS[head])
        rng = np.random.default_rng(12)
        logits = 2.0 * rng.standard_normal((6, model.config.n_outputs))
        targets = head_targets(model.config, rng, 6)
        loss, grad = model.loss_and_grad(logits, targets)
        want_loss, want_grad = reference_loss_and_grad(model.config, logits, targets)
        assert type(loss) is float
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.shape == logits.shape and grad.tobytes() == want_grad.tobytes()
        numeric = finite_difference_grads(
            lambda: model.loss_and_grad(logits, targets)[0], {"x": logits}
        )
        assert max_relative_error(grad, numeric["x"]) < 1e-4

    @pytest.mark.parametrize("head", HEADS)
    def test_probability_floor_keeps_losses_finite(self, head):
        # Logits of +-1000 saturate the head: each target's probability is exactly 0 or 1.
        model = tiny_model(**HEADS[head])
        if model.config.n_outputs > 1:
            logits = np.array([[-1000.0, 0.0, 0.0], [0.0, -1000.0, 1000.0]])
            targets = encode_targets(np.array([0, 1]), model.config)
            assert stable_softmax(logits)[[0, 1], [0, 1]].tolist() == [0.0, 0.0]
        else:
            logits = np.array([[-1000.0], [1000.0]])
            targets = encode_targets(np.array([1, 0]), model.config)
            if model.config.output_activation == "sigmoid":
                assert sigmoid(logits).ravel().tolist() == [0.0, 1.0]
        loss, grad = model.loss_and_grad(logits, targets)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_cross_entropy_of_perfect_prediction_is_zero(self):
        model = tiny_model(**HEADS["softmax-cross-entropy"])
        logits = np.array([[-1000.0, 0.0, -1000.0]])  # softmax gives exactly [0, 1, 0]
        loss, _ = model.loss_and_grad(logits, encode_targets(np.array([1]), model.config))
        assert loss == 0.0

    def test_mse_example(self):
        model = tiny_model(**HEADS["linear-mse"])
        loss, _ = model.loss_and_grad(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert loss == pytest.approx(1.0)

    def test_bce_half_is_log_two(self):
        model = tiny_model(**HEADS["sigmoid-bce"])
        loss, _ = model.loss_and_grad(np.array([[0.0]]), np.array([[1.0]]))
        assert loss == pytest.approx(np.log(2.0))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cross_entropy_nonnegative_and_zero_only_at_target(self, seed):
        model = tiny_model(**HEADS["softmax-cross-entropy"])
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((4, 3))
        loss, _ = model.loss_and_grad(logits, head_targets(model.config, rng, 4))
        assert loss > 0.0  # softmax of finite logits is never exactly one-hot


class TestBackwardOverwrites:
    @pytest.mark.parametrize("regularizer", ["batchnorm", "dropout"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_second_backward_leaves_only_its_own_gradients(self, variant, regularizer):
        xt, xs = tiny_batch(np.random.default_rng(22))
        models = [
            tiny_model(seed=7, variant=variant, temporal_regularizer=regularizer,
                       spatial_dropout=0.5)
            for _ in range(2)
        ]
        for model in models:
            logits = model.forward(xt, xs, train=True, rng=np.random.default_rng(23))
        first, second = np.random.default_rng(24).standard_normal((2, *logits.shape))
        twice, once = models
        twice.backward(first)
        # A backward consumes its forward's activations: same input, same dropout masks.
        twice.forward(xt, xs, train=True, rng=np.random.default_rng(23))
        twice.backward(second)
        once.backward(second)
        for key, grad in once.grads().items():
            assert twice.grads()[key].tobytes() == grad.tobytes(), key


class TestStreamInputGradients:
    @pytest.mark.parametrize("regularizer", ["batchnorm", "dropout"])
    def test_skipping_the_stream_input_gradients_leaves_the_grads_byte_identical(
        self, regularizer, monkeypatch
    ):
        # The model asks each stream's first block (lstm0, spatial_fc1) for no input
        # gradient; the same step with every input gradient computed gives the same grads.
        from spd_bci import model as model_module
        from spd_bci.nnet import backward_chain

        asked = []

        def recording_chain(blocks, grad, input_grad=True):
            asked.append((blocks[0], input_grad))
            return backward_chain(blocks, grad, input_grad)

        def full_chain(blocks, grad, input_grad=True):
            return backward_chain(blocks, grad)

        xt, xs = tiny_batch(np.random.default_rng(28))
        grads = []
        for chain in (recording_chain, full_chain):
            monkeypatch.setattr(model_module, "backward_chain", chain)
            model = tiny_model(seed=10, temporal_regularizer=regularizer, spatial_dropout=0.5)
            logits = model.forward(xt, xs, train=True, rng=np.random.default_rng(29))
            model.backward(np.random.default_rng(30).standard_normal(logits.shape))
            grads.append(model.grads())
            if chain is recording_chain:
                skipped = [block for block, wanted in asked if not wanted]
                assert skipped == [model.blocks["lstm0"], model.blocks["spatial_fc1"]]
        with_skip, without = grads
        for key, grad in without.items():
            assert with_skip[key].tobytes() == grad.tobytes(), key


class TestTrainingMemory:
    def test_epoch_allocates_only_the_moments_beyond_the_model(self):
        # spatial_fc1 is 4,000 x 512, 16.4 MB of the 16.5 MB of parameters. Traced from
        # before the model is built, an epoch may hold four parameter-sized stores: the
        # parameters, the gradients the first backward makes, Adam's two moments, and a
        # little for activations. A weight gradient built as a new array and then copied
        # would add another 16.4 MB.
        import tracemalloc

        rng = np.random.default_rng(25)
        xs = rng.standard_normal((16, 4000))
        labels = np.tile([0, 1], 8)
        tracemalloc.start()
        try:
            model = tiny_model(seed=8, variant="spatial", spatial_input_dim=4000,
                               spatial_hidden=512, spatial_dropout=0.5, epochs=1, batch_size=8)
            train_model(model, None, xs, labels, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        param_bytes = sum(p.nbytes for p in model.params().values())
        assert peak < 4 * param_bytes + 2 ** 21, f"peak {peak / 2 ** 20:.1f} MiB"

    # A temporal stream at the lstm-train batch and length, with half its hidden size.
    TEMPORAL = dict(variant="temporal", temporal_input_dim=20, lstm_layers=3, lstm_hidden=128,
                    temporal_embedding_dim=64, fusion_hidden=16, epochs=1, batch_size=32)
    LENGTH = 15

    @staticmethod
    def held_arrays(block):
        """Names of the arrays a block holds besides its parameters, gradients and buffers."""
        held = []
        for name, value in vars(block).items():
            if name not in ("params", "grads", "buffers"):
                values = value if isinstance(value, tuple) else (value,)
                held += [name for v in values if isinstance(v, np.ndarray)]
        return held

    def test_backward_leaves_no_activations_in_lstm_or_batchnorm(self):
        model = tiny_model(seed=8, **self.TEMPORAL)
        rng = np.random.default_rng(26)
        xt = rng.standard_normal((32, self.LENGTH, 20))
        logits = model.forward(xt, None, train=True, rng=rng)
        blocks = {name: block for name, block in model.blocks.items()
                  if isinstance(block, (Lstm, BatchNorm))}
        assert len(blocks) == 6 and all(self.held_arrays(b) for b in blocks.values())
        _, dlogits = model.loss_and_grad(logits, encode_targets(np.tile([0, 1], 16), model.config))
        model.backward(dlogits)
        for name, block in blocks.items():
            assert not self.held_arrays(block), (name, self.held_arrays(block))

    def test_temporal_epoch_holds_one_forward_pass_of_activations(self):
        # Parameters, gradients and Adam's two moments, plus the activations that no
        # backward can rebuild bit for bit, plus one LSTM backward's workspace. A cached
        # tanh(c) or x-hat, a gate-gradient array beside the gates, or activations that
        # outlive their backward into the next step's forward break the bound.
        import tracemalloc

        batch, length, hidden, layers = 32, self.LENGTH, 128, 3
        rng = np.random.default_rng(27)
        xt = rng.standard_normal((64, length, 20))
        labels = np.tile([0, 1], 32)
        blh = batch * length * hidden
        activations = 8 * (
            layers * (4 * blh + batch * (length + 1) * hidden + blh)  # gates, cells, h
            + layers * blh  # batch norm's output; its input is the LSTM's h
            + blh  # attention's tanh scores
        )
        # h_{t-1} for the recurrent weight gradient, and at most 16 (batch, hidden) step buffers.
        workspace = 8 * (blh + 16 * batch * hidden)
        tracemalloc.start()
        try:
            model = tiny_model(seed=8, **self.TEMPORAL)
            param_bytes = sum(p.nbytes for p in model.params().values())
            train_model(model, xt, None, labels, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 4 * param_bytes + activations + workspace + 2 ** 20
        assert peak < bound, f"peak {peak / 2 ** 20:.2f} MiB, bound {bound / 2 ** 20:.2f} MiB"


class TestInferenceMemory:
    def test_no_gradient_buffers_before_the_first_backward(self):
        model = tiny_model(seed=11)
        assert model.grads() == {}
        model.predict_scores(*tiny_batch(np.random.default_rng(32)))
        assert model.grads() == {}

    def test_fitted_model_holds_the_checkpoint_arrays_only(self):
        # spatial_fc1 is 4,000 x 512, 16.4 MB of the 16.5 MB of parameters. A model built
        # to be loaded takes the checkpoint's arrays without a copy and makes no gradient
        # buffers, so building, loading and scoring a batch stay far below one copy.
        import tracemalloc

        config = ArchitectureConfig(**{**TINY, "spatial_input_dim": 4000, "spatial_hidden": 512})
        trained = TwoStreamModel(config, seed=12)
        param_bytes = sum(p.nbytes for p in trained.params().values())
        rng = np.random.default_rng(33)
        xt = rng.standard_normal((8, 3, TINY["temporal_input_dim"]))
        xs = rng.standard_normal((8, 4000))
        expected = trained.predict_scores(xt, xs)
        tracemalloc.start()
        try:
            fitted = TwoStreamModel(config, seed=None)
            fitted.load_params(trained.state())
            scores = fitted.predict_scores(xt, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.tobytes() == expected.tobytes()
        assert peak < param_bytes / 4, f"peak {peak / 2 ** 20:.2f} MiB"

    def test_loaded_model_trains_as_the_model_it_was_saved_from(self):
        # The first backward makes a loaded model's gradient buffers too.
        xt, xs, labels = separable_dataset(np.random.default_rng(34), n=16)
        original = tiny_model(seed=13, epochs=2, batch_size=8)
        loaded = TwoStreamModel(original.config, seed=None)
        loaded.load_params({key: arr.copy() for key, arr in original.state().items()})
        for model in (original, loaded):
            train_model(model, xt, xs, labels, seed=14)
        for key, arr in original.state().items():
            assert loaded.state()[key].tobytes() == arr.tobytes(), key

    def test_predict_scores_keeps_nothing_and_peaks_at_one_lstm_layer(self):
        # The lstm-train model: 3 x 256 LSTM with batch norm, fused, regression head, on
        # 64 trials x 15 windows of 64 features. Scoring holds at most one LSTM layer's
        # forward at a time, and nothing once it returns. The peak is inside a later
        # layer's time loop: its input (the previous layer's (B, L, H) output), the
        # (B, L, 4H) pre-activations once, with the bias added in place, its cells and its
        # outputs, plus one step's tanh(c_t) and the gate sigmoid's two (B, 3H)
        # temporaries and (B, 3H) boolean mask.
        import tracemalloc

        batch, length, in_dim, hidden = 64, 15, 64, 256
        cfg = ArchitectureConfig(temporal_input_dim=in_dim, spatial_input_dim=144,
                                 n_outputs=1, output_activation="sigmoid", loss="mse")
        model = TwoStreamModel(cfg, seed=0)
        rng = np.random.default_rng(31)
        xt = rng.standard_normal((batch, length, in_dim))
        xs = rng.standard_normal((batch, 144))
        tracemalloc.start()
        try:
            scores = model.predict_scores(xt, xs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held -= scores.nbytes
        blh, bh = batch * length * hidden, batch * hidden
        layer = 8 * (blh + 4 * blh + (blh + bh) + blh)
        step = 8 * (bh + 2 * 3 * bh) + 3 * bh
        assert held < 2 ** 20, f"held {held / 2 ** 20:.2f} MiB"
        bound = layer + step + 2 ** 18  # a quarter MiB for array headers and ufunc buffers
        assert peak < bound, f"peak {peak / 2 ** 20:.2f} MiB, bound {bound / 2 ** 20:.2f} MiB"


def separable_dataset(rng, n=64):
    """Binary task where both streams carry a strong linear cue."""
    labels = rng.integers(0, 2, size=n)
    shift = (2.0 * labels - 1.0)[:, None]
    xt = 0.3 * rng.standard_normal((n, 3, TINY["temporal_input_dim"]))
    xt[:, :, 0] += shift
    xs = 0.3 * rng.standard_normal((n, TINY["spatial_input_dim"]))
    xs[:, 0] += shift[:, 0]
    return xt, xs, labels


class TestTraining:
    def test_separable_task_reaches_high_accuracy(self):
        rng = np.random.default_rng(30)
        xt, xs, labels = separable_dataset(rng, n=64)
        model = tiny_model(seed=1, epochs=50, batch_size=16)
        train_model(model, xt, xs, labels, seed=2)
        accuracy = np.mean(model.predict(xt, xs) == labels)
        assert accuracy >= 0.99

    def test_regression_loss_decreases(self):
        rng = np.random.default_rng(31)
        xt, xs, _ = separable_dataset(rng, n=48)
        targets = 1.0 / (1.0 + np.exp(-xs[:, 0]))  # smooth function of the cue
        model = tiny_model(
            seed=2, output_activation="sigmoid", loss="mse", n_outputs=1, epochs=10, batch_size=16
        )
        history = train_model(model, xt, xs, targets, seed=3)
        losses = [h["loss"] for h in history]
        increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert increases <= 2
        assert losses[-1] < losses[0]

    def test_same_seed_reproduces_trajectory_exactly(self):
        rng = np.random.default_rng(32)
        xt, xs, labels = separable_dataset(rng, n=32)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=4, epochs=5, batch_size=8)
            history = train_model(model, xt, xs, labels, seed=5)
            runs.append((history[-1]["loss"], {k: v.copy() for k, v in model.params().items()}))
        assert runs[0][0] == runs[1][0]
        for key in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][key], runs[1][1][key])

    def test_divergence_raises_numerical_error(self):
        # Inputs huge enough that the squared error overflows on the first batch.
        rng = np.random.default_rng(33)
        xt, xs, _ = separable_dataset(rng, n=16)
        targets = rng.standard_normal(16)
        model = tiny_model(
            seed=5, output_activation="linear", loss="mse", n_outputs=1, epochs=3, batch_size=8
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="diverged"):
                train_model(model, xt, 1e200 * xs, targets, seed=6)

    def test_training_log_has_epoch_loss_and_metric(self):
        rng = np.random.default_rng(34)
        xt, xs, labels = separable_dataset(rng, n=16)
        model = tiny_model(seed=6, epochs=3, batch_size=8)
        history = train_model(model, xt, xs, labels, seed=7)
        assert len(history) == 3
        assert history[0]["epoch"] == 1
        assert set(history[0]) == {"epoch", "loss", "accuracy"}

    @pytest.mark.parametrize("activation", ["sigmoid", "linear"])
    def test_logged_rmse_comes_from_the_pass_that_gave_the_loss(self, activation):
        # Under mse the epoch loss is the mean squared error of the training-mode
        # predictions, so the recorded rmse of those same predictions squares to it.
        rng = np.random.default_rng(37)
        xt, xs, _ = separable_dataset(rng, n=20)
        targets = 1.0 / (1.0 + np.exp(-xs[:, 0]))
        model = tiny_model(
            seed=9, output_activation=activation, loss="mse", n_outputs=1, spatial_dropout=0.5,
            epochs=4, batch_size=8,
        )
        history = train_model(model, xt, xs, targets, seed=10)
        for record in history:
            assert set(record) == {"epoch", "loss", "rmse"}
            assert record["rmse"] ** 2 == pytest.approx(record["loss"], rel=1e-12, abs=0.0)

    def test_an_epoch_makes_one_forward_pass_over_the_data(self, monkeypatch):
        rng = np.random.default_rng(38)
        xt, xs, labels = separable_dataset(rng, n=20)
        epochs, batch_size = 3, 8
        model = tiny_model(seed=10, epochs=epochs, batch_size=batch_size)
        calls = []
        forward = model.forward

        def counting(*args, **kwargs):
            calls.append(kwargs.get("train"))
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward", counting)
        train_model(model, xt, xs, labels, seed=11)
        assert len(calls) == epochs * -(-20 // batch_size)  # ceil(n / batch_size) per epoch
        assert all(calls)  # every pass is a training step


class TestMetrics:
    def test_kappa_formula_example(self):
        assert kappa_from_agreement(0.809, 0.5) == pytest.approx(0.618, abs=1e-12)

    def test_perfect_predictions(self):
        confusion = confusion_counts([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert cohen_kappa(confusion) == pytest.approx(1.0)
        assert root_mean_squared_error([0.0, 1.0], [0.0, 1.0]) == 0.0
        assert pearson_correlation([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == pytest.approx(1.0)

    def test_anti_diagonal_regression_metrics(self):
        assert root_mean_squared_error([0.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0)
        assert pearson_correlation([0.0, 1.0], [1.0, 0.0]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("y_true, y_pred, sign", [
        ([0.6095693498571635, 0.31582937101109626], [0.04097352393619469, 0.016527635528529094], 1.0),
        ([0.3754479830433002, 0.4442389855582667], [0.9660620807840702, 0.562231842228457], -1.0),
    ])
    def test_pcc_of_two_points_stays_within_one(self, y_true, y_pred, sign):
        # Unclipped, these pairs round to +-1.0000000000000002.
        assert pearson_correlation(y_true, y_pred) == sign

    def test_pcc_undefined_for_constant_predictions(self):
        with pytest.raises(NumericalError, match="zero variance"):
            pearson_correlation([0.0, 1.0], [0.5, 0.5])

    def test_kappa_never_exceeds_accuracy(self):
        rng = np.random.default_rng(35)
        for _ in range(1000):
            k = rng.integers(2, 5)
            confusion = rng.integers(0, 20, size=(k, k))
            total = confusion.sum()
            if total == 0:
                continue
            p0 = np.trace(confusion) / total
            pe = np.sum(confusion.sum(axis=0) * confusion.sum(axis=1)) / total**2
            if pe == 0.0 or p0 == 1.0:
                continue
            assert cohen_kappa(confusion) <= p0 + 1e-12

    def test_empirical_marginals_used_for_chance(self):
        confusion = np.array([[40, 10], [10, 40]])
        # Marginals are 50/50, so chance agreement is 0.5 and p0 is 0.8.
        assert cohen_kappa(confusion) == pytest.approx((0.8 - 0.5) / 0.5)

    def test_evaluate_model_classification_payload(self):
        rng = np.random.default_rng(36)
        xt, xs, labels = separable_dataset(rng, n=32)
        model = tiny_model(seed=8, epochs=30, batch_size=8)
        train_model(model, xt, xs, labels, seed=9)
        metrics = evaluate_model(model, xt, xs, labels)
        assert set(metrics) == {"accuracy", "kappa", "confusion"}
        assert metrics["kappa"] <= metrics["accuracy"] + 1e-12
        assert np.sum(metrics["confusion"]) == 32
