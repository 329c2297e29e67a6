"""Architecture tests: streams, fusion, training behavior, evaluation metrics."""

import numpy as np
import pytest
from conftest import finite_difference_grads, max_relative_error

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
from spd_bci.nnet import forward_chain

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
        twice.backward(second)
        once.backward(second)
        for key, grad in once.grads().items():
            assert twice.grads()[key].tobytes() == grad.tobytes(), key


class TestTrainingMemory:
    def test_epoch_allocates_only_the_moments_beyond_the_model(self):
        # spatial_fc1 is 4,000 x 512, 16.4 MB of the 16.5 MB of parameters. An epoch
        # may allocate Adam's two moments and a little for activations; a weight
        # gradient built as a new array and then copied would add another 16.4 MB.
        import tracemalloc

        model = tiny_model(seed=8, variant="spatial", spatial_input_dim=4000,
                           spatial_hidden=512, spatial_dropout=0.5, epochs=1, batch_size=8)
        rng = np.random.default_rng(25)
        xs = rng.standard_normal((16, 4000))
        labels = np.tile([0, 1], 8)
        param_bytes = sum(p.nbytes for p in model.params().values())
        tracemalloc.start()
        try:
            train_model(model, None, xs, labels, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * param_bytes + 2 ** 21, f"peak {peak / 2 ** 20:.1f} MiB"


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

    def test_training_log_has_epoch_loss_and_metric(self, tmp_path):
        import json

        rng = np.random.default_rng(34)
        xt, xs, labels = separable_dataset(rng, n=16)
        model = tiny_model(seed=6, epochs=3, batch_size=8)
        log_path = tmp_path / "log.jsonl"
        train_model(model, xt, xs, labels, seed=7, log_path=log_path)
        lines = log_path.read_text().strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["epoch"] == 1
        assert set(first) == {"epoch", "loss", "accuracy"}

    @pytest.mark.parametrize("activation", ["sigmoid", "linear"])
    def test_logged_rmse_comes_from_the_pass_that_gave_the_loss(self, tmp_path, activation):
        # Under mse the epoch loss is the mean squared error of the training-mode
        # predictions, so the logged rmse of those same predictions squares to it.
        rng = np.random.default_rng(37)
        xt, xs, _ = separable_dataset(rng, n=20)
        targets = 1.0 / (1.0 + np.exp(-xs[:, 0]))
        model = tiny_model(
            seed=9, output_activation=activation, loss="mse", n_outputs=1, spatial_dropout=0.5,
            epochs=4, batch_size=8,
        )
        history = train_model(model, xt, xs, targets, seed=10, log_path=tmp_path / "log")
        for record in history:
            assert record["rmse"] ** 2 == pytest.approx(record["loss"], rel=1e-12, abs=0.0)

    def test_an_epoch_makes_one_forward_pass_over_the_data(self, tmp_path, monkeypatch):
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
        train_model(model, xt, xs, labels, seed=11, log_path=tmp_path / "log")
        assert len(calls) == epochs * -(-20 // batch_size)  # ceil(n / batch_size) per epoch
        assert all(calls)  # every pass is a training step

    def test_without_log_history_has_loss_only_and_same_parameters(self, tmp_path):
        rng = np.random.default_rng(35)
        xt, xs, labels = separable_dataset(rng, n=16)
        runs = []
        for log_path in (None, tmp_path / "log.jsonl"):
            model = tiny_model(seed=7, spatial_dropout=0.5, epochs=3, batch_size=8)
            history = train_model(model, xt, xs, labels, seed=8, log_path=log_path)
            runs.append((history, model))
        (bare, bare_model), (logged, logged_model) = runs
        assert [set(r) for r in bare] == [{"epoch", "loss"}] * 3
        assert [r["loss"] for r in bare] == [r["loss"] for r in logged]
        for key, value in logged_model.params().items():
            assert bare_model.params()[key].tobytes() == value.tobytes(), key
        for i in range(TINY["lstm_layers"]):
            bare_reg, logged_reg = (m.blocks[f"lstm{i}_reg"] for m in (bare_model, logged_model))
            assert bare_reg.running_mean.tobytes() == logged_reg.running_mean.tobytes()
            assert bare_reg.running_var.tobytes() == logged_reg.running_var.tobytes()


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
