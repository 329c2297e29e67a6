"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion (a test that reaches its print has met every assertion above it).
"""

import json
import time

import numpy as np
import pytest
from conftest import (
    finite_difference_grads,
    max_relative_error,
    random_invertible,
    random_spd,
    random_symmetric,
)

from spd_bci.data import SynthSpec, synth_band_signals, synth_mixed_task, synth_spd_classes
from spd_bci.filters import design_filter_bank, filter_bank_decompose
from spd_bci.geometry import (
    MdrmClassifier,
    airm_distance,
    euclidean_mean,
    exp_map,
    log_map,
    riemannian_mean,
    scm,
    tangent_vectorize,
    upper_vectorize,
)
from spd_bci.model import (
    ArchitectureConfig,
    TwoStreamModel,
    cohen_kappa,
    encode_targets,
    kappa_from_agreement,
    pearson_correlation,
    root_mean_squared_error,
    train_model,
)
from spd_bci.nnet import Attention, BatchNorm, Dense, Lstm
from spd_bci.pipeline import fit_spatial_reducers, spatial_features_for
from spd_bci.spectral import HALF_LN_2PI_E, build_feature_sequence, de_feature, plan_stft


def report(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS in {time.perf_counter() - started:.1f}s")


def test_criterion_1_geometry_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)

    # Affine invariance of the geodesic distance, 100 random 8x8 pairs.
    worst = 0.0
    for _ in range(100):
        c1 = random_spd(rng, 8, 0.2, 4.0)
        c2 = random_spd(rng, 8, 0.2, 4.0)
        w = random_invertible(rng, 8)
        d = airm_distance(c1, c2)
        worst = max(worst, abs(d - airm_distance(w.T @ c1 @ w, w.T @ c2 @ w)) / d)
    assert worst <= 1e-8

    # Log/exp round trip.
    worst = 0.0
    for _ in range(100):
        c_ref = random_spd(rng, 8, 0.2, 4.0)
        c = random_spd(rng, 8, 0.2, 4.0)
        back = exp_map(c_ref, log_map(c_ref, c))
        worst = max(worst, np.linalg.norm(back - c) / np.linalg.norm(c))
    assert worst <= 1e-9

    # Half-vectorization is an isometry of the Frobenius norm.
    worst = 0.0
    for _ in range(100):
        s = random_symmetric(rng, 8)
        worst = max(
            worst,
            abs(np.linalg.norm(upper_vectorize(s)) - np.linalg.norm(s, "fro"))
            / np.linalg.norm(s, "fro"),
        )
    assert worst <= 1e-12

    # Triangle inequality on 1000 random triples.
    for _ in range(1000):
        a, b, c = (random_spd(rng, 8, 0.2, 4.0) for _ in range(3))
        assert airm_distance(a, c) <= airm_distance(a, b) + airm_distance(b, c) + 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, "geometry invariant suite", started)


def test_criterion_2_riemannian_mean():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)

    # Convergence within 50 iterations on 100 well-conditioned sets of 20.
    for _ in range(100):
        mats = np.stack([random_spd(rng, 8, 0.5, 2.0) for _ in range(20)])
        _, info = riemannian_mean(mats, tol=1e-9, max_iter=50, return_info=True)
        assert info.converged and info.grad_norm < 1e-9
        assert info.iterations <= 50

    # Two-point determinant property.
    c1, c2 = random_spd(rng, 8, 0.2, 4.0), random_spd(rng, 8, 0.2, 4.0)
    mean = riemannian_mean(np.stack([c1, c2]))
    expected = np.sqrt(np.linalg.det(c1) * np.linalg.det(c2))
    assert abs(np.linalg.det(mean) - expected) / expected <= 1e-6

    # Swelling demonstration on the crossed diagonal pair.
    pair = np.stack([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])])
    assert np.linalg.det(euclidean_mean(pair)) == pytest.approx(1.5625)
    assert np.linalg.det(riemannian_mean(pair)) == pytest.approx(1.0, abs=1e-6)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, "Riemannian mean", started)


def test_criterion_3_tangent_locality():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)
    for scale, bound in ((0.1, 0.05), (0.01, 0.005)):
        rel_errors = []
        for _ in range(100):
            c_ref = random_spd(rng, 6)
            ci = exp_map(c_ref, scale * random_symmetric(rng, 6))
            cj = exp_map(c_ref, scale * random_symmetric(rng, 6))
            geodesic = airm_distance(ci, cj)
            flat = np.linalg.norm(
                tangent_vectorize(c_ref, ci) - tangent_vectorize(c_ref, cj)
            )
            rel_errors.append(abs(geodesic - flat) / geodesic)
        assert np.mean(rel_errors) < bound
    report(3, "tangent-space locality", started)


def test_criterion_4_feature_correctness():
    started = time.perf_counter()

    # Analytic DE of a unit-variance Gaussian. The reference 1.41894 is the
    # five-decimal rounding of 0.5*ln(2*pi*e) = 1.4189385332..., which sits
    # 1.47e-6 from its own rounded print, so the analytic check is pinned to
    # the full-precision constant instead.
    assert HALF_LN_2PI_E == pytest.approx(0.5 * (np.log(2.0 * np.pi) + 1.0), abs=1e-12)
    assert round(HALF_LN_2PI_E, 5) == 1.41894

    # Empirical DE on band-limited unit-variance noise, 100-window average.
    from spd_bci.filters import EegSegment, apply_filter_zero_phase, design_butterworth_bandpass

    fs = 200.0
    rng = np.random.default_rng(1004)
    sos = design_butterworth_bandpass(8.0, 13.0, 5, fs)
    raw = EegSegment(rng.standard_normal((1, int(51 * fs))), fs)
    filtered = apply_filter_zero_phase(sos, raw)
    scaled = EegSegment(filtered.samples / filtered.samples.std(), fs)
    plan = plan_stft(51.0, fs)
    assert plan.n_windows == 101
    de = de_feature(scaled, plan, (7.0, 14.0))
    assert de.mean() == pytest.approx(HALF_LN_2PI_E, abs=0.1)

    # Window-count rule.
    assert plan_stft(8.0, fs).n_windows == 15
    assert plan_stft(4.0, fs).n_windows == 7

    # Dataset-scale dimensions: 5 bands x 62 channels -> 620 per window;
    # 5 bands at rank 48 -> 5880 concatenated tangent features.
    bank = design_filter_bank(
        [(1.0, 3.0), (4.0, 7.0), (8.0, 13.0), (14.0, 30.0), (31.0, 50.0)], fs
    )
    segment = EegSegment(rng.standard_normal((62, int(8 * fs))), fs)
    features = build_feature_sequence(
        filter_bank_decompose(segment, bank), bank.bands, plan_stft(8.0, fs)
    )
    assert features.values.shape == (15, 620)

    scms = np.stack(
        [[random_spd(rng, 62, 0.5, 2.0) for _ in range(5)] for _ in range(6)]
    )
    filters, references = fit_spatial_reducers(scms, rank=48)
    spatial = spatial_features_for(scms, filters, references)
    assert spatial.shape == (6, 5880)

    report(4, "feature correctness", started)


def _model_loss_closure(model, xt, xs, targets):
    def loss():
        logits = model.forward(xt, xs, train=True)
        return model.loss_and_grad(logits, targets)[0]

    return loss


def test_criterion_5_gradient_checks():
    started = time.perf_counter()

    def check(block, x, seed):
        projection = np.random.default_rng(seed + 9999).standard_normal(
            block.forward(x, train=True).shape
        )

        def loss():
            return float(np.sum(block.forward(x, train=True) * projection))

        loss()
        block.backward(projection)
        numeric = finite_difference_grads(loss, block.params)
        return max(
            max_relative_error(block.grads[k], numeric[k]) for k in block.params
        )

    for seed in range(5):
        rng = np.random.default_rng(seed)
        assert check(Dense(4, 3, "tanh", rng=rng), rng.standard_normal((4, 4)), seed) < 1e-4
        assert check(
            Dense(4, 3, "softmax", rng=rng), rng.standard_normal((4, 4)), seed
        ) < 1e-4
        assert check(Lstm(3, 4, rng=rng), rng.standard_normal((2, 3, 3)), seed) < 1e-4
        assert check(Attention(4, rng=rng), rng.standard_normal((2, 3, 4)), seed) < 1e-4
        assert check(BatchNorm(3), rng.standard_normal((6, 3)), seed) < 1e-4

    # Full fused model on a tiny configuration: hidden 8, three windows.
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        config = ArchitectureConfig(
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
        model = TwoStreamModel(config, seed=seed)
        xt = rng.standard_normal((4, 3, 5))
        xs = rng.standard_normal((4, 6))
        targets = encode_targets(rng.integers(0, 2, size=4), config)
        logits = model.forward(xt, xs, train=True)
        _, dlogits = model.loss_and_grad(logits, targets)
        model.backward(dlogits)
        analytic = {k: v.copy() for k, v in model.grads().items()}
        numeric = finite_difference_grads(
            _model_loss_closure(model, xt, xs, targets), model.params()
        )
        for key, grad in analytic.items():
            err = max_relative_error(grad, numeric[key])
            assert err < 1e-4, f"seed {seed}, tensor {key}: rel err {err:.2e}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, "gradient checks", started)


SMALL_NET = dict(
    lstm_layers=3,
    lstm_hidden=16,
    temporal_embedding_dim=16,
    spatial_hidden=32,
    spatial_embedding_dim=16,
    encoder_hidden=8,
    fusion_hidden=32,
)

MIXED_TASK = dict(
    tone_amp=1.0,
    burst_asym_mean=0.38,
    burst_asym_sigma=0.40,
    corr_mean=0.43,
    corr_sigma=0.40,
)

MIXED_BANDS = [(8.0, 13.0), (14.0, 20.0)]


def _sequence_features(segments, bands, fs):
    bank = design_filter_bank(bands, fs)
    plan = plan_stft(segments[0].duration, fs)
    xt = np.stack(
        [
            build_feature_sequence(
                filter_bank_decompose(seg, bank), bank.bands, plan
            ).values
            for seg in segments
        ]
    )
    labels = np.array([seg.label for seg in segments])
    return xt, labels


def _tangent_features_from_segments(train_segments, test_segments):
    train_covs = np.stack([scm(s.samples) for s in train_segments])
    test_covs = np.stack([scm(s.samples) for s in test_segments])
    reference = riemannian_mean(train_covs)
    xs_train = np.stack([tangent_vectorize(reference, c) for c in train_covs])
    xs_test = np.stack([tangent_vectorize(reference, c) for c in test_covs])
    return xs_train, xs_test, train_covs, test_covs


def test_criterion_6_synthetic_classification():
    started = time.perf_counter()

    # (a) SPD-cluster task: MDRM and the tangent-space spatial stream.
    covariances = [np.diag([2.0, 1.0, 1.0, 1.0]), np.diag([1.0, 1.0, 1.0, 2.0])]
    train_segments = synth_spd_classes(
        SynthSpec(covariances, n_samples=500, fs=200.0, segments_per_class=60, seed=61)
    )
    test_segments = synth_spd_classes(
        SynthSpec(covariances, n_samples=500, fs=200.0, segments_per_class=100, seed=62)
    )
    y_train = np.array([s.label for s in train_segments])
    y_test = np.array([s.label for s in test_segments])
    xs_train, xs_test, train_covs, test_covs = _tangent_features_from_segments(
        train_segments, test_segments
    )

    mdrm = MdrmClassifier().fit(train_covs, y_train)
    mdrm_accuracy = np.mean(mdrm.predict(test_covs) == y_test)
    assert mdrm_accuracy >= 0.90

    config = ArchitectureConfig(
        temporal_input_dim=1, spatial_input_dim=xs_train.shape[1], n_outputs=2,
        variant="spatial", epochs=40, batch_size=32, **SMALL_NET,
    )
    spatial_model = TwoStreamModel(config, seed=7)
    train_model(spatial_model, None, xs_train, y_train, seed=8)
    spatial_accuracy = np.mean(spatial_model.predict(None, xs_test) == y_test)
    assert spatial_accuracy >= 0.95

    # (b) band-power task: the temporal stream alone.
    tones = [[(10.0, 2.0)], [(20.0, 2.0)]]
    train_segments = synth_band_signals(
        tones, n_channels=2, n_samples=256, fs=128.0,
        noise_sigma=0.2, segments_per_class=100, seed=63,
    )
    test_segments = synth_band_signals(
        tones, n_channels=2, n_samples=256, fs=128.0,
        noise_sigma=0.2, segments_per_class=60, seed=64,
    )
    bands = [(8.0, 13.0), (18.0, 22.0)]
    xt_train, y_train = _sequence_features(train_segments, bands, 128.0)
    xt_test, y_test = _sequence_features(test_segments, bands, 128.0)
    config = ArchitectureConfig(
        temporal_input_dim=xt_train.shape[2], spatial_input_dim=1, n_outputs=2,
        variant="temporal", epochs=40, batch_size=32, **SMALL_NET,
    )
    temporal_model = TwoStreamModel(config, seed=9)
    train_model(temporal_model, xt_train, None, y_train, seed=10)
    temporal_accuracy = np.mean(temporal_model.predict(xt_test, None) == y_test)
    assert temporal_accuracy >= 0.95

    # (c) mixed task with two orthogonal weak cues: fusion must not lose to
    # either stream, while each stream alone stays capped.
    train_segments = synth_mixed_task(n_segments=320, seed=100, **MIXED_TASK)
    test_segments = synth_mixed_task(n_segments=200, seed=200, **MIXED_TASK)
    xt_train, y_train = _sequence_features(train_segments, MIXED_BANDS, 128.0)
    xt_test, y_test = _sequence_features(test_segments, MIXED_BANDS, 128.0)
    xs_train, xs_test, _, _ = _tangent_features_from_segments(train_segments, test_segments)

    accuracies = {}
    for variant in ("temporal", "spatial", "fused"):
        config = ArchitectureConfig(
            temporal_input_dim=xt_train.shape[2], spatial_input_dim=xs_train.shape[1],
            n_outputs=2, variant=variant, epochs=60, batch_size=32, **SMALL_NET,
        )
        model = TwoStreamModel(config, seed=5)
        train_model(model, xt_train, xs_train, y_train, seed=6)
        accuracies[variant] = float(np.mean(model.predict(xt_test, xs_test) == y_test))

    assert accuracies["temporal"] <= 0.85
    assert accuracies["spatial"] <= 0.85
    assert accuracies["fused"] >= max(accuracies["temporal"], accuracies["spatial"]) - 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(6, "synthetic classification", started)
    print(
        f"  (a) MDRM {mdrm_accuracy:.3f}, spatial {spatial_accuracy:.3f}; "
        f"(b) temporal {temporal_accuracy:.3f}; (c) {accuracies}"
    )


def test_criterion_7_metrics():
    started = time.perf_counter()

    assert kappa_from_agreement(0.809, 0.5) == pytest.approx(0.618, abs=1e-12)

    rng = np.random.default_rng(1007)
    checked = 0
    while checked < 1000:
        k = int(rng.integers(2, 6))
        confusion = rng.integers(0, 25, size=(k, k))
        total = confusion.sum()
        if total == 0:
            continue
        p0 = np.trace(confusion) / total
        pe = np.sum(confusion.sum(axis=0) * confusion.sum(axis=1)) / total**2
        if pe == 0.0:
            continue
        assert cohen_kappa(confusion) <= p0 + 1e-12
        checked += 1

    assert cohen_kappa(np.diag([7, 5, 3])) == 1.0
    assert root_mean_squared_error([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert root_mean_squared_error([0.0, 1.0], [1.0, 0.0]) == 1.0
    assert pearson_correlation([0.0, 1.0], [1.0, 0.0]) == -1.0
    assert pearson_correlation([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]) == 1.0

    report(7, "metrics", started)


def test_criterion_8_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    from test_cli import write_config, write_synthetic_dataset
    from spd_bci.cli import main

    payloads = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        write_synthetic_dataset(root, seed=0)
        config = write_config(root)
        for command in ("preprocess", "features", "train", "evaluate"):
            assert main([command, "--config", str(config)]) == 0
        payloads.append((root / "work" / "metrics.json").read_bytes())
    assert payloads[0] == payloads[1]
    metrics = json.loads(payloads[0])
    assert metrics["task"] == "classification"
    report(8, "pipeline determinism", started)
