"""Pipeline steps behind the CLI: preprocess, features, train, evaluate, ablate.

Every step reads and writes only deterministic artifacts (binary tensor
bundles, sorted-key JSON, CSV), so rerunning with the same config and
seed reproduces outputs byte for byte.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as dataio
from .config import PipelineConfig
from .errors import ConfigError, DataError, NumericalError
from .filters import (
    apply_filter_zero_phase,
    design_butterworth_bandpass,
    design_filter_bank,
    design_notch,
    filter_bank_decompose,
    minmax_normalize,
    zero_phase_sos,
)
from .geometry import (
    pca_spatial_filter,
    reduce_covariance,
    ridge_regularize,
    riemannian_mean,
    scm,
    tangent_vectorize,
)
from .model import (
    ArchitectureConfig,
    ModelSettings,
    TwoStreamModel,
    evaluate_model,
    train_model,
)
from .nnet import load_checkpoint, save_checkpoint
from .spectral import band_basis, build_feature_sequence, plan_stft

logger = logging.getLogger("spd_bci.pipeline")

SEGMENT_SUFFIX = ".eegs"


def _segment_files(directory: Path) -> list[Path]:
    if directory is None:
        raise ConfigError("config does not set the required data directory")
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"data directory {directory} does not exist")
    files = sorted(directory.glob(f"*{SEGMENT_SUFFIX}"))
    if not files:
        raise DataError(f"no {SEGMENT_SUFFIX} files in {directory}: empty dataset")
    return files


def run_preprocess(config: PipelineConfig) -> dict:
    """Broadband filter, notch, and min-max normalize every raw segment.

    Both filters are designed once, with their initial conditions, and
    reused for every segment.
    """
    broadband = zero_phase_sos(design_butterworth_bandpass(
        config.broadband_low, config.broadband_high, config.filter_order, config.fs
    ))
    notch = design_notch(config.fs, config.notch_hz)
    counts = {}
    for split, raw_dir in (("train", config.raw_train_dir), ("test", config.raw_test_dir)):
        if raw_dir is None:
            continue
        out_dir = config.work_dir / "preprocessed" / split
        out_dir.mkdir(parents=True, exist_ok=True)
        n_ok = 0
        for path in _segment_files(raw_dir):
            try:
                segment = dataio.read_segment(path)
                if segment.fs != config.fs:
                    raise DataError(
                        f"{path}: sampling rate {segment.fs} Hz does not match "
                        f"profile rate {config.fs} Hz"
                    )
                try:
                    segment = apply_filter_zero_phase(broadband, segment)
                    segment = apply_filter_zero_phase(notch, segment)
                    segment = minmax_normalize(segment, constant_channel=config.constant_channel)
                except ValueError as exc:
                    raise DataError(f"{path}: {exc}") from exc
                dataio.write_segment(out_dir / path.name, segment)
                n_ok += 1
            except Exception as exc:
                if not config.continue_on_error:
                    raise
                logger.error("skipping %s: %s", path, exc)
        counts[split] = n_ok
    if not counts:
        raise ConfigError("config sets neither raw_train_dir nor raw_test_dir")
    return counts


def _load_split_segments(config: PipelineConfig, split: str):
    in_dir = config.work_dir / "preprocessed" / split
    segments = []
    expected_samples = int(round(config.trial_seconds * config.fs))
    for path in _segment_files(in_dir):
        segment = dataio.read_segment(path)
        if segment.fs != config.fs:
            raise DataError(
                f"{path}: sampling rate {segment.fs} Hz, profile expects {config.fs} Hz"
            )
        if segment.n_channels != config.n_channels:
            raise DataError(
                f"{path}: {segment.n_channels} channels, profile expects {config.n_channels}"
            )
        if segment.n_samples != expected_samples:
            raise DataError(
                f"{path}: {segment.n_samples} samples, profile expects {expected_samples}"
            )
        segments.append(segment)
    return segments


def fit_spatial_reducers(train_scms: np.ndarray, rank: int):
    """Per-band PCA filters and Riemannian-mean references from training SCMs."""
    n_bands = train_scms.shape[1]
    filters, references = [], []
    for b in range(n_bands):
        w = pca_spatial_filter(train_scms[:, b], rank)
        filters.append(w)
        references.append(riemannian_mean(reduce_covariance(w, train_scms[:, b])))
    return filters, references


def spatial_features_for(scms: np.ndarray, filters, references=None) -> np.ndarray:
    """Concatenated per-band tangent vectors for each trial.

    Each band is reduced by its filter and projected at its reference.
    ``references=None`` re-centres every band at the Riemannian mean of
    all its reduced trials, so a trial's vector depends on the whole set
    but not on its order.
    """
    reduced = [reduce_covariance(w, scms[:, b]) for b, w in enumerate(filters)]  # H x (P, R, R)
    if references is None:
        references = [riemannian_mean(band) for band in reduced]
    return np.concatenate(
        [tangent_vectorize(ref, band) for ref, band in zip(references, reduced)], axis=1
    )


def run_features(config: PipelineConfig) -> dict:
    """Temporal feature sequences and spatial tangent features for both splits."""
    bank = design_filter_bank(config.bands, config.fs)
    plan = plan_stft(config.trial_seconds, config.fs)
    bases = [band_basis(plan, band) for band in bank.bands]
    out_dir = config.work_dir / "features"
    out_dir.mkdir(parents=True, exist_ok=True)

    splits = {}
    for split in ("train", "test"):
        temporal, scms, labels = [], [], []
        # One filter-bank pass per trial feeds both streams.
        for segment in _load_split_segments(config, split):
            band_segments = filter_bank_decompose(segment, bank)
            features = build_feature_sequence(band_segments, bases, plan)
            if features.values.shape != (plan.n_windows, config.temporal_feature_dim):
                raise DataError(
                    f"temporal features have shape {features.values.shape}, profile "
                    f"expects ({plan.n_windows}, {config.temporal_feature_dim})"
                )
            temporal.append(features.values)
            band_scms = [scm(band.samples) for band in band_segments]
            if config.scm_ridge:
                band_scms = [ridge_regularize(c) for c in band_scms]
            scms.append(band_scms)
            labels.append(np.nan if segment.label is None else float(segment.label))
        splits[split] = {
            "temporal": np.stack(temporal),
            "labels": np.asarray(labels),
            "scms": np.asarray(scms),  # (P, H, N, N)
        }

    n_test = len(splits["test"]["labels"])
    if config.reference_policy == "test-mean" and n_test < 2:
        raise DataError(
            f"{config.work_dir / 'preprocessed' / 'test'} holds {n_test} test trial; "
            "reference_policy = test-mean re-centres the test split at its own mean, which "
            "maps a single trial to zero; reference_policy = train-mean projects a single trial"
        )
    filters, references = fit_spatial_reducers(splits["train"]["scms"], config.rank)
    expected_dim = config.spatial_feature_dim()
    info = {}
    for split, bundle in splits.items():
        recentre = split == "test" and config.reference_policy == "test-mean"
        spatial = spatial_features_for(bundle["scms"], filters, None if recentre else references)
        if spatial.shape[1] != expected_dim:
            raise DataError(
                f"spatial features have length {spatial.shape[1]}, profile expects {expected_dim}"
            )
        dataio.write_tensors(
            out_dir / f"{split}.spdt",
            {
                "temporal": bundle["temporal"],
                "spatial": spatial,
                "labels": bundle["labels"],
                "scms": bundle["scms"],
            },
        )
        info[split] = {
            "n_segments": bundle["temporal"].shape[0],
            "temporal_dim": bundle["temporal"].shape[2],
            "spatial_dim": spatial.shape[1],
        }
    spatial_model = {}
    for b, (w, ref) in enumerate(zip(filters, references)):
        spatial_model[f"filter_{b}"] = w
        spatial_model[f"reference_{b}"] = ref
    dataio.write_tensors(out_dir / "spatial_model.spdt", spatial_model)
    return info


def _architecture(config: PipelineConfig, label: str, temporal_dim: int,
                  spatial_dim: int) -> ArchitectureConfig:
    """The model that ``config`` describes under the variant ``label``."""
    settings = {f.name: getattr(config, f.name) for f in fields(ModelSettings)}
    return ArchitectureConfig(**{**settings, "variant": label}, n_outputs=config.n_outputs,
                              temporal_input_dim=temporal_dim, spatial_input_dim=spatial_dim)


def _load_features(config: PipelineConfig, split: str) -> dict:
    path = config.work_dir / "features" / f"{split}.spdt"
    if not path.is_file():
        raise DataError(f"feature file {path} does not exist; run the features step first")
    return dataio.read_tensors(path)


def _checkpoint_path(config: PipelineConfig, label: str) -> Path:
    return config.work_dir / "model" / f"model_{label}.ckpt"


def run_train(config: PipelineConfig, jobs: int = 1) -> dict:
    """Train the configured variant, or sweep the retained rank in grid mode."""
    train = _load_features(config, "train")
    labels = train["labels"]
    if np.any(np.isnan(labels)):
        raise DataError("training segments are missing labels")
    if config.rank_mode == "grid":
        return _run_rank_grid(config, train, jobs=jobs)

    label = config.variant
    arch = _architecture(config, label, train["temporal"].shape[2], train["spatial"].shape[1])
    model = TwoStreamModel(arch, seed=config.seed)
    model_dir = config.work_dir / "model"
    model_dir.mkdir(parents=True, exist_ok=True)
    history = train_model(
        model, train["temporal"], train["spatial"], labels,
        seed=config.seed,
        log_path=model_dir / f"train_log_{label}.jsonl",
    )
    save_checkpoint(_checkpoint_path(config, label), model.state())
    return {"variant": label, "epochs": len(history), "final_loss": history[-1]["loss"]}


def _grid_point(payload) -> dict:
    """Train and score one rank candidate; module-level so executors can pickle it."""
    (config, rank, fit_idx, val_idx, temporal, scms, labels) = payload
    filters, references = fit_spatial_reducers(scms[fit_idx], rank)
    spatial_fit = spatial_features_for(scms[fit_idx], filters, references)
    spatial_val = spatial_features_for(scms[val_idx], filters, references)
    arch = _architecture(config, config.variant, temporal.shape[2], spatial_fit.shape[1])
    model = TwoStreamModel(arch, seed=config.seed)
    train_model(model, temporal[fit_idx], spatial_fit, labels[fit_idx], seed=config.seed)
    metrics = evaluate_model(model, temporal[val_idx], spatial_val, labels[val_idx])
    row = {"rank": rank}
    for key in ("accuracy", "kappa", "rmse", "pcc"):
        if key in metrics:
            row[key] = metrics[key]
    return row


def _validation_split(labels: np.ndarray, classification: bool, seed: int):
    """Seeded (validation, fit) indices, 10% for validation and at least one trial.

    For classification the split is stratified: each class gives a tenth
    of its trials, at least one, so every class is scored.
    """
    order = np.random.default_rng(seed).permutation(len(labels))
    if not classification:
        n_val = max(1, len(labels) // 10)
        return order[:n_val], order[n_val:]
    is_val = np.zeros(len(labels), dtype=bool)
    for cls in np.unique(labels):
        members = order[labels[order] == cls]
        is_val[members[:max(1, len(members) // 10)]] = True
    return order[is_val[order]], order[~is_val[order]]


def _run_rank_grid(config: PipelineConfig, train: dict, jobs: int = 1) -> dict:
    """Sweep R over [1, N-1] on a 90/10 split of the training data.

    A kappa or PCC that the validation split leaves undefined is written
    as null. ``best_rank`` is the lowest rank with the highest defined
    score, accuracy or PCC (null if no score is defined).
    """
    labels = train["labels"]
    classification = config.task == "classification"
    val_idx, fit_idx = _validation_split(labels, classification, config.seed)
    ranks = list(range(1, config.n_channels))
    if not ranks:
        raise ConfigError("grid mode needs at least two channels")
    payloads = [
        (config, rank, fit_idx, val_idx, train["temporal"], train["scms"], labels)
        for rank in ranks
    ]
    if jobs > 1:
        # Imported here: no other step pays for loading the process pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_grid_point, payloads))
    else:
        rows = [_grid_point(p) for p in payloads]
    rows.sort(key=lambda r: r["rank"])
    score_key = "accuracy" if classification else "pcc"
    scored = [r for r in rows if r[score_key] is not None]
    best = max(scored, key=lambda r: r[score_key])["rank"] if scored else None
    result = {"rows": rows, "best_rank": best}
    out_path = config.work_dir / "grid_metrics.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return result


def _evaluate_variant(config: PipelineConfig, label: str, test: dict) -> dict:
    path = _checkpoint_path(config, label)
    if not path.is_file():
        raise DataError(f"missing checkpoint for variant {label!r}: {path}")
    tensors = load_checkpoint(path)
    arch = _architecture(config, label, test["temporal"].shape[2], test["spatial"].shape[1])
    model = TwoStreamModel(arch, seed=None)
    try:
        model.load_params(tensors)
    except ValueError as exc:
        raise ConfigError(f"checkpoint {path} does not match this profile: {exc}") from exc
    labels = test["labels"]
    if np.any(np.isnan(labels)):
        raise DataError("test segments are missing labels")
    metrics = evaluate_model(model, test["temporal"], test["spatial"], labels)
    undefined = [key for key, value in metrics.items() if value is None]
    if undefined:
        raise NumericalError(f"{', '.join(undefined)} undefined on the test split ({path})")
    return metrics


def run_evaluate(config: PipelineConfig) -> dict:
    """Score the trained model on the test split and write metrics JSON."""
    test = _load_features(config, "test")
    metrics = _evaluate_variant(config, config.variant, test)
    metrics = {
        "profile": config.profile,
        "variant": config.variant,
        "task": config.task,
        "n_test": int(test["labels"].shape[0]),
        **metrics,
    }
    out_path = config.work_dir / "metrics.json"
    out_path.write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return metrics


def run_ablate(config: PipelineConfig) -> list[dict]:
    """Evaluate every configured variant and tabulate one row per variant per metric."""
    test = _load_features(config, "test")
    rows = []
    for label in config.ablate_variants:
        metrics = _evaluate_variant(config, label, test)
        for key in ("accuracy", "kappa", "rmse", "pcc"):
            if key in metrics:
                rows.append({"variant": label, "metric": key, "value": metrics[key]})
    out_path = config.work_dir / "ablation.csv"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["variant", "metric", "value"])
        writer.writeheader()
        writer.writerows(rows)
    return rows
