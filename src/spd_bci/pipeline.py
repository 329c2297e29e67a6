"""Pipeline steps behind the CLI: preprocess, features, train, evaluate, ablate.

Every step reads and writes only deterministic artifacts (binary tensor
bundles, sorted-key JSON, CSV), so rerunning with the same config and
seed reproduces outputs byte for byte.

One parallel map runs each band's spatial geometry (PCA on the training
SCMs, congruence reduction, Karcher mean and tangent vectors) and each
rank of grid mode as one task on a thread pool of min(items, usable CPUs)
workers, with the OpenBLAS that numpy loaded held at one thread. So the
feature files and ``grid_metrics.json`` do not depend on the CPU count.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
    _mean_and_tangent_vectors,
    pca_spatial_filter,
    reduce_covariance,
    ridge_regularize,
    scm,
    tangent_vectorize,
)
from .model import (
    METRICS,
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
                    x = apply_filter_zero_phase(broadband, segment.samples)
                    x = apply_filter_zero_phase(notch, x)
                    x = minmax_normalize(x, constant_channel=config.constant_channel)
                    segment = segment.with_samples(x)
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
    """The split's preprocessed trials, read and checked one at a time.

    A trial whose rate, channel count or length is not the profile's is a
    DataError naming its file, and so is a trial without a label or, for
    classification, with a label outside [0, n_classes). ``read_segment``
    has already rejected a non-finite label.
    """
    in_dir = config.work_dir / "preprocessed" / split
    expected_samples = int(round(config.trial_seconds * config.fs))
    classes = range(config.n_classes) if config.task == "classification" else None
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
        if segment.label is None:
            raise DataError(f"{path}: trial has no label")
        if classes is not None and segment.label not in classes:
            raise DataError(
                f"{path}: label {segment.label} is not a class in [0, {config.n_classes})"
            )
        yield segment


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_thread_controls():
    """(set, get) thread-count functions of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = [line.split()[-1] for line in maps if "openblas" in line]
    except OSError:
        paths = []
    libs_dir = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    paths += sorted(str(p) for p in libs_dir.glob("*openblas*"))
    for path in dict.fromkeys(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def _one_blas_thread(controls):
    """Hold OpenBLAS at one thread; restore the previous count on exit, also on error."""
    setter, getter = controls
    previous = getter()
    setter(1)
    try:
        yield
    finally:
        setter(previous)


_pool_thread = threading.local()  # ``active`` is set in the threads of _parallel_map's pool


def _parallel_map(func, items) -> list:
    """``func(item)`` for each item, results in item order.

    Items run on a thread pool of min(items, usable CPUs) workers with
    OpenBLAS held at one thread, also on one CPU, so an item's numbers do
    not depend on the worker or CPU count. Called from a pool thread, the
    map runs its items in a loop there, so a process holds one pool at
    most. Without a thread control the items run in a loop at the
    library's thread count. A failure is the first failing item's.
    """
    controls = _openblas_thread_controls()
    if controls is None or getattr(_pool_thread, "active", False):
        return [func(item) for item in items]
    workers = min(len(items), _usable_cpus())
    with _one_blas_thread(controls), ThreadPoolExecutor(
        workers, initializer=setattr, initargs=(_pool_thread, "active", True)
    ) as pool:
        return list(pool.map(func, items))


def _map_bands(func, bands: list, per_band: list) -> list:
    """``func(*args)`` for each band's args, through :func:`_parallel_map`.

    A failure raises a :class:`NumericalError` naming the band's index and Hz edges.
    """
    def run(b: int):
        try:
            return func(*per_band[b])
        except NumericalError as exc:
            band = bands[b]
            raise NumericalError(f"band {b} ({band.low_hz:g}-{band.high_hz:g} Hz): {exc}") from exc

    return _parallel_map(run, range(len(per_band)))


def _fit_band(band_scms: np.ndarray, rank: int):
    w = pca_spatial_filter(band_scms, rank)
    return (w, *_mean_and_tangent_vectors(reduce_covariance(w, band_scms)))


def fit_spatial_reducers(train_scms: np.ndarray, bands: list, rank: int):
    """Per-band PCA filters, Riemannian-mean references and training tangent vectors.

    ``bands`` (the band list) names a band that fails. The third value is
    the concatenated per-band tangent vectors of the training trials at
    their references, as :func:`spatial_features_for` gives them, taken
    from each mean's last solver state.
    """
    per_band = [(train_scms[:, b], rank) for b in range(train_scms.shape[1])]
    filters, references, vectors = zip(*_map_bands(_fit_band, bands, per_band))
    return list(filters), list(references), np.concatenate(vectors, axis=1)


def _band_features(band_scms: np.ndarray, w: np.ndarray, reference) -> np.ndarray:
    reduced = reduce_covariance(w, band_scms)
    if reference is None:
        return _mean_and_tangent_vectors(reduced)[1]
    return tangent_vectorize(reference, reduced)


def spatial_features_for(scms: np.ndarray, bands: list, filters, references=None) -> np.ndarray:
    """Concatenated per-band tangent vectors for each trial.

    Each band is reduced by its filter and projected at its reference.
    ``references=None`` re-centres every band at the Riemannian mean of
    all its reduced trials, so a trial's vector depends on the whole set
    but not on its order.
    """
    if references is None:
        references = [None] * len(filters)
    per_band = [(scms[:, b], w, ref) for b, (w, ref) in enumerate(zip(filters, references))]
    return np.concatenate(_map_bands(_band_features, bands, per_band), axis=1)


def run_features(config: PipelineConfig) -> dict:
    """Temporal feature sequences and spatial tangent features for both splits."""
    bank = design_filter_bank(config.bands, config.fs)
    plan = plan_stft(config.trial_seconds, config.fs)
    bases = [band_basis(plan, band) for band in bank.bands]
    test_dir = config.work_dir / "preprocessed" / "test"
    # Test-mean re-centring needs two test trials; counted before any trial is filtered.
    n_test = len(_segment_files(test_dir))
    if config.reference_policy == "test-mean" and n_test < 2:
        raise DataError(
            f"{test_dir} holds {n_test} test trial; "
            "reference_policy = test-mean re-centres the test split at its own mean, which "
            "maps a single trial to zero; reference_policy = train-mean projects a single trial"
        )
    out_dir = config.work_dir / "features"
    out_dir.mkdir(parents=True, exist_ok=True)

    splits = {}
    for split in ("train", "test"):
        temporal, scms, labels = [], [], []
        # One filter-bank pass per trial feeds both streams.
        for segment in _load_split_segments(config, split):
            band_signals = filter_bank_decompose(segment, bank)
            temporal.append(build_feature_sequence(band_signals, bases, plan).values)
            band_scms = [scm(x) for x in band_signals]
            if config.scm_ridge:
                band_scms = [ridge_regularize(c) for c in band_scms]
            scms.append(band_scms)
            labels.append(float(segment.label))
        splits[split] = {
            "temporal": np.stack(temporal),
            "labels": np.asarray(labels),
            "scms": np.asarray(scms),  # (P, H, N, N)
        }

    filters, references, splits["train"]["spatial"] = fit_spatial_reducers(
        splits["train"]["scms"], config.bands, config.rank
    )
    recentre = config.reference_policy == "test-mean"
    splits["test"]["spatial"] = spatial_features_for(
        splits["test"]["scms"], config.bands, filters, None if recentre else references
    )
    info = {}
    for split, bundle in splits.items():
        spatial = bundle["spatial"]
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


def run_train(config: PipelineConfig) -> dict:
    """Train the configured variant, or sweep the retained rank in grid mode."""
    train = _load_features(config, "train")
    if config.rank_mode == "grid":
        return _run_rank_grid(config, train)

    label = config.variant
    arch = _architecture(config, label, train["temporal"].shape[2], train["spatial"].shape[1])
    model = TwoStreamModel(arch, seed=config.seed)
    model_dir = config.work_dir / "model"
    model_dir.mkdir(parents=True, exist_ok=True)
    history = train_model(
        model, train["temporal"], train["spatial"], train["labels"],
        seed=config.seed,
        log_path=model_dir / f"train_log_{label}.jsonl",
    )
    save_checkpoint(_checkpoint_path(config, label), model.state())
    return {"variant": label, "epochs": len(history), "final_loss": history[-1]["loss"]}


def _grid_point(config: PipelineConfig, train: dict, fit_idx, val_idx, rank: int) -> dict:
    """Train on the fit trials at ``rank`` and score the validation trials."""
    temporal, scms, labels = train["temporal"], train["scms"], train["labels"]
    try:
        filters, references, spatial_fit = fit_spatial_reducers(scms[fit_idx], config.bands, rank)
        spatial_val = spatial_features_for(scms[val_idx], config.bands, filters, references)
    except NumericalError as exc:
        # Say, a rank above that of the SCMs: the row records the band's error, no scores.
        return {"rank": rank, "error": str(exc), **dict.fromkeys(METRICS[config.task])}
    arch = _architecture(config, config.variant, temporal.shape[2], spatial_fit.shape[1])
    model = TwoStreamModel(arch, seed=config.seed)
    train_model(model, temporal[fit_idx], spatial_fit, labels[fit_idx], seed=config.seed)
    metrics = evaluate_model(model, temporal[val_idx], spatial_val, labels[val_idx])
    return {"rank": rank, **{key: metrics[key] for key in METRICS[config.task]}}


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


def _run_rank_grid(config: PipelineConfig, train: dict) -> dict:
    """Sweep R over [1, N-1] on a 90/10 split of the training data.

    A kappa or PCC that the validation split leaves undefined is written
    as null. ``best_rank`` is the lowest rank with the highest defined
    score, accuracy or PCC (null if no score is defined). A rank whose
    geometry fails is a row with its band's ``error`` and null scores;
    if every rank fails, the first one's error is raised. The ranks run
    through :func:`_parallel_map`, each band of a rank in its thread.
    """
    classification = config.task == "classification"
    val_idx, fit_idx = _validation_split(train["labels"], classification, config.seed)
    ranks = list(range(1, config.n_channels))
    if not ranks:
        raise ConfigError("grid mode needs at least two channels")
    rows = _parallel_map(functools.partial(_grid_point, config, train, fit_idx, val_idx), ranks)
    if all("error" in r for r in rows):
        raise NumericalError(rows[0]["error"])
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
    metrics = evaluate_model(model, test["temporal"], test["spatial"], test["labels"])
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
        rows += [{"variant": label, "metric": key, "value": metrics[key]}
                 for key in METRICS[config.task]]
    out_path = config.work_dir / "ablation.csv"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["variant", "metric", "value"])
        writer.writeheader()
        writer.writerows(rows)
    return rows
