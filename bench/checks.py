"""Output checks: the program's files against an independent recomputation.

Everything here reads the documented file layouts with its own ``struct``
code and recomputes features with numpy/scipy from the raw trials,
following the documented definitions, so it shares no code with spd_bci.
Each check returns ``(name, passed, detail)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy import signal

from workloads import SEGMENT_HEADER, Workload

RTOL = 1e-6
POWER_FLOOR = 1e-10
BROADBAND = (0.5, 70.0)
NOTCH_HZ, NOTCH_Q = 50.0, 30.0
FILTER_ORDER = 5


def read_segment(path: Path) -> np.ndarray:
    data = path.read_bytes()
    _, _, n_channels, n_samples, *_ = SEGMENT_HEADER.unpack_from(data, 0)
    return np.frombuffer(data, "<f8", offset=SEGMENT_HEADER.size).reshape(n_channels, n_samples)


def read_tensors(path: Path) -> dict[str, np.ndarray]:
    """Parse a ``.spdt`` bundle; raises ValueError if it is malformed."""
    data = path.read_bytes()
    if data[:4] != b"SPDT":
        raise ValueError(f"{path.name}: bad magic")
    _, count = struct.unpack_from("<II", data, 4)
    offset, tensors = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, offset)
        name = data[offset + 2:offset + 2 + name_len].decode("utf-8")
        offset += 2 + name_len
        (ndim,) = struct.unpack_from("<B", data, offset)
        shape = struct.unpack_from(f"<{ndim}Q", data, offset + 1)
        offset += 1 + 8 * ndim
        size = math.prod(shape)
        tensors[name] = np.frombuffer(data, "<f8", count=size, offset=offset).reshape(shape)
        offset += 8 * size
    if offset != len(data):
        raise ValueError(f"{path.name}: {len(data) - offset} trailing bytes")
    return tensors


def _zero_phase_bandpass(x, low, high, fs):
    """Butterworth band-pass, forward-backward, odd padding of 3 x the filter order."""
    sos = signal.butter(FILTER_ORDER, [low, high], btype="bandpass", fs=fs, output="sos")
    return signal.sosfiltfilt(sos, x, axis=1, padtype="odd", padlen=3 * 2 * sos.shape[0])


def preprocess(x: np.ndarray, fs: float) -> np.ndarray:
    """Broadband band-pass, zero-phase mains notch, per-channel min-max to [-1, 1]."""
    y = _zero_phase_bandpass(x, *BROADBAND, fs)
    b, a = signal.iirnotch(NOTCH_HZ, NOTCH_Q, fs=fs)
    y = signal.filtfilt(b, a, y, axis=1, padtype="odd", padlen=6)
    lo, hi = y.min(axis=1, keepdims=True), y.max(axis=1, keepdims=True)
    return -1.0 + 2.0 * (y - lo) / (hi - lo)


def temporal_features(band_signals, bands, fs, n_windows) -> np.ndarray:
    """(windows, 2 * bands * channels): DE block then log band-power block, band-major.

    Band power is the periodic-Hann periodogram (one-sided, window-energy
    scaled) summed over the bins inside the band times the bin width;
    DE = 0.5 * ln(2 * pi * e * P).
    """
    length = int(round(fs))
    hop = length // 2
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(length) / length))
    freqs = np.fft.rfftfreq(length, d=1.0 / fs)
    de, log_power = [], []
    for y, (low, high) in zip(band_signals, bands):
        frames = np.lib.stride_tricks.sliding_window_view(y, length, axis=1)
        frames = frames[:, ::hop][:, :n_windows]  # (channels, windows, length)
        psd = np.abs(np.fft.rfft(frames * window, axis=-1)) ** 2 / (fs * np.sum(window ** 2))
        psd[..., 1:] *= 2.0
        if length % 2 == 0:
            psd[..., -1] /= 2.0
        inside = (freqs >= low) & (freqs <= high)
        power = psd[..., inside].sum(axis=-1) * (freqs[1] - freqs[0])  # (channels, windows)
        lp = np.log(np.maximum(power, POWER_FLOOR)).T
        log_power.append(lp)
        de.append(0.5 * math.log(2.0 * math.pi * math.e) + 0.5 * lp)
    return np.concatenate(de + log_power, axis=1)


def _eig_apply(mat, func):
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * func(vals)) @ vecs.T


def tangent_vector(y, w, reference) -> np.ndarray:
    """Half-vectorized log(R^-1/2 W^T C W R^-1/2) with sqrt(2) off-diagonals."""
    c = y @ y.T / (y.shape[1] - 1)
    reduced = w.T @ (0.5 * (c + c.T)) @ w
    inv_half = _eig_apply(reference, lambda v: 1.0 / np.sqrt(v))
    s = _eig_apply(inv_half @ reduced @ inv_half, np.log)
    rows, cols = np.triu_indices(s.shape[0])
    return s[rows, cols] * np.where(rows == cols, 1.0, math.sqrt(2.0))


def _close(name, got, want):
    err = float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
    return name, bool(err <= RTOL), f"max relative error {err:.2e} (tolerance {RTOL:.0e})"


def check_features(workload: Workload, raw_root: Path, work_dir: Path, policy_test: str):
    """Shapes, finiteness, and a recomputation of the first trial of each split."""
    fs = workload.fs
    n_bands = len(workload.bands)
    temporal_dim = 2 * n_bands * workload.n_channels
    spatial_dim = n_bands * workload.rank * (workload.rank + 1) // 2
    n_windows = int(math.floor(2.0 * workload.n_samples / fs - 1.0))
    results = []
    try:
        model = read_tensors(work_dir / "features" / "spatial_model.spdt")
    except (OSError, ValueError, struct.error) as exc:
        return [("spatial_model.spdt readable", False, str(exc))]
    for split, count in (("train", workload.n_train), ("test", workload.n_test)):
        try:
            tensors = read_tensors(work_dir / "features" / f"{split}.spdt")
        except (OSError, ValueError, struct.error) as exc:
            results.append((f"{split}.spdt readable", False, str(exc)))
            continue
        temporal, spatial = tensors.get("temporal"), tensors.get("spatial")
        shapes_ok = (
            temporal is not None and spatial is not None
            and temporal.shape == (count, n_windows, temporal_dim)
            and spatial.shape == (count, spatial_dim)
        )
        finite = shapes_ok and bool(np.all(np.isfinite(temporal)) and np.all(np.isfinite(spatial)))
        results.append((
            f"{split}.spdt dims and finite", finite,
            f"temporal {None if temporal is None else temporal.shape}, "
            f"spatial {None if spatial is None else spatial.shape}; expected "
            f"({count}, {n_windows}, {temporal_dim}), ({count}, {spatial_dim})",
        ))
        if not finite:
            continue
        x = preprocess(read_segment(raw_root / split / "seg_000.eegs"), fs)
        band_signals = [_zero_phase_bandpass(x, low, high, fs) for low, high in workload.bands]
        results.append(_close(
            f"{split} trial 0 temporal features",
            temporal[0], temporal_features(band_signals, workload.bands, fs, n_windows),
        ))
        # Test tangent vectors under batch-mean use a per-batch reference
        # that is not stored, so only stored-reference vectors are checked.
        if split == "train" or policy_test == "train-mean":
            want = np.concatenate([
                tangent_vector(y, model[f"filter_{b}"], model[f"reference_{b}"])
                for b, y in enumerate(band_signals)
            ])
            results.append(_close(f"{split} trial 0 tangent vector", spatial[0], want))
    return results


def check_metrics(workload: Workload, work_dir: Path):
    path = work_dir / "metrics.json"
    try:
        metrics = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [("metrics.json readable", False, str(exc))]
    n_test = workload.n_test
    ok = metrics.get("n_test") == n_test and metrics.get("variant") == "fused"
    if workload.n_classes:
        k = workload.n_classes
        confusion = np.asarray(metrics.get("confusion", []))
        ok = ok and metrics.get("task") == "classification" and (
            0.0 <= metrics.get("accuracy", -1) <= 1.0
            and -1.0 <= metrics.get("kappa", -2) <= 1.0
            and confusion.shape == (k, k)
            and int(confusion.sum()) == n_test
        )
    else:
        ok = ok and metrics.get("task") == "regression" and (
            0.0 <= metrics.get("rmse", -1) < math.inf
            and -1.0 <= metrics.get("pcc", -2) <= 1.0
        )
    return [("metrics.json keys and ranges", bool(ok), json.dumps(metrics, sort_keys=True))]


def output_digest(work_dir: Path) -> str:
    """Hash of the artifacts the README promises are byte-identical across runs."""
    digest = hashlib.sha256()
    for rel in ("features/train.spdt", "features/test.spdt", "metrics.json"):
        path = work_dir / rel
        digest.update(rel.encode())
        digest.update(path.read_bytes() if path.is_file() else b"<missing>")
    return digest.hexdigest()
