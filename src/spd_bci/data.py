"""Dataset file formats, CSV ingestion, and synthetic generators for desk-scale checks.

Two tiny binary formats, both little-endian and bit-exact on round trip:

Segment file (one trial per file):
    magic      4 bytes  b"EEGS"
    version    u32      currently 1
    channels   u32
    samples    u64
    fs         f64      sampling rate in Hz
    label kind u8       0 = none, 1 = class index, 2 = real target
    label      f64      class labels stored as integral floats
    payload    channels * samples f64, row-major

Tensor bundle (named arrays, also used for feature files and checkpoints):
    magic      4 bytes  b"SPDT"
    version    u32
    count      u32
    per tensor: u16 name length, utf-8 name, u8 ndim, ndim * u64 shape,
                f64 payload in C order

Neither format moves a payload through an intermediate buffer: the
writers write each array's own memory, and the readers read each payload
straight into a new aligned, C-contiguous, writable float64 array (bundle
payload offsets follow the name lengths, so views into one file buffer
would be misaligned). A declared payload is checked against the bytes left
in the file before its array is allocated.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import parse_key_values
from .errors import ConfigError, DataError
from .filters import EegSegment, apply_filter_zero_phase, design_butterworth_lowpass

SEGMENT_MAGIC = b"EEGS"
TENSOR_MAGIC = b"SPDT"
FORMAT_VERSION = 1

_LABEL_NONE, _LABEL_CLASS, _LABEL_REAL = 0, 1, 2
_HEADER = struct.Struct("<4sIIQdBd")


def write_segment(path, segment: EegSegment):
    """Write one trial; the round trip through :func:`read_segment` is bit-exact."""
    label = segment.label
    if label is None:
        kind, value = _LABEL_NONE, 0.0
    elif isinstance(label, (int, np.integer)):
        kind, value = _LABEL_CLASS, float(label)
    else:
        kind, value = _LABEL_REAL, float(label)
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                SEGMENT_MAGIC,
                FORMAT_VERSION,
                segment.n_channels,
                segment.n_samples,
                float(segment.fs),
                kind,
                value,
            )
        )
        fh.write(np.require(segment.samples, dtype="<f8", requirements="C"))


def read_segment(path) -> EegSegment:
    """Read one trial; the payload is read straight into a new (channels, samples) array.

    The payload size is checked against the file size before the array is
    allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataError(f"{path}: truncated header, {len(head)} bytes < {_HEADER.size}")
        magic, version, n_channels, n_samples, fs, kind, value = _HEADER.unpack(head)
        if magic != SEGMENT_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r} at offset 0")
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported version {version} at offset 4")
        expected = n_channels * n_samples * 8
        found = size - _HEADER.size
        if found == expected:
            samples = np.empty((n_channels, n_samples), dtype="<f8")
            found = fh.readinto(samples)  # short only if the file shrank while it was read
        if found != expected:
            raise DataError(
                f"{path}: payload at offset {_HEADER.size} has {found} bytes, "
                f"expected {expected}"
            )
    finite = np.isfinite(samples)
    if not finite.all():
        first = int(np.argmin(finite))  # row-major index of the first non-finite value
        raise DataError(
            f"{path}: non-finite sample at offset {_HEADER.size + 8 * first} "
            f"(channel {first // n_samples}, sample {first % n_samples})"
        )
    if kind == _LABEL_NONE:
        label = None
    elif kind == _LABEL_CLASS:
        label = int(value)
    elif kind == _LABEL_REAL:
        label = float(value)
    else:
        raise DataError(f"{path}: unknown label kind {kind} at offset {_HEADER.size - 9}")
    try:
        return EegSegment(samples, fs, label)
    except ValueError as exc:  # header shape or rate out of range
        raise DataError(f"{path}: {exc}") from exc


def write_tensors(path, tensors: dict[str, np.ndarray]):
    """Write named arrays as a tensor bundle, each payload straight from the array's buffer.

    A C-contiguous little-endian float64 array is written as it is; anything
    else is converted once.
    """
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.require(arr, dtype="<f8", requirements="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            if arr.ndim:
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr)


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a tensor bundle; each payload is read straight into its own new array.

    Every array is a fresh aligned, C-contiguous, writable float64 array, so
    callers may use it in place. A declared payload larger than the rest of
    the file is a truncation error before anything is allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != TENSOR_MAGIC:
            raise DataError(f"{path}: bad magic {head[:4]!r} at offset 0")
        if len(head) < 12:
            raise DataError(f"{path}: truncated header, {size} bytes")
        version, count = struct.unpack_from("<II", head, 4)
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported version {version} at offset 4")
        offset = 12

        def field(n_bytes: int) -> bytes:
            raw = fh.read(n_bytes)
            if len(raw) != n_bytes:
                raise DataError(f"{path}: truncated tensor header at offset {offset}")
            return raw

        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", field(2))
            offset += 2
            try:
                name = field(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: tensor name at offset {offset} is not UTF-8") from exc
            offset += name_len
            (ndim,) = struct.unpack("<B", field(1))
            offset += 1
            shape = struct.unpack(f"<{ndim}Q", field(8 * ndim))
            offset += 8 * ndim
            n_bytes = 8 * math.prod(shape)
            if n_bytes > size - offset:
                raise DataError(
                    f"{path}: tensor {name!r} truncated at offset {offset}: "
                    f"expected {n_bytes} bytes, found {size - offset}"
                )
            arr = np.empty(shape, dtype="<f8")
            found = fh.readinto(arr)
            if found != n_bytes:  # the file shrank while it was read
                raise DataError(
                    f"{path}: tensor {name!r} truncated at offset {offset}: "
                    f"expected {n_bytes} bytes, found {found}"
                )
            tensors[name] = arr
            offset += n_bytes
        if offset != size:
            raise DataError(
                f"{path}: {size - offset} bytes of trailing data at offset {offset} "
                f"after {count} declared tensor(s)"
            )
    return tensors


# ---------------------------------------------------------------------------
# Synthetic generators.
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    """Recipe for Gaussian trials with per-class spatial covariance."""

    class_covariances: list  # one SPD matrix per class
    n_samples: int
    fs: float
    segments_per_class: int
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.class_covariances:
            raise ValueError("need at least one class covariance")
        for k, cov in enumerate(self.class_covariances):
            cov = np.asarray(cov, dtype=np.float64)
            eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
            if eigvals[0] <= 0:
                raise ValueError(f"class {k} covariance is not positive definite")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be nonnegative")


def synth_spd_classes(spec: SynthSpec) -> list[EegSegment]:
    """Labeled Gaussian segments whose expected SCM is the class covariance.

    Class-k trials are X = A_k G (+ optional white noise) with
    A_k A_k^T = Sigma_k and G unit Gaussian, so SCMs cluster around
    Sigma_k (+ noise_scale^2 I).
    """
    rng = np.random.default_rng(spec.seed)
    mixers = [np.linalg.cholesky(np.asarray(c, dtype=np.float64)) for c in spec.class_covariances]
    segments = []
    for cls, mixer in enumerate(mixers):
        n_channels = mixer.shape[0]
        for _ in range(spec.segments_per_class):
            x = mixer @ rng.standard_normal((n_channels, spec.n_samples))
            if spec.noise_scale > 0:
                x = x + spec.noise_scale * rng.standard_normal(x.shape)
            segments.append(EegSegment(x, spec.fs, label=cls))
    return segments


def synth_band_signals(
    class_tones: list,
    *,
    n_channels: int,
    n_samples: int,
    fs: float,
    noise_sigma: float,
    segments_per_class: int,
    seed: int = 0,
) -> list[EegSegment]:
    """Labeled segments whose classes differ by narrow-band sinusoid power.

    ``class_tones[k]`` is a list of (frequency_hz, amplitude) pairs for
    class k. Each channel gets every tone with its own random phase, plus
    white Gaussian noise, so band powers separate the classes while the
    spatial structure stays uninformative.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / fs
    segments = []
    for cls, tones in enumerate(class_tones):
        for tone in tones:
            freq, amp = tone
            if amp < 0:
                raise ValueError(f"negative amplitude {amp} for class {cls}")
            if freq >= fs / 2:
                raise ValueError(f"tone at {freq} Hz is above Nyquist for fs={fs}")
        for _ in range(segments_per_class):
            x = noise_sigma * rng.standard_normal((n_channels, n_samples))
            for freq, amp in tones:
                phases = rng.uniform(0.0, 2.0 * np.pi, size=n_channels)
                x += amp * np.sin(2.0 * np.pi * freq * t[None, :] + phases[:, None])
            segments.append(EegSegment(x, fs, label=cls))
    return segments


def synth_mixed_task(
    *,
    n_channels: int = 4,
    n_samples: int = 256,
    fs: float = 128.0,
    n_segments: int = 200,
    tone_hz: float = 10.0,
    tone_amp: float = 1.0,
    burst_asym_mean: float = 0.5,
    burst_asym_sigma: float = 0.30,
    corr_mean: float = 0.35,
    corr_sigma: float = 0.40,
    seed: int = 0,
) -> list[EegSegment]:
    """Binary task with two orthogonal, individually weak cues.

    Temporal cue: a tone whose amplitude envelope leans toward the first
    half of the segment for class 0 and the second half for class 1; the
    whole-segment tone power is the same either way, so a single spatial
    covariance cannot see it. Spatial cue: the background noise of the
    first two channels is correlated with sign +/- depending on the
    class; per-channel spectra do not change, so band-power features
    cannot see it. Both cue strengths are drawn per segment with overlap,
    which caps single-stream accuracy; combining the independent cues is
    what pays.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / fs
    half_sign = np.where(np.arange(n_samples) < n_samples // 2, 1.0, -1.0)
    segments = []
    for _ in range(n_segments):
        label = int(rng.integers(0, 2))
        cue_sign = 1.0 if label == 0 else -1.0
        # Correlated background noise on channels 0 and 1.
        rho = float(np.clip(rng.normal(cue_sign * corr_mean, corr_sigma), -0.9, 0.9))
        cov = np.eye(n_channels)
        cov[0, 1] = cov[1, 0] = rho
        x = np.linalg.cholesky(cov) @ rng.standard_normal((n_channels, n_samples))
        # Tone with a class-dependent first/second-half power tilt.
        asym = float(np.clip(rng.normal(cue_sign * burst_asym_mean, burst_asym_sigma), -0.95, 0.95))
        envelope = np.sqrt(np.maximum(1.0 + asym * half_sign, 0.0))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_channels)
        x += tone_amp * envelope[None, :] * np.sin(
            2.0 * np.pi * tone_hz * t[None, :] + phases[:, None]
        )
        segments.append(EegSegment(x, fs, label=label))
    return segments


# ---------------------------------------------------------------------------
# CSV ingestion.
# ---------------------------------------------------------------------------

def read_manifest(path) -> dict:
    """Parse a manifest in the config file's ``key = value`` syntax."""
    try:
        return parse_key_values(Path(path).read_text(encoding="utf-8"), origin=str(path))
    except ConfigError as exc:
        raise DataError(str(exc)) from exc


def decimate_segment(segment: EegSegment, factor: int) -> EegSegment:
    """Integer-factor downsampling with an anti-aliasing low-pass.

    The low-pass is an order-8 Butterworth at 0.8 times the new Nyquist,
    applied zero-phase like every filter in the package; factor 1 is the
    identity.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"decimation factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return segment
    new_fs = segment.fs / factor
    cutoff = 0.8 * new_fs / 2.0
    sos = design_butterworth_lowpass(cutoff, 8, segment.fs)
    filtered = apply_filter_zero_phase(sos, segment).samples
    return EegSegment(filtered[:, ::factor], new_fs, segment.label)


def _manifest_number(manifest: dict, key: str, kind, origin: str):
    """``manifest[key]`` as an int or float; a malformed value is a ``DataError`` naming both."""
    value = manifest[key]
    try:
        # Through str, so that 2.5 given for an integer key is rejected, not truncated.
        return kind(str(value))
    except ValueError as exc:
        need = "an integer" if kind is int else "a number"
        raise DataError(f"{origin}: key {key!r} needs {need}, got {value!r}") from exc


def ingest_csv(csv_path, manifest) -> list[EegSegment]:
    """Cut a rectangular channels-as-columns CSV into labeled segments.

    The manifest (dict or path) must give ``fs`` and ``segment_seconds``;
    optional keys are ``decimate`` (integer factor, default 1),
    ``label_column`` (its value at each segment's first row becomes the
    label), and ``channels`` (comma-separated column names; default all
    non-label columns). Trailing samples that do not fill a segment are
    dropped.
    """
    origin = f"manifest for {csv_path}"
    if not isinstance(manifest, dict):
        origin = str(manifest)
        manifest = read_manifest(manifest)
    try:
        fs = _manifest_number(manifest, "fs", float, origin)
        segment_seconds = _manifest_number(manifest, "segment_seconds", float, origin)
    except KeyError as exc:
        raise DataError(f"{origin}: missing required key {exc}") from exc
    factor = _manifest_number(manifest, "decimate", int, origin) if "decimate" in manifest else 1
    label_column = manifest.get("label_column")

    lines = [ln for ln in Path(csv_path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if len(lines) < 2:
        raise DataError(f"{csv_path}: need a header row and at least one data row")
    header = [c.strip() for c in lines[0].split(",")]
    if label_column is not None and label_column not in header:
        raise DataError(f"{csv_path}: label column {label_column!r} not in header {header}")
    if "channels" in manifest:
        channel_names = [c.strip() for c in manifest["channels"].split(",")]
        missing = [c for c in channel_names if c not in header]
        if missing:
            raise DataError(f"{csv_path}: channel columns {missing} not in header")
    else:
        channel_names = [c for c in header if c != label_column]
    channel_idx = [header.index(c) for c in channel_names]
    label_idx = header.index(label_column) if label_column is not None else None

    rows = []
    labels = []
    for lineno, line in enumerate(lines[1:], 2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise DataError(
                f"{csv_path}:{lineno}: ragged row with {len(cells)} cells, expected {len(header)}"
            )
        try:
            rows.append([float(cells[i]) for i in channel_idx])
            if label_idx is not None:
                labels.append(float(cells[label_idx]))
        except ValueError as exc:
            raise DataError(f"{csv_path}:{lineno}: non-numeric cell ({exc})") from exc

    samples = np.asarray(rows, dtype=np.float64).T  # (channels, time)
    recording = EegSegment(samples, fs)
    recording = decimate_segment(recording, factor)
    seg_len = int(round(segment_seconds * recording.fs))
    if seg_len < 2:
        raise DataError(f"segment_seconds={segment_seconds} gives segments of {seg_len} samples")
    n_segments = recording.n_samples // seg_len
    if n_segments == 0:
        raise DataError(
            f"{csv_path}: recording of {recording.n_samples} samples is shorter than one "
            f"segment ({seg_len} samples)"
        )
    segments = []
    for k in range(n_segments):
        chunk = recording.samples[:, k * seg_len:(k + 1) * seg_len]
        # The label is read at the segment's first row of the original file.
        label = labels[k * seg_len * factor] if label_idx is not None else None
        segments.append(EegSegment(chunk, recording.fs, label))
    return segments
