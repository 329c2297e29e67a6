"""Filtering, normalization, and filter-bank decomposition of multichannel EEG.

All operations are pure: they take an :class:`EegSegment` and return a new
one, so they are safe to run concurrently across segments. Band-pass
filters are Butterworth designs (analog prototype + bilinear transform)
realized as second-order sections and applied forward-backward for zero
phase, with odd reflection padding of three filter orders at the edges.

A filter is designed once per run: a :class:`ZeroPhaseFilter` keeps its
initial conditions ``zi``, which ``sosfiltfilt``/``filtfilt`` re-solve on
every call. :func:`apply_filter_zero_phase` repeats their steps exactly,
so its output is bit-identical to theirs.

``scipy.signal`` is imported inside the functions that design or apply a
filter, so importing the package (and a CLI step that does not filter)
does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class EegSegment:
    """One multichannel EEG trial.

    Parameters
    ----------
    samples : ndarray
        Real matrix of shape (n_channels, n_samples).
    fs : float
        Sampling rate in Hz.
    label : int | float | None
        Optional class index or real-valued target.
    """

    samples: np.ndarray
    fs: float
    label: float | int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ValueError(
                f"samples must be 2-D (channels x samples), got shape {self.samples.shape}"
            )
        n_channels, n_samples = self.samples.shape
        if n_channels < 1:
            raise ValueError("segment needs at least one channel")
        if n_samples < 2:
            raise ValueError("segment needs at least two samples")
        if not self.fs > 0:  # also rejects NaN
            raise ValueError(f"sampling rate must be positive, got {self.fs}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        """Segment length in seconds."""
        return self.n_samples / self.fs

    def with_samples(self, samples: np.ndarray) -> "EegSegment":
        """New segment with the same rate and label but different samples."""
        return EegSegment(samples, self.fs, self.label)


@dataclass(frozen=True)
class BandSpec:
    """One band of the filter bank: edges in Hz plus filter order."""

    low_hz: float
    high_hz: float
    order: int = 5

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"filter order must be >= 1, got {self.order}")
        if not 0.0 < self.low_hz < self.high_hz:
            raise ValueError(
                f"band edges must satisfy 0 < low < high, got ({self.low_hz}, {self.high_hz})"
            )


@dataclass(frozen=True)
class ZeroPhaseFilter:
    """A filter designed once, with the state that forward-backward filtering reuses.

    Either ``sos`` (run with ``sosfilt``) or, for the notch, ``ba`` (run
    with ``lfilter`` as ``filtfilt`` does; ``sosfilt`` would round
    differently). ``zi`` is the step response's steady state, shaped to
    broadcast against one edge sample per channel; ``padlen`` is three
    filter orders.
    """

    zi: np.ndarray
    padlen: int
    sos: np.ndarray | None = None
    ba: tuple[np.ndarray, np.ndarray] | None = None

    def run(self, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
        """One causal pass along the sample axis, started from state ``zi``."""
        from scipy import signal as sps

        if self.sos is not None:
            return sps.sosfilt(self.sos, x, axis=1, zi=zi)[0]
        return sps.lfilter(*self.ba, x, axis=1, zi=zi)[0]


def zero_phase_sos(sos: np.ndarray) -> ZeroPhaseFilter:
    """Second-order sections with their initial conditions, ready to apply many times."""
    from scipy import signal as sps

    sos = np.asarray(sos, dtype=np.float64)
    zi = sps.sosfilt_zi(sos).reshape(sos.shape[0], 1, 2)
    # Three filter orders of padding; each section is of order two.
    return ZeroPhaseFilter(zi=zi, padlen=3 * 2 * sos.shape[0], sos=sos)


def design_notch(fs: float, f0: float = 50.0, quality: float = 30.0) -> ZeroPhaseFilter:
    """Second-order IIR notch at ``f0`` Hz with its initial conditions."""
    if f0 >= fs / 2.0:
        raise ValueError(f"notch frequency {f0} Hz is not below Nyquist {fs / 2.0} Hz")
    if f0 <= 0:
        raise ValueError(f"notch frequency must be positive, got {f0}")
    from scipy import signal as sps

    b, a = sps.iirnotch(f0, quality, fs=fs)
    return ZeroPhaseFilter(zi=sps.lfilter_zi(b, a).reshape(1, -1), padlen=3 * 2, ba=(b, a))


@dataclass
class FilterBank:
    """Ordered band-pass filters sharing one sampling rate.

    ``filters`` holds one designed :class:`ZeroPhaseFilter` per band, in
    band order.
    """

    bands: list[BandSpec]
    fs: float
    filters: list[ZeroPhaseFilter] = field(default_factory=list)

    @property
    def n_bands(self) -> int:
        return len(self.bands)


def design_butterworth_bandpass(low_hz, high_hz, order, fs) -> np.ndarray:
    """Design a digital Butterworth band-pass filter.

    The design uses the analog prototype with bilinear transform and
    frequency pre-warping (scipy's default) and returns second-order
    sections for numerical stability. Gain is 1/sqrt(2) at each edge.

    Returns
    -------
    ndarray
        Second-order sections, shape (n_sections, 6).
    """
    band = BandSpec(low_hz, high_hz, order)
    nyquist = fs / 2.0
    if band.high_hz >= nyquist:
        raise ValueError(
            f"band ({low_hz}, {high_hz}) Hz exceeds Nyquist {nyquist} Hz at fs={fs}"
        )
    from scipy import signal as sps

    sos = sps.butter(order, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
    if not _is_stable(sos):
        raise ValueError(
            f"designed filter for band ({low_hz}, {high_hz}) Hz at fs={fs} is unstable"
        )
    return sos


def frequency_response(sos: np.ndarray, freqs_hz, fs) -> np.ndarray:
    """Complex single-pass response of a second-order-section filter."""
    from scipy import signal as sps

    _, h = sps.sosfreqz(sos, worN=np.atleast_1d(np.asarray(freqs_hz, dtype=float)), fs=fs)
    return h


def _is_stable(sos: np.ndarray) -> bool:
    """All poles strictly inside the unit circle."""
    for section in sos:
        poles = np.roots(section[3:])
        if np.any(np.abs(poles) >= 1.0):
            return False
    return True


def _odd_extend(x: np.ndarray, n: int) -> np.ndarray:
    """Extend each row by ``n`` samples at both ends, point-reflected about the edge sample."""
    left = 2 * x[:, :1] - x[:, n:0:-1]
    right = 2 * x[:, -1:] - x[:, -2:-(n + 2):-1]
    return np.concatenate((left, x, right), axis=1)


def apply_filter_zero_phase(filt, segment: EegSegment) -> EegSegment:
    """Forward-backward filter a segment: zero phase shift, same shape.

    ``filt`` is a :class:`ZeroPhaseFilter` designed once per run, or bare
    second-order sections for a one-off call. Edges are handled with odd
    reflection padding of three filter orders; the segment must be longer
    than that padding.
    """
    if not isinstance(filt, ZeroPhaseFilter):
        filt = zero_phase_sos(filt)
    n = filt.padlen
    if segment.n_samples <= n:
        raise ValueError(
            f"segment too short for zero-phase filtering: {segment.n_samples} samples, "
            f"need more than {n}"
        )
    ext = _odd_extend(segment.samples, n)
    y = filt.run(ext, filt.zi * ext[:, :1])
    y = filt.run(y[:, ::-1], filt.zi * y[:, -1:])
    return segment.with_samples(y[:, ::-1][:, n:-n])


def notch_filter(segment: EegSegment, f0: float = 50.0, quality: float = 30.0) -> EegSegment:
    """Suppress one mains frequency with a zero-phase second-order notch.

    The notch is >= 30 dB deep at ``f0`` while neighbors 5 Hz away lose
    less than 3 dB. This designs the notch for one call; a run that
    filters many segments designs it once with :func:`design_notch`.
    """
    return apply_filter_zero_phase(design_notch(segment.fs, f0, quality), segment)


def minmax_normalize(segment: EegSegment, constant_channel: str = "error") -> EegSegment:
    """Rescale each channel affinely to [-1, 1].

    The per-channel minimum maps to -1 and the maximum to +1. A constant
    channel has no well-defined scale; with ``constant_channel="error"``
    (default) it raises, with ``"zero"`` the channel maps to all zeros.
    """
    if constant_channel not in ("error", "zero"):
        raise ValueError(f"unknown constant_channel mode {constant_channel!r}")
    x = segment.samples
    lo = x.min(axis=1, keepdims=True)
    hi = x.max(axis=1, keepdims=True)
    span = hi - lo
    degenerate = span[:, 0] == 0.0
    if np.any(degenerate):
        if constant_channel == "error":
            bad = np.flatnonzero(degenerate)
            raise ValueError(f"constant channel(s) {bad.tolist()} cannot be min-max normalized")
        span = np.where(span == 0.0, 1.0, span)
    out = -1.0 + 2.0 * (x - lo) / span
    if np.any(degenerate):
        out[degenerate, :] = 0.0
    return segment.with_samples(out)


def design_filter_bank(bands, fs) -> FilterBank:
    """Design one band-pass filter, with its initial conditions, per band spec.

    Bands must be ordered by increasing ``low_hz`` and non-overlapping.
    """
    specs = [b if isinstance(b, BandSpec) else BandSpec(*b) for b in bands]
    if not specs:
        raise ValueError("filter bank needs at least one band")
    for prev, cur in zip(specs, specs[1:]):
        if cur.low_hz < prev.low_hz:
            raise ValueError("bands must be ordered by increasing low edge")
        if cur.low_hz < prev.high_hz:
            raise ValueError(
                f"bands ({prev.low_hz}-{prev.high_hz}) and ({cur.low_hz}-{cur.high_hz}) overlap"
            )
    filters = [
        zero_phase_sos(design_butterworth_bandpass(b.low_hz, b.high_hz, b.order, fs))
        for b in specs
    ]
    return FilterBank(bands=specs, fs=fs, filters=filters)


def filter_bank_decompose(segment: EegSegment, bank: FilterBank) -> list[EegSegment]:
    """Band-limited copies of a segment, one per bank band."""
    if segment.fs != bank.fs:
        raise ValueError(
            f"segment rate {segment.fs} Hz does not match bank rate {bank.fs} Hz"
        )
    return [apply_filter_zero_phase(filt, segment) for filt in bank.filters]


def seed_rhythm_bands(order: int = 5) -> list[BandSpec]:
    """The five classic EEG rhythms: delta, theta, alpha, beta, gamma."""
    edges = [(1.0, 3.0), (4.0, 7.0), (8.0, 13.0), (14.0, 30.0), (31.0, 50.0)]
    return [BandSpec(lo, hi, order) for lo, hi in edges]


def uniform_bands(low_hz: float, high_hz: float, width_hz: float, order: int = 5) -> list[BandSpec]:
    """Contiguous equal-width bands covering [low_hz, high_hz].

    ``uniform_bands(0.5, 50.5, 2.0)`` yields the 25-band fine-resolution
    bank used for vigilance and motor-imagery profiles.
    """
    if width_hz <= 0:
        raise ValueError("band width must be positive")
    n_bands = (high_hz - low_hz) / width_hz
    if abs(n_bands - round(n_bands)) > 1e-9:
        raise ValueError(
            f"range {low_hz}-{high_hz} Hz is not a whole number of {width_hz} Hz bands"
        )
    n_bands = int(round(n_bands))
    return [
        BandSpec(low_hz + i * width_hz, low_hz + (i + 1) * width_hz, order)
        for i in range(n_bands)
    ]
