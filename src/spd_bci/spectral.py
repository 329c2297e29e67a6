"""STFT-based spectral features: Hanning periodograms, log band power, differential entropy.

Each segment is cut into 1-second Hanning windows with 50% overlap,
giving L = floor(2*T - 1) windows for a T-second segment. Per window and
channel two features are computed on the periodogram of each frequency
sub-band: the natural log of the in-band power, and the differential
entropy 0.5*ln(2*pi*e*var) of a Gaussian signal whose variance is that
same in-band power. Powers are floored at 1e-10 before the log so silent
channels stay finite. One kernel computes the in-band power of every
window of every channel of a band at once. A band holds only a few of
the window's DFT bins, so only those bins are computed (a pruned DFT):
the framed signal, one row per channel and window, is multiplied by the
band's :class:`BandBasis`, the cosine and sine columns of its in-band
bins with the Hann window folded in. A run builds each band's basis once
with :func:`band_basis`. :func:`periodogram` and :func:`band_power`
compute the same quantity for a single frame with ``rfft``.

The features take (channels, samples) arrays of one band, as
:func:`~spd_bci.filters.filter_bank_decompose` returns them stacked;
:class:`~spd_bci.filters.EegSegment` stays the file and generator record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .filters import BandSpec

HALF_LN_2PI_E = 0.5 * math.log(2.0 * math.pi * math.e)
POWER_FLOOR = 1e-10


@dataclass
class StftPlan:
    """Framing plan for 1-second Hanning windows at 50% overlap."""

    window: np.ndarray  # Hanning weights, length = round(fs)
    hop: int
    n_windows: int  # L
    fs: float

    @property
    def window_length(self) -> int:
        return len(self.window)


@dataclass
class FeatureSequence:
    """L x F feature matrix: per window, DE block then log-PSD block.

    F = 2 * n_bands * n_channels. Within each block the order is
    band-major: (band 1, ch 1..N), (band 2, ch 1..N), ...
    """

    values: np.ndarray
    n_bands: int
    n_channels: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"feature values must be 2-D, got shape {self.values.shape}")
        if self.values.shape[1] != 2 * self.n_bands * self.n_channels:
            raise ValueError(
                f"feature width {self.values.shape[1]} does not match "
                f"2 * {self.n_bands} bands * {self.n_channels} channels"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values contain non-finite entries")

    @property
    def n_windows(self) -> int:
        return self.values.shape[0]


def hann_window(length: int) -> np.ndarray:
    """Periodic Hanning window (DFT-even form)."""
    n = np.arange(length)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / length))


def plan_stft(t_seconds: float, fs: float) -> StftPlan:
    """Plan 1-second Hanning windows with 50% overlap over a T-second segment."""
    if t_seconds < 1.0:
        raise ValueError(f"segment of {t_seconds} s is shorter than the 1 s analysis window")
    window_length = int(round(fs))
    hop = window_length // 2
    n_windows = int(math.floor(2.0 * t_seconds - 1.0))
    n_samples = int(round(t_seconds * fs))
    if hop * (n_windows - 1) + window_length > n_samples:
        raise ValueError(
            f"{n_windows} windows of {window_length} samples at hop {hop} do not fit "
            f"in {n_samples} samples"
        )
    return StftPlan(window=hann_window(window_length), hop=hop, n_windows=n_windows, fs=fs)


def frame_signal(x: np.ndarray, plan: StftPlan) -> np.ndarray:
    """Read-only view of the planned windows along the last axis, shape (..., L, window_length)."""
    x = np.asarray(x, dtype=np.float64)
    needed = plan.hop * (plan.n_windows - 1) + plan.window_length
    if x.ndim == 0 or x.shape[-1] < needed:
        raise ValueError(f"signal of shape {x.shape} is shorter than the plan ({needed} samples)")
    frames = sliding_window_view(x, plan.window_length, axis=-1)
    return frames[..., : needed - plan.window_length + 1 : plan.hop, :]


def periodogram(samples: np.ndarray, fs: float, window: np.ndarray | None = None):
    """One-sided power spectral density of one frame.

    The supplied window (Hanning by default) is applied before the
    transform. Scaling is window-energy compensated density: the sum of
    the PSD over bins times the bin width equals the windowed signal's
    mean power divided by the window's mean-square value.

    Returns
    -------
    (freqs, psd)
        Frequencies in Hz and nonnegative PSD values per bin.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"periodogram expects a 1-D frame, got shape {samples.shape}")
    n = samples.shape[0]
    if window is None:
        window = hann_window(n)
    window = np.asarray(window, dtype=np.float64)
    if window.shape != samples.shape:
        raise ValueError(f"window shape {window.shape} does not match frame shape {samples.shape}")
    spectrum = np.fft.rfft(samples * window)
    scale = 1.0 / (fs * np.sum(window ** 2))
    psd = scale * np.abs(spectrum) ** 2
    # One-sided: double everything except DC and (for even n) Nyquist.
    psd[1:] *= 2.0
    if n % 2 == 0:
        psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    return freqs, psd


def band_power(freqs: np.ndarray, psd: np.ndarray, low_hz: float, high_hz: float) -> float:
    """Integral of the PSD over [low_hz, high_hz] (sum of bins times bin width)."""
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    if not np.any(mask):
        raise ValueError(f"no PSD bins inside band ({low_hz}, {high_hz}) Hz")
    df = freqs[1] - freqs[0]
    return float(np.sum(psd[mask]) * df)


@dataclass(frozen=True)
class BandBasis:
    """The in-band DFT of one band for one STFT plan.

    ``matrix`` is (window_length, 2K): the cosine then the sine column of
    each of the band's K bins, times the Hann window, so a frame times
    ``matrix`` is the real and imaginary parts of those bins. ``weights``
    (2K,) turns their squares into band power as :func:`band_power` does:
    one-sided doubling except at DC and Nyquist, bin width, and the
    window-energy scale of :func:`periodogram`.
    """

    matrix: np.ndarray
    weights: np.ndarray


def band_basis(plan: StftPlan, band: BandSpec) -> BandBasis:
    """Build the :class:`BandBasis` of one band."""
    low, high = band.low_hz, band.high_hz
    n = plan.window_length
    freqs = np.fft.rfftfreq(n, d=1.0 / plan.fs)
    bins = np.flatnonzero((freqs >= low) & (freqs <= high))
    if bins.size == 0:
        raise ValueError(f"no PSD bins inside band ({low}, {high}) Hz")
    one_sided = np.where((bins == 0) | (2 * bins == n), 1.0, 2.0)
    weights = one_sided * (freqs[1] - freqs[0]) / (plan.fs * np.sum(plan.window ** 2))
    # k*t is reduced mod n before scaling, so every angle lies in [0, 2*pi).
    angles = (2.0 * np.pi / n) * (np.outer(np.arange(n), bins) % n)
    matrix = np.concatenate((np.cos(angles), np.sin(angles)), axis=1) * plan.window[:, None]
    return BandBasis(matrix, np.concatenate((weights, weights)))


def _window_band_powers(x: np.ndarray, plan: StftPlan, basis: BandBasis) -> np.ndarray:
    """In-band periodogram power per window per channel, shape (L, N), as :func:`band_power`."""
    # One (L, n) @ (n, 2K) product per channel. Each is small enough that
    # OpenBLAS runs it on one thread: one (N*L, n) product is not, and at two
    # threads on two cores it sometimes stalls a whole process for ~8 ms a call.
    frames = np.ascontiguousarray(frame_signal(x, plan))  # (N, L, n)
    powers = np.square(frames @ basis.matrix) @ basis.weights  # (N, L)
    return powers.T


def log_psd_feature(x: np.ndarray, plan: StftPlan, basis: BandBasis) -> np.ndarray:
    """Natural log of in-band power per window per channel of ``x``, shape (L, N)."""
    powers = _window_band_powers(x, plan, basis)
    return np.log(np.maximum(powers, POWER_FLOOR))


def de_feature(x: np.ndarray, plan: StftPlan, basis: BandBasis,
               estimator: str = "periodogram") -> np.ndarray:
    """Differential entropy 0.5*ln(2*pi*e*var) per window per channel of ``x``, shape (L, N).

    With the default estimator the variance is the in-band power from the
    Hanning periodogram; ``estimator="time"`` uses the plain sample
    variance of each window instead (ablation aid).
    """
    if estimator == "periodogram":
        variances = _window_band_powers(x, plan, basis)
    elif estimator == "time":
        variances = frame_signal(x, plan).var(axis=-1).T
    else:
        raise ValueError(f"unknown variance estimator {estimator!r}")
    return HALF_LN_2PI_E + 0.5 * np.log(np.maximum(variances, POWER_FLOOR))


def build_feature_sequence(
    band_signals: np.ndarray,
    bases: list[BandBasis],
    plan: StftPlan,
) -> FeatureSequence:
    """Assemble the L x (2*H*N) feature matrix from band-limited signals.

    ``band_signals`` is the (H, N, T) array of
    :func:`~spd_bci.filters.filter_bank_decompose`, and ``bases`` the
    :class:`BandBasis` of each band, built once per run. Per window the
    layout is [DE(band 1, ch 1..N), ..., DE(band H, ch 1..N),
    logPSD(band 1, ch 1..N), ..., logPSD(band H, ch 1..N)].
    """
    if len(band_signals) != len(bases):
        raise ValueError(
            f"{len(band_signals)} band signals do not match {len(bases)} band bases"
        )
    if not len(band_signals):
        raise ValueError("need at least one band")
    de_blocks = []
    psd_blocks = []
    for x, basis in zip(band_signals, bases):
        log_power = log_psd_feature(x, plan, basis)
        psd_blocks.append(log_power)
        de_blocks.append(HALF_LN_2PI_E + 0.5 * log_power)
    values = np.concatenate(de_blocks + psd_blocks, axis=1)
    return FeatureSequence(values=values, n_bands=len(bases), n_channels=band_signals[0].shape[0])
