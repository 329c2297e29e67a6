"""Filtering, normalization, and filter-bank decomposition of multichannel EEG.

The kernels take and return arrays: a (channels, samples) float64 array
in, a new array out, so they are pure and safe to run concurrently across
trials. :class:`EegSegment` is the record of one trial that the files and
generators hold (samples, rate and label); of the kernels only
:func:`filter_bank_decompose` reads one, to check its rate against the
bank's. Band-pass filters are Butterworth designs (analog prototype +
bilinear transform) realized as second-order sections and applied
forward-backward for zero phase, with odd reflection padding of three
filter orders at the edges.

Everything here is numpy: the designs follow scipy's zero-pole-gain route
and the zero-phase passes take the same steps as ``sosfiltfilt`` and
``filtfilt``, which the tests use as the oracle. A filter is designed once
per run: a :class:`ZeroPhaseFilter` keeps its initial conditions ``zi``
and its cascade lifted to blocks of :data:`FILTER_BLOCK` samples, so a
pass over a (channels, samples) array is a few matrix products per block.
Its output agrees with scipy's to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class EegSegment:
    """One multichannel EEG trial, as the files and the generators hold it.

    Parameters
    ----------
    samples : ndarray
        Real matrix of shape (n_channels, n_samples).
    fs : float
        Sampling rate in Hz.
    label : int | float | None
        Optional class index or finite real-valued target.
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
        if isinstance(self.label, (float, np.floating)) and not np.isfinite(self.label):
            raise ValueError(f"label {self.label!r} is not a finite real target")

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


# Samples per block of the zero-phase kernel. Each sample costs about K + 2M
# multiply-adds in the block products (M = two states per section), and the
# block-to-block carry takes log2(blocks) batched steps, so K trades matmul
# work against interpreter steps. Of K = 16, 32, 64 and 128, 64 was the
# fastest, or within timing noise of it, for the preprocess filters and the
# filter banks at the seed (62 x 1600, 5 bands), bci2a (22 x 1000, 25 bands)
# and lstm-train (8 x 1600, 4 bands) shapes. The block matrices are built by
# repeated squaring, so K is a power of two.
FILTER_BLOCK = 64


@dataclass(frozen=True)
class ZeroPhaseFilter:
    """A cascade of second-order sections, designed once and lifted to blocks.

    The cascade runs in state-space form x' = A x + B u, y = C x + D u, each
    section in transposed direct form II as ``sosfilt`` runs it, so the
    state has M = 2 entries per section. For blocks of K =
    :data:`FILTER_BLOCK` samples the recursion is lifted to matrices (Burrus
    1972, "block realization"): a block u that starts in state s gives the
    output T u + O s and ends in state A^K s + R u. T is the lower-triangular
    Toeplitz matrix of the impulse response, O stacks the rows C A^i and R
    the columns A^(K-1-i) B; the fields hold their transposes, to multiply
    rows of samples from the right. ``zi`` = (I - A)^-1 B is the steady
    state for a unit constant input; ``padlen`` is three filter orders.
    """

    sos: np.ndarray
    zi: np.ndarray
    padlen: int
    toeplitz: np.ndarray  # T^T, (K, K)
    to_state: np.ndarray  # R^T, (K, M)
    observe: np.ndarray  # O^T, (M, K)
    advance: np.ndarray  # (A^K)^T, (M, M)

    def run(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """One causal pass along the samples of ``x`` (rows, n), from ``state`` (rows, M)."""
        rows, n = x.shape
        k, m = self.toeplitz.shape[0], self.advance.shape[0]
        blocks = -(-n // k)
        u = np.zeros((rows, blocks, k))  # a zero tail: no input reaches an earlier output
        u.reshape(rows, blocks * k)[:, :n] = x
        # starts[:, j] is the state at the start of block j: the previous
        # block's input response plus A^K times the state before it. An
        # inclusive scan in log2(blocks) steps (Hillis and Steele 1986)
        # turns the one-block increments into those states.
        starts = np.empty((rows, blocks, m))
        starts[:, 0] = state
        np.matmul(u[:, :-1], self.to_state, out=starts[:, 1:])
        power, shift = self.advance, 1
        while shift < blocks:
            starts[:, shift:] += starts[:, :-shift] @ power
            power, shift = power @ power, 2 * shift
        y = u @ self.toeplitz
        y += np.matmul(starts, self.observe, out=u)
        return y.reshape(rows, blocks * k)[:, :n]


def zero_phase_sos(sos: np.ndarray) -> ZeroPhaseFilter:
    """Second-order sections lifted to the block kernel, ready to apply many times."""
    sos = np.asarray(sos, dtype=np.float64)
    # The cascade's state space, one section at a time; each section reads
    # the output C x + D u of the sections before it.
    a, b, c, d = np.zeros((0, 0)), np.zeros(0), np.zeros(0), 1.0
    for b0, b1, b2, _, a1, a2 in sos:
        m = len(b)
        b_sec = np.array([b1 - a1 * b0, b2 - a2 * b0])
        grown = np.zeros((m + 2, m + 2))
        grown[:m, :m] = a
        grown[m:, :m] = np.outer(b_sec, c)
        grown[m:, m:] = [[-a1, 1.0], [-a2, 0.0]]
        a, b = grown, np.concatenate((b, b_sec * d))
        c, d = np.concatenate((b0 * c, [1.0, 0.0])), b0 * d
    # Rows C A^i and (A^i B)^T for i < K, doubling the count each step.
    rows_c, rows_b, power = c[None, :], b[None, :], a
    while len(rows_c) < FILTER_BLOCK:
        rows_c = np.concatenate((rows_c, rows_c @ power))
        rows_b = np.concatenate((rows_b, rows_b @ power.T))
        power = power @ power
    impulse = np.concatenate(([d], rows_c[:-1] @ b))
    lag = np.subtract.outer(np.arange(FILTER_BLOCK), np.arange(FILTER_BLOCK))
    return ZeroPhaseFilter(
        sos=sos,
        zi=np.linalg.solve(np.eye(len(b)) - a, b),
        padlen=3 * 2 * sos.shape[0],  # each section is of order two
        toeplitz=np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0).T.copy(),
        to_state=rows_b[::-1].copy(),
        observe=rows_c.T.copy(),
        advance=power.T.copy(),
    )


def design_notch(fs: float, f0: float = 50.0, quality: float = 30.0) -> ZeroPhaseFilter:
    """Second-order IIR notch at ``f0`` Hz (``iirnotch``'s closed form), ready to apply."""
    if f0 >= fs / 2.0:
        raise ValueError(f"notch frequency {f0} Hz is not below Nyquist {fs / 2.0} Hz")
    if f0 <= 0:
        raise ValueError(f"notch frequency must be positive, got {f0}")
    # Bandwidth f0 / quality between the -3 dB points.
    gain = 1.0 / (1.0 + np.tan(np.pi * f0 / (quality * fs)))
    cos_w0 = np.cos(2.0 * np.pi * f0 / fs)
    sos = [[gain, -2.0 * gain * cos_w0, gain, 1.0, -2.0 * gain * cos_w0, 2.0 * gain - 1.0]]
    return zero_phase_sos(sos)


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


def _butterworth_sos(order: int, edges_hz, fs: float) -> np.ndarray:
    """Digital Butterworth sections: a low-pass for one edge, a band-pass for two.

    scipy's zero-pole-gain route: the analog prototype's poles, the
    low-pass or band-pass transform at pre-warped edges, the bilinear
    transform, then sections that pair each pole (or pair of real poles)
    with its nearest zeros, the poles nearest the unit circle last.
    """
    # Frequencies are normalized to a rate of 2, where the bilinear
    # transform maps s to z = (4 + s) / (4 - s), as scipy's do.
    warped = 4.0 * np.tan(np.pi * np.asarray(edges_hz, dtype=np.float64) / fs)
    poles = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
    if warped.size == 1:
        poles = poles * warped[0]
        zeros = [-1.0] * order  # the prototype's zeros at infinity
        gain = warped[0] ** order
    else:
        bw = warped[1] - warped[0]
        center = np.sqrt(warped[0] * warped[1])
        half = poles * bw / 2.0
        root = np.sqrt(half**2 - center**2)
        poles = np.concatenate((half + root, half - root))
        zeros = [1.0] * order + [-1.0] * order  # zeros at s = 0 and at infinity
        gain = bw**order * 4.0**order
    gain = np.real(gain / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    if np.any(np.abs(poles) >= 1.0):
        raise ValueError(f"designed filter for edges {edges_hz} Hz at fs={fs} is unstable")
    if len(poles) % 2:
        poles = np.append(poles, 0.0)
        zeros.append(0.0)

    tol = 100 * np.finfo(np.float64).eps * np.abs(poles)
    upper = list(poles[poles.imag > tol])  # one pole of each conjugate pair
    real = list(poles.real[np.abs(poles.imag) <= tol])

    def off_circle(p):
        return abs(1.0 - abs(p))

    sections = []
    while upper or real:
        p = min(upper + real, key=off_circle)
        if p in upper:
            upper.remove(p)
            den = [1.0, -2.0 * p.real, abs(p) ** 2]
        else:
            real.remove(p)
            q = min(real, key=off_circle)
            real.remove(q)
            den = [1.0, -(p + q), p * q]
        z1 = min(zeros, key=lambda z: abs(z - p))
        zeros.remove(z1)
        z2 = min(zeros, key=lambda z: abs(z - p))
        zeros.remove(z2)
        sections.append([1.0, -(z1 + z2), z1 * z2] + den)
    sos = np.array(sections[::-1])
    sos[0, :3] *= gain
    return sos


def design_butterworth_bandpass(low_hz, high_hz, order, fs) -> np.ndarray:
    """Design a digital Butterworth band-pass filter.

    The design uses the analog prototype with bilinear transform and
    frequency pre-warping (scipy's default route) and returns second-order
    sections for numerical stability. Gain is 1/sqrt(2) at each edge.

    Returns
    -------
    ndarray
        Second-order sections, shape (order, 6).
    """
    band = BandSpec(low_hz, high_hz, order)
    nyquist = fs / 2.0
    if band.high_hz >= nyquist:
        raise ValueError(
            f"band ({low_hz}, {high_hz}) Hz exceeds Nyquist {nyquist} Hz at fs={fs}"
        )
    return _butterworth_sos(order, [low_hz, high_hz], fs)


def design_butterworth_lowpass(cutoff_hz, order, fs) -> np.ndarray:
    """Digital Butterworth low-pass sections by the same route; gain 1/sqrt(2) at the cutoff."""
    if order < 1:
        raise ValueError(f"filter order must be >= 1, got {order}")
    if not 0.0 < cutoff_hz < fs / 2.0:
        raise ValueError(f"cutoff {cutoff_hz} Hz is not inside (0, {fs / 2.0}) Hz")
    return _butterworth_sos(order, [cutoff_hz], fs)


def frequency_response(sos: np.ndarray, freqs_hz, fs) -> np.ndarray:
    """Complex single-pass response of a second-order-section filter."""
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    z1 = np.exp(-2j * np.pi * freqs / fs)  # z^-1 on the unit circle
    powers = np.stack((np.ones_like(z1), z1, z1 * z1))
    sos = np.asarray(sos, dtype=np.float64)
    return np.prod((sos[:, :3] @ powers) / (sos[:, 3:] @ powers), axis=0)


def _odd_extend(x: np.ndarray, n: int) -> np.ndarray:
    """Extend each row by ``n`` samples at both ends, point-reflected about the edge sample."""
    left = 2 * x[:, :1] - x[:, n:0:-1]
    right = 2 * x[:, -1:] - x[:, -2:-(n + 2):-1]
    return np.concatenate((left, x, right), axis=1)


def apply_filter_zero_phase(filt: ZeroPhaseFilter, x: np.ndarray) -> np.ndarray:
    """Forward-backward filter a (channels, samples) array: zero phase shift, same shape.

    ``filt`` is designed once with :func:`zero_phase_sos`. Edges are
    handled with odd reflection padding of three filter orders; the array
    must be longer than that padding. Each pass starts in the steady state
    of its first sample, as ``sosfiltfilt``/``filtfilt`` do. A stable
    filter maps finite samples to finite samples, so the output is not
    checked again.
    """
    n = filt.padlen
    if x.shape[1] <= n:
        raise ValueError(
            f"segment too short for zero-phase filtering: {x.shape[1]} samples, "
            f"need more than {n}"
        )
    ext = _odd_extend(x, n)
    y = filt.run(ext, ext[:, :1] * filt.zi)
    y = filt.run(y[:, ::-1], y[:, -1:] * filt.zi)
    return y[:, ::-1][:, n:-n]


def notch_filter(x: np.ndarray, fs: float, f0: float = 50.0, quality: float = 30.0) -> np.ndarray:
    """Suppress one mains frequency with a zero-phase second-order notch.

    The notch is >= 30 dB deep at ``f0`` while neighbors 5 Hz away lose
    less than 3 dB. This designs the notch for one call; a run that
    filters many trials designs it once with :func:`design_notch`.
    """
    return apply_filter_zero_phase(design_notch(fs, f0, quality), x)


def minmax_normalize(x: np.ndarray, constant_channel: str = "error") -> np.ndarray:
    """Rescale each channel (row) affinely to [-1, 1].

    The per-channel minimum maps to -1 and the maximum to +1. A constant
    channel has no well-defined scale; with ``constant_channel="error"``
    (default) it raises, with ``"zero"`` the channel maps to all zeros.
    """
    if constant_channel not in ("error", "zero"):
        raise ValueError(f"unknown constant_channel mode {constant_channel!r}")
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
    return out


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


def filter_bank_decompose(segment: EegSegment, bank: FilterBank) -> np.ndarray:
    """The segment's band-limited copies, one per bank band, as one (H, N, T) array.

    The zero-phase pass returns a time-reversed view. The SCMs and spectra
    read every band whole, and ``x @ x.T`` on that view takes a slower BLAS
    path whose last bits depend on the BLAS thread count, so each band is
    written once into the C-ordered result.
    """
    if segment.fs != bank.fs:
        raise ValueError(
            f"segment rate {segment.fs} Hz does not match bank rate {bank.fs} Hz"
        )
    out = np.empty((bank.n_bands, *segment.samples.shape))
    for band, filt in zip(out, bank.filters):
        band[...] = apply_filter_zero_phase(filt, segment.samples)
    return out


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
