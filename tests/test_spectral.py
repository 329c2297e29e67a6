"""Spectral feature tests: STFT plan, periodogram scaling, log band power, differential entropy."""

import numpy as np
import pytest

from spd_bci.config import PROFILES
from types import SimpleNamespace

from spd_bci.filters import BandSpec, apply_filter_zero_phase, design_butterworth_bandpass, zero_phase_sos
from spd_bci.spectral import (
    HALF_LN_2PI_E,
    POWER_FLOOR,
    FeatureSequence,
    _window_band_powers,
    band_basis,
    band_power,
    build_feature_sequence,
    de_feature,
    frame_signal,
    hann_window,
    log_psd_feature,
    periodogram,
    plan_stft,
)

FS = 200.0


def basis_of(plan, band):
    """The BandBasis of (low, high) Hz edges.

    A BandSpec starts above DC, so a band with a DC edge, which only these
    tests build, passes its edges as a bare record.
    """
    low, high = band
    spec = BandSpec(low, high) if low > 0 else SimpleNamespace(low_hz=low, high_hz=high)
    return band_basis(plan, spec)


def oracle_psd(frame, fs, window):
    """Independent periodogram: explicit O(N^2) DFT with window-energy compensation."""
    n = len(frame)
    windowed = frame * window
    k = np.arange(n // 2 + 1)
    phases = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
    spectrum = phases @ windowed
    psd = np.abs(spectrum) ** 2 / (fs * np.sum(window**2))
    psd[1:] *= 2.0
    if n % 2 == 0:
        psd[-1] /= 2.0
    return k * fs / n, psd


class TestStftPlan:
    @pytest.mark.parametrize("t_seconds,expected_l", [(8.0, 15), (4.0, 7), (1.0, 1), (2.6, 4)])
    def test_window_counts(self, t_seconds, expected_l):
        plan = plan_stft(t_seconds, FS)
        assert plan.n_windows == expected_l
        assert plan.window_length == int(FS)
        assert plan.hop == int(FS) // 2

    def test_window_count_matches_rule_for_integer_durations(self):
        for t in range(1, 12):
            assert plan_stft(float(t), FS).n_windows == 2 * t - 1

    def test_too_short_segment_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            plan_stft(0.5, FS)

    def test_frames_tile_the_signal(self):
        plan = plan_stft(3.0, FS)
        x = np.arange(int(3 * FS), dtype=float)
        frames = frame_signal(x, plan)
        assert frames.shape == (5, 200)
        np.testing.assert_array_equal(frames[1], x[100:300])

    def test_multichannel_frames_are_a_view_of_each_channel(self):
        plan = plan_stft(3.0, FS)
        x = np.random.default_rng(0).standard_normal((3, int(3 * FS)))
        frames = frame_signal(x, plan)
        assert frames.shape == (3, 5, 200)
        assert np.shares_memory(frames, x)
        for ch in range(3):
            np.testing.assert_array_equal(frames[ch], frame_signal(x[ch], plan))


class TestPeriodogram:
    def test_sinusoid_power_at_exact_bin(self):
        # Oracle: explicit DFT of the Hanning-windowed sinusoid.
        amp = 1.7
        freq = 12.0  # exact bin for a 1 s window at integer fs
        t = np.arange(int(FS)) / FS
        frame = amp * np.sin(2 * np.pi * freq * t + 0.3)
        freqs, psd = periodogram(frame, FS)
        measured = band_power(freqs, psd, freq - 2.0, freq + 2.0)
        assert measured == pytest.approx(amp**2 / 2.0, rel=0.02)
        o_freqs, o_psd = oracle_psd(frame, FS, hann_window(len(frame)))
        np.testing.assert_allclose(psd, o_psd, rtol=1e-9, atol=1e-15)

    def test_zero_signal_gives_zero_psd(self):
        freqs, psd = periodogram(np.zeros(int(FS)), FS)
        np.testing.assert_array_equal(psd, 0.0)
        assert freqs[0] == 0.0 and freqs[-1] == FS / 2.0

    def test_white_noise_is_flat(self):
        # Monte-Carlo average over 200 windows; DC and Nyquist carry half the
        # one-sided density, so they are excluded from the flatness check.
        rng = np.random.default_rng(42)
        acc = None
        for _ in range(200):
            frame = rng.standard_normal(int(FS))
            _, psd = periodogram(frame, FS)
            acc = psd if acc is None else acc + psd
        mean_psd = acc / 200.0
        interior = mean_psd[1:-1]
        level = interior.mean()
        assert np.all(np.abs(interior - level) < 0.2 * level)

    def test_total_power_matches_windowed_mean_power(self):
        rng = np.random.default_rng(9)
        frame = rng.standard_normal(int(FS))
        window = hann_window(len(frame))
        freqs, psd = periodogram(frame, FS)
        df = freqs[1] - freqs[0]
        total = np.sum(psd) * df
        compensated = np.sum((frame * window) ** 2) / np.sum(window**2)
        assert total == pytest.approx(compensated, rel=1e-10)


def band_limited_signal(rng, low, high, seconds, target_variance, n_channels=1):
    filt = zero_phase_sos(design_butterworth_bandpass(low, high, 5, FS))
    filtered = apply_filter_zero_phase(filt, rng.standard_normal((n_channels, int(seconds * FS))))
    scale = np.sqrt(target_variance / filtered.var(axis=1, keepdims=True))
    return filtered * scale


class TestLogPsdFeature:
    def test_unit_band_power_gives_zero(self):
        # Sinusoid of amplitude sqrt(2) carries band power 1.
        t = np.arange(int(4 * FS)) / FS
        x = np.sqrt(2.0) * np.sin(2 * np.pi * 10.0 * t)[None, :]
        plan = plan_stft(4.0, FS)
        values = log_psd_feature(x, plan, basis_of(plan, (8.0, 13.0)))
        assert values.shape == (7, 1)
        np.testing.assert_allclose(values, 0.0, atol=0.05)

    def test_band_power_e_gives_one(self):
        t = np.arange(int(4 * FS)) / FS
        amp = np.sqrt(2.0 * np.e)
        x = amp * np.sin(2 * np.pi * 10.0 * t)[None, :]
        plan = plan_stft(4.0, FS)
        values = log_psd_feature(x, plan, basis_of(plan, (8.0, 13.0)))
        np.testing.assert_allclose(values, 1.0, atol=0.05)

    def test_zero_signal_hits_floor(self):
        plan = plan_stft(2.0, FS)
        values = log_psd_feature(np.zeros((2, int(2 * FS))), plan, basis_of(plan, (8.0, 13.0)))
        np.testing.assert_allclose(values, np.log(POWER_FLOOR))
        assert values == pytest.approx(-23.026, abs=1e-3)


class TestDeFeature:
    def test_half_log_2pie_constant(self):
        assert HALF_LN_2PI_E == pytest.approx(1.41894, abs=1e-5)
        assert HALF_LN_2PI_E == pytest.approx(0.5 * np.log(2 * np.pi * np.e), abs=0)

    def test_unit_variance_value(self):
        # Variance 1 in band -> DE = 0.5*ln(2*pi*e) exactly by the formula.
        t = np.arange(int(4 * FS)) / FS
        x = np.sqrt(2.0) * np.sin(2 * np.pi * 10.0 * t)[None, :]
        plan = plan_stft(4.0, FS)
        values = de_feature(x, plan, basis_of(plan, (8.0, 13.0)))
        np.testing.assert_allclose(values, 1.41894, atol=0.03)

    def test_variance_two_value(self):
        t = np.arange(int(4 * FS)) / FS
        x = 2.0 * np.sin(2 * np.pi * 10.0 * t)[None, :]
        plan = plan_stft(4.0, FS)
        values = de_feature(x, plan, basis_of(plan, (8.0, 13.0)))
        np.testing.assert_allclose(values, 1.76551, atol=0.03)

    def test_band_limited_noise_matches_sample_variance_oracle(self):
        # Oracle: the sample variance of the filtered signal (scaled to 4).
        rng = np.random.default_rng(12)
        x = band_limited_signal(rng, 8.0, 13.0, seconds=51.0, target_variance=4.0)
        oracle_variance = x.var()
        assert oracle_variance == pytest.approx(4.0, rel=1e-12)
        plan = plan_stft(51.0, FS)
        assert plan.n_windows == 101
        # A 1 Hz margin captures the filter's transition skirts.
        values = de_feature(x, plan, basis_of(plan, (7.0, 14.0)))
        expected = 0.5 * np.log(2 * np.pi * np.e * oracle_variance)
        assert expected == pytest.approx(2.11209, abs=1e-5)
        assert values.mean() == pytest.approx(expected, abs=0.1)

    def test_time_domain_estimator_agrees_on_band_limited_noise(self):
        rng = np.random.default_rng(21)
        x = band_limited_signal(rng, 8.0, 13.0, seconds=21.0, target_variance=1.0)
        plan = plan_stft(21.0, FS)
        basis = basis_of(plan, (7.0, 14.0))
        spectral_de = de_feature(x, plan, basis).mean()
        time_de = de_feature(x, plan, basis, estimator="time").mean()
        assert spectral_de == pytest.approx(time_de, abs=0.1)


class TestFeatureSequence:
    def _noise_bands(self, rng, n_channels, bands, seconds):
        x = rng.standard_normal((n_channels, int(seconds * FS)))
        return [
            apply_filter_zero_phase(
                zero_phase_sos(design_butterworth_bandpass(low, high, 5, FS)), x
            )
            for low, high in bands
        ]

    def test_seed_profile_dimensions(self):
        # Five rhythms, 62 channels: 620 features per window, 15 windows at 8 s.
        rng = np.random.default_rng(0)
        bands = [(1.0, 3.0), (4.0, 7.0), (8.0, 13.0), (14.0, 30.0), (31.0, 50.0)]
        band_signals = self._noise_bands(rng, 62, bands, 8.0)
        plan = plan_stft(8.0, FS)
        features = build_feature_sequence(band_signals, [basis_of(plan, b) for b in bands], plan)
        assert features.values.shape == (15, 620)

    def test_minimal_dimensions(self):
        rng = np.random.default_rng(1)
        bands = [(8.0, 13.0)]
        plan = plan_stft(2.0, FS)
        features = build_feature_sequence(
            self._noise_bands(rng, 1, bands, 2.0), [basis_of(plan, b) for b in bands], plan
        )
        assert features.values.shape == (3, 2)

    def test_layout_de_block_then_log_psd_block(self):
        rng = np.random.default_rng(2)
        bands = [(8.0, 13.0), (18.0, 22.0)]
        band_signals = self._noise_bands(rng, 3, bands, 2.0)
        plan = plan_stft(2.0, FS)
        bases = [basis_of(plan, b) for b in bands]
        features = build_feature_sequence(band_signals, bases, plan)
        de_b0 = de_feature(band_signals[0], plan, bases[0])
        psd_b1 = log_psd_feature(band_signals[1], plan, bases[1])
        np.testing.assert_allclose(features.values[:, 0:3], de_b0)
        np.testing.assert_allclose(features.values[:, 9:12], psd_b1)

    def test_band_channel_mismatch_raises(self):
        rng = np.random.default_rng(3)
        bands = [(8.0, 13.0), (18.0, 22.0)]
        signals = self._noise_bands(rng, 2, bands, 2.0)
        plan = plan_stft(2.0, FS)
        with pytest.raises(ValueError, match="band"):
            build_feature_sequence(signals[:1], [basis_of(plan, b) for b in bands], plan)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureSequence(np.array([[np.inf, 0.0]]), n_bands=1, n_channels=1)


class TestFeatureInvariants:
    def test_de_equals_half_log_psd_plus_constant(self):
        # Both features come from the same band-power estimate, so
        # DE - 0.5 * logPSD is the Gaussian entropy constant.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, int(3 * FS)))
        plan = plan_stft(3.0, FS)
        basis = basis_of(plan, (8.0, 13.0))
        de = de_feature(x, plan, basis)
        log_psd = log_psd_feature(x, plan, basis)
        np.testing.assert_allclose(de - 0.5 * log_psd, HALF_LN_2PI_E, atol=1e-12)

    def test_amplitude_scaling_shifts(self):
        # Scaling the signal by a scales powers by a^2: log-PSD shifts by
        # ln(a^2) and differential entropy by half of that.
        rng = np.random.default_rng(5)
        base = rng.standard_normal((2, int(3 * FS)))
        a = 3.7
        plan = plan_stft(3.0, FS)
        basis = basis_of(plan, (8.0, 13.0))
        psd_shift = log_psd_feature(a * base, plan, basis) - log_psd_feature(base, plan, basis)
        de_shift = de_feature(a * base, plan, basis) - de_feature(base, plan, basis)
        np.testing.assert_allclose(psd_shift, np.log(a**2), atol=1e-8)
        np.testing.assert_allclose(de_shift, 0.5 * np.log(a**2), atol=1e-8)

    def test_features_finite_for_arbitrary_finite_input(self):
        rng = np.random.default_rng(6)
        wild = rng.standard_normal((2, int(2 * FS))) * np.array([[1e-30], [1e12]])
        wild[0, :50] = 0.0
        plan = plan_stft(2.0, FS)
        features = build_feature_sequence([wild], [basis_of(plan, (8.0, 13.0))], plan)
        assert np.all(np.isfinite(features.values))


# Each bench profile's bands at its rate: ``seed`` (5 rhythms at 200 Hz), ``bci2a``
# (25 bands of 2 Hz at 250 Hz) and ``lstm-train`` (4 bands at 200 Hz).
PROFILE_BAND_CASES = [
    pytest.param(
        PROFILES[name]["fs"], (band.low_hz, band.high_hz), id=f"{name}-{band.low_hz}-{band.high_hz}"
    )
    for name in ("seed", "bci2a")
    for band in PROFILES[name]["bands"]
] + [
    pytest.param(200.0, band, id=f"lstm-train-{band[0]}-{band[1]}")
    for band in ((4.0, 8.0), (8.0, 13.0), (13.0, 30.0), (30.0, 45.0))
]
EDGE_CASES = [
    pytest.param(fs, band, id=f"{name}-{fs}")
    for name, band in (
        ("edges-on-bins", (8.0, 13.0)),
        ("edges-between-bins", (4.5, 7.5)),
        ("dc-edge", (0.0, 62.0)),
        ("up-to-nyquist", (0.0, 100.0)),
    )
    for fs in (200.0, 125.0)  # even and odd window lengths
]


class TestVectorizedBandPowers:
    """The in-band DFT kernel against a per-frame periodogram + band_power loop."""

    @staticmethod
    def frame_loop(x, plan, low, high):
        powers = np.empty((plan.n_windows, x.shape[0]))
        for ch in range(x.shape[0]):
            for w, frame in enumerate(frame_signal(x[ch], plan)):
                freqs, psd = periodogram(frame, plan.fs, plan.window)
                powers[w, ch] = band_power(freqs, psd, low, high)
        return powers

    @pytest.mark.parametrize("fs,band", EDGE_CASES + PROFILE_BAND_CASES)
    def test_matches_per_frame_oracle(self, fs, band):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((3, int(3.5 * fs)))
        plan = plan_stft(3.5, fs)
        got = _window_band_powers(x, plan, basis_of(plan, band))
        assert got.shape == (plan.n_windows, 3)
        np.testing.assert_allclose(got, self.frame_loop(x, plan, *band), rtol=1e-12)

    def test_empty_band_raises(self):
        with pytest.raises(ValueError, match="no PSD bins"):
            basis_of(plan_stft(2.0, FS), (10.2, 10.8))
