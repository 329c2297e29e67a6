"""Signal-path tests: Butterworth design, zero-phase filtering, notch, normalization, bank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spd_bci.filters import (
    FILTER_BLOCK,
    BandSpec,
    EegSegment,
    ZeroPhaseFilter,
    apply_filter_zero_phase,
    design_butterworth_bandpass,
    design_butterworth_lowpass,
    design_filter_bank,
    design_notch,
    filter_bank_decompose,
    frequency_response,
    minmax_normalize,
    notch_filter,
    seed_rhythm_bands,
    uniform_bands,
    zero_phase_sos,
)

FS = 200.0


def make_segment(samples, fs=FS, label=None):
    return EegSegment(np.atleast_2d(np.asarray(samples, dtype=float)), fs, label)


def sinusoid(freq, fs=FS, seconds=10.0, amp=1.0, phase=0.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2.0 * np.pi * freq * t + phase)


def _bank_cases():
    """(band, fs) for every seed and bci2a band, plus the broadband filter at both rates."""
    cases = [(b, 200.0) for b in seed_rhythm_bands()] + [(b, 250.0) for b in uniform_bands(0.5, 50.5, 2.0)]
    return cases + [(BandSpec(0.5, 70.0, 5), 200.0), (BandSpec(0.5, 70.0, 5), 250.0)]


# The kernel sums each block's impulse response and state terms in another
# order than scipy's sample-by-sample recursion, so outputs agree to
# rounding: at most 8.5e-12 of the peak here (the 0.5-70 Hz broadband, whose
# poles sit both near z = 1 and far inside the circle), so 1e-10 leaves a
# margin for other BLAS builds.
ZERO_PHASE_RTOL = 1e-10


def assert_close_to_peak(got, want, rtol=ZERO_PHASE_RTOL):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestButterworthDesign:
    def test_passband_unity_at_geometric_center(self):
        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        center = np.sqrt(8.0 * 13.0)
        gain = np.abs(frequency_response(sos, center, FS))[0]
        assert gain == pytest.approx(1.0, rel=0.01)

    def test_cutoff_gain_is_half_power(self):
        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        gains = np.abs(frequency_response(sos, [8.0, 13.0], FS))
        np.testing.assert_allclose(gains, 1.0 / np.sqrt(2.0), rtol=0.01)

    def test_dc_is_rejected(self):
        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        segment = make_segment(np.ones(2000))
        out = apply_filter_zero_phase(sos, segment)
        in_power = np.mean(segment.samples**2)
        out_power = np.mean(out.samples**2)
        assert out_power < 1e-6 * in_power

    @pytest.mark.parametrize(
        "low,high", [(0.0, 13.0), (13.0, 8.0), (8.0, 100.0), (-3.0, 8.0)]
    )
    def test_invalid_band_edges_raise(self, low, high):
        with pytest.raises(ValueError):
            design_butterworth_bandpass(low, high, 5, FS)

    @pytest.mark.parametrize("band,fs", _bank_cases(), ids=lambda v: str(v))
    def test_matches_scipy_butter(self, band, fs):
        from scipy.signal import butter, sosfreqz

        want = butter(band.order, [band.low_hz, band.high_hz], btype="bandpass", fs=fs, output="sos")
        sos = design_butterworth_bandpass(band.low_hz, band.high_hz, band.order, fs)
        np.testing.assert_allclose(sos, want, rtol=1e-12, atol=1e-15)
        freqs = np.linspace(0.0, fs / 2.0, 501)
        _, h = sosfreqz(want, worN=freqs, fs=fs)
        np.testing.assert_allclose(frequency_response(sos, freqs, fs), h, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("order,cutoff,fs", [(8, 40.0, 1000.0), (8, 50.0, 250.0), (3, 8.0, 200.0)])
    def test_lowpass_matches_scipy_butter(self, order, cutoff, fs):
        from scipy.signal import butter

        want = butter(order, cutoff, btype="lowpass", fs=fs, output="sos")
        np.testing.assert_allclose(design_butterworth_lowpass(cutoff, order, fs), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("cutoff,order", [(0.0, 8), (100.0, 8), (40.0, 0)])
    def test_invalid_lowpass_raises(self, cutoff, order):
        with pytest.raises(ValueError):
            design_butterworth_lowpass(cutoff, order, FS)

    def test_stability_impulse_response_decays(self):
        # Impulse responses fall below 1e-8 within 10*fs samples. Order-5
        # designs for the two lowest bands (low edge under 4 Hz) ring for up
        # to ~21 s, so those get a 25 s horizon instead.
        from scipy.signal import sosfilt

        bands = seed_rhythm_bands() + uniform_bands(0.5, 50.5, 2.0)
        for band in bands:
            horizon = 10.0 if band.low_hz >= 4.0 else 25.0
            impulse = np.zeros(int((horizon + 2.0) * FS))
            impulse[0] = 1.0
            sos = design_butterworth_bandpass(band.low_hz, band.high_hz, band.order, FS)
            response = sosfilt(sos, impulse)
            tail = response[int(horizon * FS):]
            assert np.max(np.abs(tail)) < 1e-8, f"band {band} decays too slowly"


class TestZeroPhaseFiltering:
    def test_band_center_sinusoid_keeps_phase(self):
        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        freq = np.sqrt(8.0 * 13.0)
        segment = make_segment(sinusoid(freq, seconds=20.0))
        out = apply_filter_zero_phase(sos, segment)
        # Complex demodulation over the central half avoids edge transients.
        n = segment.n_samples
        sl = slice(n // 4, 3 * n // 4)
        t = np.arange(n) / FS
        probe = np.exp(-2j * np.pi * freq * t[sl])
        phase_in = np.angle(np.sum(segment.samples[0, sl] * probe))
        phase_out = np.angle(np.sum(out.samples[0, sl] * probe))
        delta = (phase_out - phase_in + np.pi) % (2 * np.pi) - np.pi
        assert abs(delta) < 1e-3

    def test_zero_input_gives_zero_output(self):
        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        segment = make_segment(np.zeros((3, 500)))
        out = apply_filter_zero_phase(sos, segment)
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_white_noise_power_concentrates_in_band(self):
        # Oracle: DFT power ratio of the filtered output.
        rng = np.random.default_rng(7)
        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        segment = make_segment(rng.standard_normal(int(60 * FS)))
        out = apply_filter_zero_phase(sos, segment).samples[0]
        spectrum = np.abs(np.fft.rfft(out)) ** 2
        freqs = np.fft.rfftfreq(out.size, d=1.0 / FS)
        in_band = (freqs >= 7.0) & (freqs <= 14.0)
        assert spectrum[in_band].sum() / spectrum.sum() > 0.95

    def test_short_segment_raises(self):
        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        with pytest.raises(ValueError, match="too short"):
            apply_filter_zero_phase(sos, make_segment(np.zeros((1, 20))))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        x = make_segment(rng.standard_normal((2, 1000)))
        y = make_segment(rng.standard_normal((2, 1000)))
        a, b = 1.7, -0.4
        combined = apply_filter_zero_phase(sos, make_segment(a * x.samples + b * y.samples))
        separate = a * apply_filter_zero_phase(sos, x).samples + b * apply_filter_zero_phase(sos, y).samples
        err = np.linalg.norm(combined.samples - separate) / np.linalg.norm(separate)
        assert err < 1e-10


class TestDesignedOnce:
    # Named for the scipy functions they once matched bit for bit; they now
    # hold the outputs to ZERO_PHASE_RTOL of scipy's.
    @pytest.mark.parametrize("band,fs", _bank_cases(), ids=lambda v: str(v))
    def test_matches_sosfiltfilt_bit_for_bit(self, band, fs):
        from scipy.signal import butter, sosfiltfilt

        scipy_sos = butter(band.order, [band.low_hz, band.high_hz], btype="bandpass", fs=fs, output="sos")
        sos = design_butterworth_bandpass(band.low_hz, band.high_hz, band.order, fs)
        designed = zero_phase_sos(sos)
        assert isinstance(designed, ZeroPhaseFilter) and designed.padlen == 3 * 2 * len(sos)
        rng = np.random.default_rng(int(band.low_hz * 10))
        for n in (designed.padlen + 1, designed.padlen + 2, 1000):
            x = 40.0 * rng.standard_normal((3, n))
            want = sosfiltfilt(scipy_sos, x, axis=1, padtype="odd", padlen=designed.padlen)
            assert_close_to_peak(apply_filter_zero_phase(designed, make_segment(x, fs)).samples, want)
            assert_close_to_peak(apply_filter_zero_phase(sos, make_segment(x, fs)).samples, want)

    @pytest.mark.parametrize("fs", [200.0, 250.0])
    def test_notch_matches_filtfilt_bit_for_bit(self, fs):
        from scipy.signal import filtfilt, iirnotch

        b, a = iirnotch(50.0, 30.0, fs=fs)
        notch = design_notch(fs, 50.0)
        np.testing.assert_allclose(notch.sos, [np.concatenate((b, a))], rtol=1e-15)
        rng = np.random.default_rng(int(fs))
        for n in (7, 8, 1000):
            x = rng.standard_normal((4, n))
            want = filtfilt(b, a, x, axis=1, padtype="odd", padlen=6)
            assert_close_to_peak(apply_filter_zero_phase(notch, make_segment(x, fs)).samples, want)
            assert_close_to_peak(notch_filter(make_segment(x, fs), 50.0).samples, want)

    def test_lengths_around_block_edges_match_sosfiltfilt(self):
        # Padded lengths one short of, at and one past 1, 2 and 3 blocks.
        from scipy.signal import sosfiltfilt

        sos = design_butterworth_bandpass(8.0, 13.0, 5, FS)
        designed = zero_phase_sos(sos)
        rng = np.random.default_rng(2)
        for blocks in (1, 2, 3):
            for extra in (-1, 0, 1):
                n = blocks * FILTER_BLOCK + extra - 2 * designed.padlen
                if n <= designed.padlen:
                    continue
                x = rng.standard_normal((2, n))
                want = sosfiltfilt(sos, x, axis=1, padtype="odd", padlen=designed.padlen)
                assert_close_to_peak(apply_filter_zero_phase(designed, make_segment(x)).samples, want)

    def test_bank_holds_one_designed_filter_per_band(self):
        from scipy.signal import sosfilt_zi

        bank = design_filter_bank(seed_rhythm_bands(), FS)
        assert len(bank.filters) == bank.n_bands == 5
        for band, designed in zip(bank.bands, bank.filters):
            sos = design_butterworth_bandpass(band.low_hz, band.high_hz, band.order, FS)
            np.testing.assert_array_equal(designed.sos, sos)
            # The cascade's state is the sections' states in order, as sosfilt keeps them.
            np.testing.assert_allclose(designed.zi, sosfilt_zi(sos).ravel(), rtol=1e-9, atol=1e-12)


class TestNotchFilter:
    def test_mains_frequency_attenuated_30db(self):
        # The notch's steady-state gain at 50 Hz is essentially zero; what is
        # left after filtering a pure tone is the edge transient of the
        # forward-backward pass, whose RMS share shrinks as 1/sqrt(duration).
        # A 60 s tone keeps it well under the 30 dB target.
        segment = make_segment(sinusoid(50.0, seconds=60.0))
        out = notch_filter(segment, 50.0)
        rms_in = np.sqrt(np.mean(segment.samples**2))
        rms_out = np.sqrt(np.mean(out.samples**2))
        assert rms_out < 0.032 * rms_in

    def test_mains_component_removed_at_trial_scale(self):
        # On an 8 s trial, check the 50 Hz DFT component itself: > 30 dB down.
        segment = make_segment(sinusoid(50.0, seconds=8.0) + sinusoid(10.0, seconds=8.0))
        out = notch_filter(segment, 50.0)
        spectrum_in = np.abs(np.fft.rfft(segment.samples[0]))
        spectrum_out = np.abs(np.fft.rfft(out.samples[0]))
        freqs = np.fft.rfftfreq(segment.n_samples, d=1.0 / FS)
        bin_50 = np.argmin(np.abs(freqs - 50.0))
        assert spectrum_out[bin_50] < 0.032 * spectrum_in[bin_50]
        bin_10 = np.argmin(np.abs(freqs - 10.0))
        assert spectrum_out[bin_10] > 0.95 * spectrum_in[bin_10]

    def test_neighbors_keep_most_power(self):
        for freq in (45.0, 55.0):
            segment = make_segment(sinusoid(freq, seconds=10.0))
            out = notch_filter(segment, 50.0)
            ratio = np.sqrt(np.mean(out.samples**2) / np.mean(segment.samples**2))
            assert ratio > 10 ** (-3.0 / 20.0)  # less than 3 dB down

    def test_distant_sinusoid_passes(self):
        # Oracle: the designed filter's own response at 10 Hz (applied twice).
        from scipy.signal import freqz, iirnotch

        segment = make_segment(sinusoid(10.0, seconds=10.0))
        out = notch_filter(segment, 50.0)
        measured = np.sqrt(np.mean(out.samples**2) / np.mean(segment.samples**2))
        b, a = iirnotch(50.0, 30.0, fs=FS)
        _, h = freqz(b, a, worN=[10.0], fs=FS)
        predicted = np.abs(h[0]) ** 2  # forward-backward pass squares the gain
        assert measured == pytest.approx(predicted, abs=0.005)
        assert measured == pytest.approx(1.0, abs=0.05)

    def test_zero_input_zero_output(self):
        out = notch_filter(make_segment(np.zeros((2, 400))), 50.0)
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_notch_at_or_above_nyquist_raises(self):
        with pytest.raises(ValueError):
            notch_filter(make_segment(np.zeros((1, 400))), 100.0)


class TestMinmaxNormalize:
    def test_three_point_channel(self):
        out = minmax_normalize(make_segment([0.0, 5.0, 10.0]))
        np.testing.assert_allclose(out.samples[0], [-1.0, 0.0, 1.0])

    def test_already_normalized_channel_unchanged(self):
        out = minmax_normalize(make_segment([-1.0, 1.0]))
        np.testing.assert_array_equal(out.samples[0], [-1.0, 1.0])

    def test_constant_channel_raises_by_default(self):
        with pytest.raises(ValueError, match="constant channel"):
            minmax_normalize(make_segment([2.0, 2.0, 2.0]))

    def test_constant_channel_maps_to_zero_when_enabled(self):
        out = minmax_normalize(make_segment([2.0, 2.0, 2.0]), constant_channel="zero")
        np.testing.assert_array_equal(out.samples[0], 0.0)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values):
        if max(values) == min(values):
            return
        once = minmax_normalize(make_segment(values))
        twice = minmax_normalize(once)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_range_endpoints(self):
        rng = np.random.default_rng(3)
        out = minmax_normalize(make_segment(rng.standard_normal((4, 100))))
        np.testing.assert_allclose(out.samples.min(axis=1), -1.0)
        np.testing.assert_allclose(out.samples.max(axis=1), 1.0)


class TestFilterBank:
    def test_seed_bank_has_five_rhythms(self):
        bank = design_filter_bank(seed_rhythm_bands(), FS)
        segment = make_segment(np.random.default_rng(0).standard_normal((2, 1600)))
        outputs = filter_bank_decompose(segment, bank)
        assert len(outputs) == 5
        assert all(o.samples.shape == segment.samples.shape for o in outputs)

    def test_fine_resolution_bank_has_25_bands(self):
        bands = uniform_bands(0.5, 50.5, 2.0)
        assert len(bands) == 25
        assert bands[0] == BandSpec(0.5, 2.5, 5)
        assert bands[-1] == BandSpec(48.5, 50.5, 5)

    def test_alpha_band_recovers_10hz_component(self):
        # Oracle: correlation against the pure 10 Hz component of the mixture.
        component_10 = sinusoid(10.0, seconds=10.0)
        mixture = component_10 + sinusoid(20.0, seconds=10.0)
        bank = design_filter_bank([(8.0, 13.0), (18.0, 22.0)], FS)
        outputs = filter_bank_decompose(make_segment(mixture), bank)
        out = outputs[0].samples[0]
        corr = np.corrcoef(out, component_10)[0, 1]
        assert corr > 0.99

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            design_filter_bank([(8.0, 13.0), (12.0, 20.0)], FS)

    def test_band_energy_stays_near_band(self):
        # Out-of-band leakage (beyond 1 Hz margins) is under 5%, checked by DFT.
        rng = np.random.default_rng(5)
        segment = make_segment(rng.standard_normal(int(30 * FS)))
        bank = design_filter_bank(seed_rhythm_bands(), FS)
        for band, out in zip(bank.bands, filter_bank_decompose(segment, bank)):
            spectrum = np.abs(np.fft.rfft(out.samples[0])) ** 2
            freqs = np.fft.rfftfreq(out.n_samples, d=1.0 / FS)
            inside = (freqs >= band.low_hz - 1.0) & (freqs <= band.high_hz + 1.0)
            assert spectrum[~inside].sum() < 0.05 * spectrum.sum()


class TestEegSegment:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_segment([1.0, np.nan, 2.0])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            make_segment([1.0])

    def test_duration(self):
        assert make_segment(np.zeros((1, 400))).duration == pytest.approx(2.0)
