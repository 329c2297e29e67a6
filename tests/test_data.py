"""Data-layer tests: binary round trips, synthetic generators, CSV ingestion."""

import struct

import numpy as np
import pytest

from spd_bci.data import (
    SynthSpec,
    decimate_segment,
    ingest_csv,
    read_manifest,
    read_segment,
    read_tensors,
    synth_band_signals,
    synth_mixed_task,
    synth_spd_classes,
    write_segment,
    write_tensors,
)
from spd_bci.errors import DataError
from spd_bci.filters import EegSegment
from spd_bci.geometry import scm
from spd_bci.spectral import de_feature, plan_stft

FS = 200.0


class TestSegmentFile:
    @pytest.mark.parametrize("label", [None, 3, -0.25])
    def test_roundtrip_bit_exact(self, tmp_path, label):
        rng = np.random.default_rng(0)
        segment = EegSegment(rng.standard_normal((3, 100)), FS, label)
        path = tmp_path / "trial.eegs"
        write_segment(path, segment)
        loaded = read_segment(path)
        np.testing.assert_array_equal(loaded.samples, segment.samples)
        assert loaded.fs == segment.fs
        assert loaded.label == segment.label
        assert type(loaded.label) is type(segment.label)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "trial.eegs"
        write_segment(path, EegSegment(rng.standard_normal((2, 50)), FS))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError, match=r"792 bytes.*expected 800|expected 800"):
            read_segment(path)

    @pytest.mark.parametrize("cut, found", [(-8, 792), (-800, 0), (8, 808)],
                             ids=["truncated", "no-payload", "oversized"])
    def test_payload_size_message_names_path_offset_and_counts(self, tmp_path, cut, found):
        path = tmp_path / "trial.eegs"
        write_segment(path, EegSegment(np.ones((2, 50)), FS))
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        header = len(raw) - 800
        with pytest.raises(DataError) as info:
            read_segment(path)
        assert str(info.value) == (
            f"{path}: payload at offset {header} has {found} bytes, expected 800"
        )

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "big-endian"])
    def test_bytes_on_disk_follow_the_layout_for_any_array(self, tmp_path, layout):
        # Oracle: the documented header packed field by field, then the
        # payload as row-major little-endian float64.
        samples = np.random.default_rng(2).standard_normal((3, 40))
        given = {
            "c": samples,
            "fortran": np.asfortranarray(samples),
            "strided": np.repeat(samples, 2, axis=1)[:, ::2],
            "big-endian": samples.astype(">f8"),
        }[layout]
        segment = EegSegment(samples, FS, 2)
        segment.samples = given  # as a filter's output view would be held
        path = tmp_path / "trial.eegs"
        write_segment(path, segment)
        header = struct.pack("<4sIIQdBd", b"EEGS", 1, 3, 40, FS, 1, 2.0)
        assert path.read_bytes() == header + samples.astype("<f8").tobytes()
        loaded = read_segment(path)
        assert loaded.samples.flags.c_contiguous and loaded.samples.flags.writeable
        assert loaded.samples.tobytes() == samples.tobytes()

    def test_non_finite_sample_names_path_and_offset(self, tmp_path):
        path = tmp_path / "trial.eegs"
        write_segment(path, EegSegment(np.zeros((2, 50)), FS))
        raw = bytearray(path.read_bytes())
        header = len(raw) - 2 * 50 * 8
        offset = header + 8 * 57  # channel 1, sample 7
        raw[offset:offset + 8] = np.array([np.inf], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=rf"trial\.eegs: non-finite sample at offset {offset} "
                                            r"\(channel 1, sample 7\)"):
            read_segment(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "trial.eegs"
        path.write_bytes(b"XXXX" + b"\x00" * 100)
        with pytest.raises(DataError, match="magic"):
            read_segment(path)

    @pytest.mark.parametrize(
        "n_channels, n_samples, fs, message",
        [
            (2, 10, 0.0, "sampling rate must be positive"),
            (2, 10, float("nan"), "sampling rate must be positive"),
            (0, 10, FS, "at least one channel"),
            (2, 1, FS, "at least two samples"),
        ],
    )
    def test_out_of_range_header_is_a_data_error_naming_path(
        self, tmp_path, n_channels, n_samples, fs, message
    ):
        path = tmp_path / "trial.eegs"
        header = struct.pack("<4sIIQdBd", b"EEGS", 1, n_channels, n_samples, fs, 0, 0.0)
        path.write_bytes(header + bytes(8 * n_channels * n_samples))
        with pytest.raises(DataError, match=rf"trial\.eegs: .*{message}"):
            read_segment(path)

    def test_reread_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        segment = EegSegment(rng.standard_normal((2, 30)), FS, 1)
        a, b = tmp_path / "a.eegs", tmp_path / "b.eegs"
        write_segment(a, segment)
        write_segment(b, read_segment(a))
        assert a.read_bytes() == b.read_bytes()


class TestTensorFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {"a": rng.standard_normal((2, 3, 4)), "b": rng.standard_normal(5)}
        path = tmp_path / "bundle.spdt"
        write_tensors(path, tensors)
        loaded = read_tensors(path)
        for key in tensors:
            np.testing.assert_array_equal(loaded[key], tensors[key])

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "bundle.spdt"
        write_tensors(path, {"a": np.arange(10.0)})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="offset"):
            read_tensors(path)

    def test_trailing_bytes_name_path_and_offset(self, tmp_path):
        path = tmp_path / "bundle.spdt"
        write_tensors(path, {"a": np.arange(10.0)})
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"x" * 13)
        with pytest.raises(DataError, match=f"13 bytes of trailing data at offset {end}") as info:
            read_tensors(path)
        assert str(path) in str(info.value)

    def test_non_utf8_name_names_path_and_offset(self, tmp_path):
        path = tmp_path / "bundle.spdt"
        write_tensors(path, {"a": np.arange(3.0)})
        raw = bytearray(path.read_bytes())
        raw[14] = 0xFF  # the name's one byte, after the 12-byte header and u16 length
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="tensor name at offset 14 is not UTF-8") as info:
            read_tensors(path)
        assert str(path) in str(info.value)

    def test_bytes_match_the_documented_layout(self, tmp_path):
        # Oracle: the layout packed field by field, each payload converted to
        # little-endian C order. Inputs that need that conversion are included.
        tensors = {
            "ab": np.arange(6.0).reshape(2, 3),
            "s": np.float64(2.5),
            "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            "big-endian": np.arange(4.0).astype(">f8"),
            "ints": np.arange(3),
        }
        expected = b"SPDT" + struct.pack("<II", 1, len(tensors))
        for name, arr in tensors.items():
            arr = np.asarray(arr)
            expected += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", arr.ndim)
            expected += struct.pack(f"<{arr.ndim}Q", *arr.shape)
            expected += arr.astype("<f8").tobytes(order="C")
        path = tmp_path / "bundle.spdt"
        write_tensors(path, tensors)
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("name_len", range(1, 9))
    def test_payloads_load_as_aligned_writable_arrays(self, tmp_path, name_len):
        # A payload starts 12 + 2 + name_len + 1 + 8 * ndim bytes in, so names of
        # 1-8 bytes put it at every offset mod 8.
        path = tmp_path / "bundle.spdt"
        original = np.random.default_rng(name_len).standard_normal((3, 5))
        write_tensors(path, {"n" * name_len: original})
        (arr,) = read_tensors(path).values()
        assert arr.dtype == np.float64 and arr.ctypes.data % 8 == 0
        assert arr.flags.aligned and arr.flags.c_contiguous
        assert arr.flags.writeable and arr.flags.owndata
        np.testing.assert_array_equal(arr, original)

    def test_declared_size_beyond_the_file_is_a_data_error(self, tmp_path):
        # 2^40 elements (8 TiB): refused from the file size, before any allocation.
        path = tmp_path / "bundle.spdt"
        header = b"SPDT" + struct.pack("<II", 1, 1)
        header += struct.pack("<H", 3) + b"big" + struct.pack("<B2Q", 2, 2**20, 2**20)
        path.write_bytes(header + b"\0" * 64)
        message = (
            f"{path}: tensor 'big' truncated at offset {len(header)}: "
            f"expected {8 * 2**40} bytes, found 64"
        )
        with pytest.raises(DataError) as info:
            read_tensors(path)
        assert str(info.value) == message

    def test_count_below_stored_tensors_is_rejected(self, tmp_path):
        path = tmp_path / "bundle.spdt"
        write_tensors(path, {"a": np.arange(10.0)})
        end = path.stat().st_size
        write_tensors(path, {"a": np.arange(10.0), "b": np.ones(3)})
        raw = bytearray(path.read_bytes())
        raw[8:12] = (1).to_bytes(4, "little")  # count field: 1 of the 2 stored tensors
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"trailing data at offset {end} after 1 declared"):
            read_tensors(path)


class TestSynthSpdClasses:
    def test_mean_scm_approaches_class_covariance(self):
        sigma = np.diag([2.0, 1.0, 1.0, 1.0])
        spec = SynthSpec(
            class_covariances=[sigma], n_samples=500, fs=FS,
            segments_per_class=1000, seed=4,
        )
        segments = synth_spd_classes(spec)
        mean_scm = np.mean([scm(s.samples) for s in segments], axis=0)
        rel = np.linalg.norm(mean_scm - sigma) / np.linalg.norm(sigma)
        assert rel < 0.02

    def test_long_trial_scm_converges(self):
        sigma = np.diag([2.0, 1.0, 1.0, 1.0])
        spec = SynthSpec(
            class_covariances=[sigma], n_samples=10_000, fs=FS,
            segments_per_class=1, seed=5,
        )
        (segment,) = synth_spd_classes(spec)
        assert np.linalg.norm(scm(segment.samples) - sigma) < 0.1

    def test_same_seed_is_deterministic(self):
        spec = SynthSpec(
            class_covariances=[np.eye(3)], n_samples=100, fs=FS,
            segments_per_class=2, seed=6,
        )
        a = synth_spd_classes(spec)
        b = synth_spd_classes(spec)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.samples, sb.samples)

    def test_non_spd_recipe_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            SynthSpec(
                class_covariances=[np.diag([1.0, -1.0])], n_samples=100, fs=FS,
                segments_per_class=1,
            )


def de_coordinates(segments):
    """Per-segment mean DE in the alpha and beta bands (the two cue axes)."""
    plan = plan_stft(segments[0].duration, segments[0].fs)
    coords = []
    for seg in segments:
        alpha = de_feature(seg, plan, (8.0, 13.0)).mean()
        beta = de_feature(seg, plan, (18.0, 22.0)).mean()
        coords.append([alpha, beta])
    return np.asarray(coords)


def midpoint_separator_accuracy(train_coords, train_labels, test_coords, test_labels):
    """Oracle separator: threshold the alpha-minus-beta projection at the class midpoint."""
    projection = lambda c: c[:, 0] - c[:, 1]
    z = projection(train_coords)
    mid = 0.5 * (z[train_labels == 0].mean() + z[train_labels == 1].mean())
    sign = 1.0 if z[train_labels == 0].mean() > mid else -1.0
    predictions = (sign * (projection(test_coords) - mid) < 0).astype(int)
    return np.mean(predictions == test_labels)


class TestSynthBandSignals:
    def make(self, amp0, amp1, seed, n=60, sigma=0.2):
        return synth_band_signals(
            [[(10.0, amp0)], [(20.0, amp1)]],
            n_channels=2, n_samples=int(2 * FS), fs=FS,
            noise_sigma=sigma, segments_per_class=n, seed=seed,
        )

    def test_band_power_classes_are_linearly_separable(self):
        train = self.make(2.0, 2.0, seed=7)
        test = self.make(2.0, 2.0, seed=8)
        acc = midpoint_separator_accuracy(
            de_coordinates(train), np.array([s.label for s in train]),
            de_coordinates(test), np.array([s.label for s in test]),
        )
        assert acc >= 0.95

    def test_zero_amplitude_is_chance_level(self):
        train = self.make(0.0, 0.0, seed=9, n=100)
        test = self.make(0.0, 0.0, seed=10, n=100)
        acc = midpoint_separator_accuracy(
            de_coordinates(train), np.array([s.label for s in train]),
            de_coordinates(test), np.array([s.label for s in test]),
        )
        assert abs(acc - 0.5) <= 0.1

    def test_alpha_de_separates_by_three_standard_deviations(self):
        segments = self.make(2.0, 0.2, seed=11, n=40)
        coords = de_coordinates(segments)
        labels = np.array([s.label for s in segments])
        alpha0 = coords[labels == 0, 0]
        alpha1 = coords[labels == 1, 0]
        assert alpha0.mean() - alpha1.mean() > 3.0 * alpha0.std()


class TestSynthMixedTask:
    def test_deterministic_and_balancedish(self):
        a = synth_mixed_task(n_segments=50, seed=12)
        b = synth_mixed_task(n_segments=50, seed=12)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.samples, sb.samples)
        labels = np.array([s.label for s in a])
        assert 10 <= labels.sum() <= 40

    def test_whole_segment_tone_power_is_class_blind(self):
        # The envelope tilt moves power between halves without changing the
        # whole-segment tone energy, so mean band power matches across classes.
        segments = synth_mixed_task(n_segments=300, seed=13, corr_sigma=0.0, corr_mean=0.0)
        plan = plan_stft(2.0, 128.0)
        labels = np.array([s.label for s in segments])
        powers = np.array(
            [de_feature(s, plan, (8.0, 13.0)).mean() for s in segments]
        )
        gap = abs(powers[labels == 0].mean() - powers[labels == 1].mean())
        spread = powers.std()
        assert gap < 0.35 * spread


class TestCsvIngestion:
    def write_csv(self, path, samples, header, labels=None):
        rows = [",".join(header)]
        for i in range(samples.shape[1]):
            cells = [f"{v:.10f}" for v in samples[:, i]]
            if labels is not None:
                cells.append(str(labels[i]))
            rows.append(",".join(cells))
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def test_downsample_1000_to_200(self, tmp_path):
        rng = np.random.default_rng(14)
        samples = rng.standard_normal((2, 10_000))
        csv_path = tmp_path / "rec.csv"
        self.write_csv(csv_path, samples, ["c1", "c2"])
        segments = ingest_csv(
            csv_path, {"fs": "1000", "segment_seconds": "2", "decimate": "5"}
        )
        assert len(segments) == 5
        assert segments[0].fs == 200.0
        assert segments[0].n_samples == 400

    def test_factor_one_is_identity(self, tmp_path):
        rng = np.random.default_rng(15)
        samples = rng.standard_normal((1, 800))
        csv_path = tmp_path / "rec.csv"
        self.write_csv(csv_path, samples, ["c1"])
        segments = ingest_csv(csv_path, {"fs": "200", "segment_seconds": "2"})
        assert len(segments) == 2
        # CSV cells are written with 10 decimals, so compare at that precision.
        np.testing.assert_allclose(segments[0].samples[0], samples[0, :400], atol=1e-9)

    def test_decimated_sinusoid_keeps_amplitude(self, tmp_path):
        # DFT oracle: the 50 Hz bin amplitude survives 1000 -> 200 Hz decimation.
        t = np.arange(20_000) / 1000.0
        amp = 1.3
        samples = (amp * np.sin(2 * np.pi * 50.0 * t))[None, :]
        csv_path = tmp_path / "tone.csv"
        self.write_csv(csv_path, samples, ["c1"])
        segments = ingest_csv(
            csv_path, {"fs": "1000", "segment_seconds": "2", "decimate": "5"}
        )
        x = segments[1].samples[0]  # interior segment, free of recording edges
        spectrum = np.fft.rfft(x)
        freqs = np.fft.rfftfreq(x.size, d=1.0 / 200.0)
        k = np.argmin(np.abs(freqs - 50.0))
        measured = 2.0 * np.abs(spectrum[k]) / x.size
        assert measured == pytest.approx(amp, rel=0.02)

    def test_label_column(self, tmp_path):
        samples = np.zeros((1, 400))
        samples[0] = np.sin(np.arange(400))
        csv_path = tmp_path / "labeled.csv"
        labels = [0] * 200 + [1] * 200
        self.write_csv(csv_path, samples, ["c1", "y"], labels=labels)
        segments = ingest_csv(
            csv_path, {"fs": "200", "segment_seconds": "1", "label_column": "y"}
        )
        assert [s.label for s in segments] == [0.0, 1.0]

    def test_ragged_row_rejected(self, tmp_path):
        csv_path = tmp_path / "ragged.csv"
        csv_path.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="ragged"):
            ingest_csv(csv_path, {"fs": "200", "segment_seconds": "1"})

    def test_non_numeric_cell_rejected(self, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("a,b\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-numeric"):
            ingest_csv(csv_path, {"fs": "200", "segment_seconds": "1"})

    def test_manifest_file(self, tmp_path):
        manifest_path = tmp_path / "layout.txt"
        manifest_path.write_text(
            "fs = 200\nsegment_seconds = 1  # one-second cuts\n", encoding="utf-8"
        )
        manifest = read_manifest(manifest_path)
        assert manifest == {"fs": "200", "segment_seconds": "1"}

    def test_malformed_manifest_line_is_a_data_error(self, tmp_path):
        manifest_path = tmp_path / "layout.txt"
        manifest_path.write_text("fs = 200\nsegment_seconds 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 'key = value'") as info:
            read_manifest(manifest_path)
        assert f"{manifest_path}:2:" in str(info.value)

    def test_channel_subset_selection(self, tmp_path):
        rng = np.random.default_rng(16)
        samples = rng.standard_normal((3, 200))
        csv_path = tmp_path / "rec.csv"
        self.write_csv(csv_path, samples, ["c1", "c2", "c3"])
        segments = ingest_csv(
            csv_path, {"fs": "200", "segment_seconds": "1", "channels": "c3,c1"}
        )
        assert segments[0].n_channels == 2
        np.testing.assert_allclose(segments[0].samples[0], samples[2], atol=1e-9)

    @pytest.mark.parametrize("key, value, need", [
        ("fs", "fast", "a number"),
        ("segment_seconds", "two", "a number"),
        ("decimate", "2.5", "an integer"),
    ])
    def test_malformed_manifest_number_names_manifest_and_key(self, tmp_path, key, value, need):
        csv_path = tmp_path / "rec.csv"
        csv_path.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
        manifest_path = tmp_path / "layout.txt"
        entries = {"fs": "200", "segment_seconds": "1", key: value}
        manifest_path.write_text(
            "".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8"
        )
        with pytest.raises(DataError, match=f"key '{key}' needs {need}") as info:
            ingest_csv(csv_path, manifest_path)
        assert str(manifest_path) in str(info.value)
        with pytest.raises(DataError, match=f"key '{key}' needs {need}") as info:
            ingest_csv(csv_path, entries)
        assert f"manifest for {csv_path}" in str(info.value)

    def test_missing_manifest_key_names_manifest(self, tmp_path):
        csv_path = tmp_path / "rec.csv"
        csv_path.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing required key 'segment_seconds'") as info:
            ingest_csv(csv_path, {"fs": "200"})
        assert f"manifest for {csv_path}" in str(info.value)

    def test_unknown_channel_rejected(self, tmp_path):
        csv_path = tmp_path / "rec.csv"
        csv_path.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="channel columns"):
            ingest_csv(csv_path, {"fs": "200", "segment_seconds": "1", "channels": "zz"})


class TestDecimateSegment:
    def test_invalid_factor(self):
        seg = EegSegment(np.zeros((1, 100)), 1000.0)
        with pytest.raises(ValueError, match="factor"):
            decimate_segment(seg, 0)

    def test_aliasing_component_removed(self):
        # A 90 Hz tone is above the new 100 Hz-rate Nyquist... above 0.8*new
        # Nyquist cutoff, so it must be strongly attenuated before subsampling.
        t = np.arange(4000) / 1000.0
        seg = EegSegment(np.sin(2 * np.pi * 90.0 * t)[None, :], 1000.0)
        out = decimate_segment(seg, 5)
        assert out.fs == 200.0
        assert np.sqrt(np.mean(out.samples**2)) < 0.1
