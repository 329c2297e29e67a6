"""Config parsing and CLI pipeline tests on a small synthetic dataset."""

import ctypes
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spd_bci
from spd_bci import cli
from spd_bci.cli import main
from spd_bci.config import PROFILES, load_config, parse_config_text
from spd_bci.data import SynthSpec, read_segment, synth_spd_classes, write_segment
from spd_bci.errors import ConfigError
from spd_bci.filters import EegSegment
from spd_bci.geometry import tangent_dimension
from spd_bci.model import VARIANTS

BASE_CONFIG = """
profile = synthetic
fs = 200
trial_seconds = 2
n_channels = 4
rank = 3
n_classes = 2
bands = 8-16,16-24
raw_train_dir = raw/train
raw_test_dir = raw/test
work_dir = work
seed = 11
epochs = 12
batch_size = 16
lstm_layers = 2
lstm_hidden = 16
temporal_embedding_dim = 16
spatial_hidden = 32
spatial_embedding_dim = 16
encoder_hidden = 8
fusion_hidden = 32
"""


def correlation_covariance(rho):
    """Unit-variance 4-channel covariance with a +/- correlation cue on channels 0-1.

    Per-channel min-max normalization in preprocessing erases scale cues,
    so the synthetic classes differ by correlation sign, which survives.
    """
    cov = np.eye(4)
    cov[0, 1] = cov[1, 0] = rho
    return cov


def write_synthetic_dataset(root, seed=0, train_per_class=20):
    covariances = [correlation_covariance(0.7), correlation_covariance(-0.7)]
    for split, per_class, split_seed in (("train", train_per_class, seed), ("test", 12, seed + 1)):
        out = root / "raw" / split
        out.mkdir(parents=True, exist_ok=True)
        spec = SynthSpec(
            class_covariances=covariances, n_samples=400, fs=200.0,
            segments_per_class=per_class, seed=split_seed,
        )
        for i, segment in enumerate(synth_spd_classes(spec)):
            write_segment(out / f"seg_{i:03d}.eegs", segment)


def package_env():
    """The environment with this checkout's package first on PYTHONPATH, for subprocesses."""
    src = str(Path(spd_bci.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


def write_config(root, extra=""):
    path = root / "pipeline.cfg"
    path.write_text(BASE_CONFIG + extra, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset with preprocess + features already run."""
    root = tmp_path_factory.mktemp("pipeline")
    write_synthetic_dataset(root)
    config = write_config(root)
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["features", "--config", str(config)]) == 0
    return root


class TestConfigParsing:
    def test_profile_table(self):
        config = parse_config_text("profile = seed\nraw_train_dir = raw\n")
        assert len(config.bands) == 5
        assert config.n_channels == 62
        assert config.rank == 48
        assert 2 * len(config.bands) * config.n_channels == 620  # temporal feature size
        assert len(config.bands) * tangent_dimension(config.rank) == 5880  # spatial size
        assert config.loss == "cross-entropy"

    def test_fine_band_profiles(self):
        for name in ("seed-vig", "bci2a", "bci2b"):
            config = parse_config_text(f"profile = {name}\n")
            assert len(config.bands) == 25
        assert len(config.bands) * tangent_dimension(config.rank) == 150  # bci2b, rank 3

    def test_locked_keys_cannot_be_overridden(self):
        with pytest.raises(ConfigError, match="fixed"):
            parse_config_text("profile = bci2a\nloss = mse\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("profile = seed\nmystery = 3\n")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            parse_config_text("profile = seed2027\n")

    def test_unknown_variant_and_fusion_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            parse_config_text("profile = synthetic\nvariant = hybrid\n")
        # The variant label names the fusion rule; there is no separate key.
        with pytest.raises(ConfigError, match="unknown config key 'fusion_mode'"):
            parse_config_text("profile = synthetic\nfusion_mode = soft-attention\n")

    def test_unknown_output_activation_rejected_at_load(self):
        with pytest.raises(ConfigError, match="<config>: unknown output_activation 'relu'"):
            parse_config_text("profile = synthetic\noutput_activation = relu\n")

    def test_profile_task_pairings(self):
        assert PROFILES["bci2a"]["n_classes"] == 4
        assert PROFILES["bci2a"]["loss"] == "cross-entropy"
        assert PROFILES["seed-vig"]["task"] == "regression"
        assert PROFILES["bci2b"]["loss"] == "bce"

    def test_paths_resolve_relative_to_config(self, tmp_path):
        config_path = tmp_path / "cfg" / "run.cfg"
        config_path.parent.mkdir()
        config_path.write_text(BASE_CONFIG, encoding="utf-8")
        config = load_config(config_path)
        assert config.work_dir == tmp_path.resolve() / "cfg" / "work"

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.cfg")


class TestCliErrors:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["explode", "--config", "x"]) == 1

    def test_missing_config_flag_is_usage_error(self):
        assert main(["preprocess"]) == 1

    def test_error_is_printed_once(self, tmp_path):
        # In a fresh interpreter, as the console script runs: pytest owns the
        # logging handlers in-process, so a logged copy would not show there.
        missing = tmp_path / "absent.cfg"
        proc = subprocess.run(
            [sys.executable, "-m", "spd_bci.cli", "preprocess", "--config", str(missing)],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.count(f"config file {missing} does not exist") == 1, proc.stderr

    def test_bad_config_exits_1(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("profile = synthetic\nmystery = 1\n", encoding="utf-8")
        assert main(["preprocess", "--config", str(config)]) == 1

    def test_negative_seed_exits_1_naming_the_flag(self, tmp_path, capsys):
        # Checked before any step runs: a negative seed would otherwise fail
        # only inside numpy, with no flag named.
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--seed must be" in err and "got -1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "work").exists()

    def test_jobs_flag_is_unknown_and_exits_1_with_usage(self, tmp_path):
        # The usable CPUs set the workers; there is no flag for them.
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra="rank_mode = grid\n")
        proc = subprocess.run(
            [*CLI, "train", "--config", str(config), "--jobs", "2"],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: spd-bci"), proc.stderr
        assert "unrecognized arguments: --jobs 2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("key, choices", [
        ("rank_mode", ["fixed", "grid"]),
        ("task", ["classification", "regression"]),
        ("temporal_regularizer", ["batchnorm", "dropout"]),
        ("constant_channel", ["error", "zero"]),
        ("reference_policy", ["test-mean", "train-mean"]),
        ("variant", list(VARIANTS)),
        ("output_activation", ["softmax", "sigmoid", "linear"]),
    ])
    def test_unknown_enumerated_value_exits_1_naming_key_and_choices(
        self, tmp_path, capsys, key, choices
    ):
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra=f"{key} = sweep\n")
        assert main(["preprocess", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{config}: unknown {key} 'sweep'; choose one of {choices}" in err, err
        assert not (tmp_path / "work").exists()

    def test_unpaired_head_exits_1_at_preprocess_naming_file_and_keys(self, tmp_path, capsys):
        # The synthetic profile's softmax head cannot take mse; found at load, not at train.
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra="loss = mse\n")
        assert main(["preprocess", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert str(config) in err
        assert "loss 'mse'" in err and "output_activation 'softmax'" in err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("extra,reason", [
        ("task = regression\n", "cross-entropy needs at least two outputs"),
        ("n_classes = 1\n", "cross-entropy needs at least two outputs"),
        ("output_activation = sigmoid\nloss = bce\nn_classes = 3\n", "bce scores two classes"),
    ])
    def test_head_output_count_exits_1_at_preprocess(self, tmp_path, capsys, extra, reason):
        # Found at load: these heads would fail at train (one cross-entropy output)
        # or at evaluate (a bce head trained on a third class).
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra=extra)
        assert main(["preprocess", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and reason in err
        assert "task = " in err and "n_classes = " in err and "loss = " in err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("extra", [
        "output_activation = sigmoid\nloss = mse\n",
        "task = regression\nn_classes = 1\noutput_activation = sigmoid\nloss = bce\n",
    ], ids=["classification-mse", "regression-bce"])
    def test_task_that_does_not_follow_the_loss_exits_1_at_preprocess(
        self, tmp_path, capsys, extra
    ):
        # Found at load: evaluate would score such a head under the other task's metrics.
        config = write_config(tmp_path, extra=extra)
        assert main(["preprocess", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and "task = " in err and "loss = " in err
        assert "Traceback" not in err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("labels, named", [("fused,bogus", "'bogus'"), ("", "at least one")])
    def test_ablate_variants_checked_at_preprocess(self, tmp_path, capsys, labels, named):
        config = write_config(tmp_path, extra=f"ablate_variants = {labels}\n")
        assert main(["preprocess", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and "ablate_variants" in err and named in err
        assert not (tmp_path / "work").exists()

    def test_missing_data_dir_exits_2(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 2

    def test_features_before_preprocess_exits_2(self, tmp_path):
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path)
        assert main(["features", "--config", str(config)]) == 2

    def test_empty_ablate_list_exits_1(self, tmp_path):
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra="ablate_variants =\n")
        assert main(["ablate", "--config", str(config)]) == 1

    def test_ablate_missing_checkpoint_exits_2(self, workspace):
        config = write_config(workspace, extra="ablate_variants = temporal\n")
        # No temporal checkpoint has been trained in this fresh config's view.
        missing = workspace / "work" / "model" / "model_temporal.ckpt"
        if missing.exists():
            missing.unlink()
        assert main(["ablate", "--config", str(config)]) == 2


class TestPipelineRun:
    def test_preprocess_outputs_match_inputs(self, workspace):
        raw = sorted((workspace / "raw" / "train").glob("*.eegs"))
        pre = sorted((workspace / "work" / "preprocessed" / "train").glob("*.eegs"))
        assert len(raw) == len(pre) == 40

    def test_feature_files_have_expected_dimensions(self, workspace):
        from spd_bci.data import read_tensors

        bundle = read_tensors(workspace / "work" / "features" / "train.spdt")
        assert bundle["temporal"].shape == (40, 3, 16)  # L = 2*2-1, F = 2*2*4
        assert bundle["spatial"].shape == (40, 2 * 6)  # two bands, rank 3
        assert bundle["scms"].shape == (40, 2, 4, 4)

    def test_train_evaluate_roundtrip(self, workspace):
        config = workspace / "pipeline.cfg"
        assert main(["train", "--config", str(config)]) == 0
        assert main(["evaluate", "--config", str(config)]) == 0
        metrics = json.loads((workspace / "work" / "metrics.json").read_text())
        assert metrics["task"] == "classification"
        assert metrics["variant"] == "fused"
        assert metrics["n_test"] == 24
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert "kappa" in metrics and "confusion" in metrics

    def test_evaluate_is_rerun_safe(self, workspace):
        config = workspace / "pipeline.cfg"
        metrics_path = workspace / "work" / "metrics.json"
        first = metrics_path.read_bytes()
        assert main(["evaluate", "--config", str(config)]) == 0
        assert metrics_path.read_bytes() == first

    def test_features_rerun_is_byte_identical(self, workspace):
        config = workspace / "pipeline.cfg"
        train_path = workspace / "work" / "features" / "train.spdt"
        first = train_path.read_bytes()
        assert main(["features", "--config", str(config)]) == 0
        assert train_path.read_bytes() == first

    def test_ablate_writes_one_row_per_variant_per_metric(self, workspace):
        for variant in ("temporal", "spatial"):
            config = write_config(workspace, extra=f"variant = {variant}\n")
            assert main(["train", "--config", str(config)]) == 0
        config = write_config(
            workspace, extra="ablate_variants = temporal,spatial,fused\n"
        )
        assert main(["ablate", "--config", str(config)]) == 0
        rows = (workspace / "work" / "ablation.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,metric,value"
        assert len(rows) == 1 + 3 * 2  # accuracy and kappa per variant
        accuracy = {}
        for line in rows[1:]:
            variant, metric, value = line.split(",")
            if metric == "accuracy":
                accuracy[variant] = float(value)
        # Correlation cue makes this spatially dominated; fusion must not hurt.
        assert accuracy["fused"] >= max(accuracy["temporal"], accuracy["spatial"])

    def test_ablate_compares_fusion_rules(self, workspace):
        # Fused checkpoints with alternative fusion rules coexist with the
        # full-rule "fused" checkpoint under their own labels.
        for label in ("concatenation", "soft-attention"):
            config = write_config(workspace, extra=f"variant = {label}\n")
            assert main(["train", "--config", str(config)]) == 0
        config = write_config(
            workspace, extra="ablate_variants = concatenation,soft-attention,fused\n"
        )
        assert main(["ablate", "--config", str(config)]) == 0
        rows = (workspace / "work" / "ablation.csv").read_text().strip().splitlines()
        variants = {line.split(",")[0] for line in rows[1:]}
        assert variants == {"concatenation", "soft-attention", "fused"}
        assert len(rows) == 1 + 3 * 2

    def test_duplicate_variants_give_identical_rows(self, workspace):
        config = write_config(workspace, extra="ablate_variants = temporal,temporal\n")
        assert main(["ablate", "--config", str(config)]) == 0
        rows = (workspace / "work" / "ablation.csv").read_text().strip().splitlines()[1:]
        assert rows[0] == rows[2] and rows[1] == rows[3]

    def test_grid_mode_emits_one_row_per_rank(self, workspace):
        config = write_config(
            workspace,
            extra="rank_mode = grid\nvariant = spatial\nepochs = 6\n",
        )
        assert main(["train", "--config", str(config)]) == 0
        grid = json.loads((workspace / "work" / "grid_metrics.json").read_text())
        assert [row["rank"] for row in grid["rows"]] == [1, 2, 3]
        assert grid["best_rank"] in (1, 2, 3)

    def test_preprocess_continue_on_error_skips_bad_file(self, tmp_path):
        write_synthetic_dataset(tmp_path)
        bad = tmp_path / "raw" / "train" / "zzz_corrupt.eegs"
        bad.write_bytes(b"EEGSgarbage")
        config = write_config(tmp_path, extra="continue_on_error = true\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        outputs = list((tmp_path / "work" / "preprocessed" / "train").glob("*.eegs"))
        assert len(outputs) == 40  # corrupt file skipped

    def test_preprocess_strict_mode_fails_on_bad_file(self, tmp_path):
        write_synthetic_dataset(tmp_path)
        bad = tmp_path / "raw" / "train" / "zzz_corrupt.eegs"
        bad.write_bytes(b"EEGSgarbage")
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 2

    def test_preprocess_non_finite_sample_exits_2_naming_file(self, tmp_path, capsys):
        write_synthetic_dataset(tmp_path)
        bad = tmp_path / "raw" / "train" / "seg_005.eegs"
        raw = bytearray(bad.read_bytes())
        raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        bad.write_bytes(bytes(raw))
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "non-finite sample" in err

    def test_preprocess_zero_sampling_rate_exits_2_naming_file(self, tmp_path, capsys):
        write_synthetic_dataset(tmp_path)
        bad = tmp_path / "raw" / "train" / "seg_003.eegs"
        raw = bytearray(bad.read_bytes())
        raw[20:28] = np.array([0.0], dtype="<f8").tobytes()  # fs field of the header
        bad.write_bytes(bytes(raw))
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "sampling rate must be positive" in err

    @pytest.mark.parametrize("kind, label", [
        (1, np.inf), (1, np.nan), (1, 2.5), (2, np.inf), (2, np.nan),
    ], ids=["class-inf", "class-nan", "class-2.5", "real-inf", "real-nan"])
    def test_preprocess_bad_label_exits_2_naming_file(self, tmp_path, capsys, kind, label):
        # Header offset 28 holds the label kind (1 class, 2 real), offset 29 the label.
        out = tmp_path / "raw" / "train"
        out.mkdir(parents=True)
        bad = out / "seg_000.eegs"
        write_segment(bad, EegSegment(np.random.default_rng(0).standard_normal((4, 400)), 200.0))
        raw = bytearray(bad.read_bytes())
        raw[28:37] = bytes([kind]) + np.array([label], dtype="<f8").tobytes()
        bad.write_bytes(bytes(raw))
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: label {label!r} at offset 29" in err and "Traceback" not in err

    def _write_constant_channel_file(self, root):
        bad = root / "raw" / "train" / "seg_007.eegs"
        segment = read_segment(bad)
        samples = segment.samples.copy()
        samples[2] = 0.0
        write_segment(bad, segment.with_samples(samples))
        return bad

    def test_preprocess_constant_channel_exits_2_naming_file(self, tmp_path, capsys):
        write_synthetic_dataset(tmp_path)
        bad = self._write_constant_channel_file(tmp_path)
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: constant channel(s) [2]" in err

    def test_preprocess_constant_channel_skipped_on_continue(self, tmp_path):
        write_synthetic_dataset(tmp_path)
        bad = self._write_constant_channel_file(tmp_path)
        config = write_config(tmp_path, extra="continue_on_error = true\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        out_dir = tmp_path / "work" / "preprocessed" / "train"
        assert len(list(out_dir.glob("*.eegs"))) == 39
        assert not (out_dir / bad.name).exists()

    def test_grid_mode_on_two_and_three_workers_matches_one_worker(self, workspace, monkeypatch):
        # Three workers (one per rank) on a short switch interval: more threads than
        # cores, switching often, so state shared between ranks would show.
        from spd_bci import pipeline

        config = write_config(
            workspace,
            extra="rank_mode = grid\nvariant = spatial\nepochs = 6\n",
        )
        grid_path = workspace / "work" / "grid_metrics.json"
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        assert main(["train", "--config", str(config)]) == 0
        one_worker = grid_path.read_bytes()
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for cpus in (2, 3):
                monkeypatch.setattr(pipeline, "_usable_cpus", lambda n=cpus: n)
                assert main(["train", "--config", str(config)]) == 0
                assert grid_path.read_bytes() == one_worker, cpus
        finally:
            sys.setswitchinterval(interval)

    def test_numerical_failure_exits_3(self, monkeypatch, tmp_path):
        from spd_bci.errors import NumericalError

        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path)

        def explode(cfg):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(cli, "run_preprocess", explode)
        assert main(["preprocess", "--config", str(config)]) == 3

    def test_mismatched_checkpoint_exits_1(self, workspace):
        import shutil

        # Both checkpoints are trained here, with the configs the tests above use,
        # so this test runs alone too and leaves the same files as they would.
        for extra in ("", "variant = spatial\n"):
            assert main(["train", "--config", str(write_config(workspace, extra=extra))]) == 0
        fused = workspace / "work" / "model" / "model_fused.ckpt"
        target = workspace / "work" / "model" / "model_spatial.ckpt"
        backup = target.read_bytes()
        try:
            shutil.copyfile(fused, target)
            config = write_config(workspace, extra="ablate_variants = spatial\n")
            assert main(["ablate", "--config", str(config)]) == 1
        finally:
            target.write_bytes(backup)

    def test_log_level_env_var(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SPD_BCI_LOG", "DEBUG")
        config = tmp_path / "bad.cfg"
        config.write_text("profile = synthetic\nmystery = 1\n", encoding="utf-8")
        assert main(["preprocess", "--config", str(config)]) == 1

    @pytest.mark.parametrize("label", [5, -1, None], ids=["above", "negative", "missing"])
    def test_test_trial_label_outside_the_task_exits_2_at_preprocess(self, tmp_path, capsys,
                                                                     label):
        # Unchecked, a class 5 made evaluate fail on an index, and a class -1 was counted
        # in class 1's confusion row.
        write_synthetic_dataset(tmp_path)
        bad = tmp_path / "raw" / "test" / "seg_000.eegs"
        segment = read_segment(bad)
        write_segment(bad, EegSegment(segment.samples, segment.fs, label))
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and "Traceback" not in err
        assert ("no label" if label is None else f"label {label} is not a class in [0, 2)") in err
        assert not (tmp_path / "work" / "preprocessed" / "test" / bad.name).exists()

    @pytest.mark.parametrize("cut, message", [
        ((slice(3), slice(None)), "3 channels, profile expects 4"),
        ((slice(None), slice(300)), "300 samples, profile expects 400"),
    ], ids=["channels", "length"])
    def test_raw_trial_of_another_shape_exits_2_at_preprocess(self, tmp_path, capsys, cut,
                                                              message):
        write_synthetic_dataset(tmp_path)
        bad = tmp_path / "raw" / "train" / "seg_004.eegs"
        segment = read_segment(bad)
        write_segment(bad, segment.with_samples(segment.samples[cut]))
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "work" / "preprocessed" / "train" / bad.name).exists()

    def test_trial_the_profile_cannot_use_is_skipped_on_continue(self, tmp_path, caplog):
        from spd_bci.data import read_tensors

        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra="continue_on_error = true\n")
        # A first run preprocesses the trial; the rerun that skips it removes that copy.
        assert main(["preprocess", "--config", str(config)]) == 0
        bad = tmp_path / "raw" / "test" / "seg_000.eegs"
        segment = read_segment(bad)
        write_segment(bad, EegSegment(segment.samples, segment.fs, 5))
        assert main(["preprocess", "--config", str(config)]) == 0
        assert f"skipping {bad}: label 5 is not a class in [0, 2)" in caplog.messages
        out_dir = tmp_path / "work" / "preprocessed" / "test"
        assert len(list(out_dir.glob("*.eegs"))) == 23 and not (out_dir / bad.name).exists()
        assert main(["features", "--config", str(config)]) == 0
        test = read_tensors(tmp_path / "work" / "features" / "test.spdt")
        assert test["labels"].shape == (23,) and test["temporal"].shape[0] == 23

    def test_preprocessed_trial_replaced_after_preprocess_exits_2_at_features(self, tmp_path,
                                                                              capsys):
        # Features reads its trials through the same check, so a preprocessed file
        # changed since preprocess is named where it lies.
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 0
        bad = tmp_path / "work" / "preprocessed" / "test" / "seg_000.eegs"
        segment = read_segment(bad)
        write_segment(bad, EegSegment(segment.samples, segment.fs, 5))
        capsys.readouterr()
        assert main(["features", "--config", str(config)]) == 2
        assert f"{bad}: label 5 is not a class in [0, 2)" in capsys.readouterr().err
        assert not (tmp_path / "work" / "features" / "test.spdt").exists()

    @pytest.mark.parametrize("split, step, labels, message", [
        ("test", "evaluate", None, "no tensor 'labels'"),
        ("test", "evaluate", slice(3), "tensor 'temporal' has 24 rows, tensor 'labels' has 3"),
        ("train", "train", slice(5), "tensor 'temporal' has 40 rows, tensor 'labels' has 5"),
    ], ids=["test-without-labels", "test-short-labels", "train-short-labels"])
    def test_damaged_feature_bundle_exits_2_naming_file_and_tensor(
        self, workspace, tmp_path, capsys, split, step, labels, message
    ):
        import shutil

        from spd_bci.data import read_tensors, write_tensors

        shutil.copytree(workspace / "work" / "features", tmp_path / "work" / "features")
        config = write_config(tmp_path, extra="epochs = 1\n")
        assert main(["train", "--config", str(config)]) == 0
        path = tmp_path / "work" / "features" / f"{split}.spdt"
        bundle = read_tensors(path)
        if labels is None:
            del bundle["labels"]
        else:
            bundle["labels"] = bundle["labels"][labels]
        write_tensors(path, bundle)
        capsys.readouterr()
        assert main([step, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err and "Traceback" not in err

    def test_test_bundle_holds_no_scms(self, workspace):
        # Only grid mode reads SCMs, and only the train split's.
        from spd_bci.data import read_tensors

        test = read_tensors(workspace / "work" / "features" / "test.spdt")
        assert sorted(test) == ["labels", "spatial", "temporal"]


# A value other than BASE_CONFIG's for every ModelSettings field, all in range.
OTHER_MODEL_SETTINGS = {
    "output_activation": "sigmoid", "loss": "bce", "temporal_regularizer": "dropout",
    "variant": "spatial", "lstm_layers": 1, "lstm_hidden": 5, "temporal_embedding_dim": 3,
    "spatial_hidden": 7, "spatial_embedding_dim": 4, "encoder_hidden": 2, "fusion_hidden": 6,
    "epochs": 3, "batch_size": 5, "learning_rate": 0.05,
}


@pytest.fixture(scope="module")
def recentring_workspace(tmp_path_factory):
    """Preprocessed segments (24 test trials) for reruns of the features step."""
    root = tmp_path_factory.mktemp("recentring")
    write_synthetic_dataset(root)
    assert main(["preprocess", "--config", str(write_config(root))]) == 0
    return root


def feature_bytes(root, extra=""):
    """Run ``features`` under BASE_CONFIG plus ``extra``; the bytes of both feature files."""
    assert main(["features", "--config", str(write_config(root, extra=extra))]) == 0
    return {split: (root / "work" / "features" / f"{split}.spdt").read_bytes()
            for split in ("train", "test")}


class TestRecentredTestFeatures:
    def test_test_features_do_not_depend_on_batch_size(self, recentring_workspace):
        sixteen = feature_bytes(recentring_workspace, "batch_size = 16\n")
        five = feature_bytes(recentring_workspace, "batch_size = 5\n")
        assert five["test"] == sixteen["test"]

    def test_features_do_not_read_any_model_setting(self, recentring_workspace):
        from dataclasses import fields

        from spd_bci.model import ModelSettings

        assert set(OTHER_MODEL_SETTINGS) == {f.name for f in fields(ModelSettings)}
        base = load_config(write_config(recentring_workspace))
        for name, value in OTHER_MODEL_SETTINGS.items():
            assert getattr(base, name) != value, name
        extra = "".join(f"{name} = {value}\n" for name, value in OTHER_MODEL_SETTINGS.items())
        assert feature_bytes(recentring_workspace, extra) == feature_bytes(recentring_workspace)

    @pytest.fixture
    def one_test_trial(self, tmp_path, capsys):
        """The README example with one test trial, preprocessed; returns its config."""
        write_synthetic_dataset(tmp_path)
        for path in sorted((tmp_path / "raw" / "test").glob("*.eegs"))[1:]:
            path.unlink()
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 0
        capsys.readouterr()
        return config

    def test_one_test_trial_exits_2_naming_the_split(self, tmp_path, capsys, one_test_trial):
        config = one_test_trial
        assert main(["features", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "work" / "preprocessed" / "test") in err
        assert "1 test trial" in err and "reference_policy = train-mean" in err
        assert not (tmp_path / "work" / "features" / "test.spdt").exists()
        train_mean = write_config(tmp_path, extra="reference_policy = train-mean\n")
        assert main(["features", "--config", str(train_mean)]) == 0

    def test_one_test_trial_fails_before_any_trial_is_filtered(
        self, tmp_path, monkeypatch, one_test_trial
    ):
        from spd_bci import pipeline

        calls = []
        original = pipeline.filter_bank_decompose

        def counting(segment, bank):
            calls.append(segment)
            return original(segment, bank)

        monkeypatch.setattr(pipeline, "filter_bank_decompose", counting)
        assert main(["features", "--config", str(one_test_trial)]) == 2
        assert calls == []
        assert not (tmp_path / "work" / "features").exists()


class TestSeedOverride:
    def test_seed_flag_changes_training_trajectory(self, tmp_path):
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra="epochs = 4\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config)]) == 0
        log_path = tmp_path / "work" / "model" / "train_log_fused.jsonl"
        assert main(["train", "--config", str(config), "--seed", "11"]) == 0
        run_a = log_path.read_bytes()
        records = [json.loads(line) for line in run_a.decode().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2, 3, 4]
        assert all(set(r) == {"accuracy", "epoch", "loss"} for r in records)
        assert main(["train", "--config", str(config), "--seed", "11"]) == 0
        assert log_path.read_bytes() == run_a  # same seed, same trajectory
        assert main(["train", "--config", str(config), "--seed", "99"]) == 0
        assert log_path.read_bytes() != run_a  # new seed, new trajectory


REGRESSION_CONFIG = """
profile = synthetic
task = regression
output_activation = sigmoid
loss = mse
n_classes = 1
fs = 200
trial_seconds = 2
n_channels = 4
rank = 3
bands = 8-16,16-24
raw_train_dir = raw/train
raw_test_dir = raw/test
work_dir = work
seed = 11
epochs = 30
batch_size = 16
lstm_layers = 2
lstm_hidden = 16
temporal_embedding_dim = 16
spatial_hidden = 32
spatial_embedding_dim = 16
encoder_hidden = 8
fusion_hidden = 32
"""


# The model keys every profile leaves open, at the smallest sizes.
SMALL_MODEL = """
epochs = 1
batch_size = 4
lstm_layers = 1
lstm_hidden = 4
temporal_embedding_dim = 3
spatial_hidden = 6
spatial_embedding_dim = 3
encoder_hidden = 2
fusion_hidden = 4
"""


class TestEveryProfile:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_profile_runs_every_step(self, tmp_path, profile):
        from spd_bci.model import METRICS

        shape = PROFILES[profile]
        n_channels, n_classes = shape["n_channels"], shape["n_classes"]
        n_samples = int(round(shape["trial_seconds"] * shape["fs"]))
        rng = np.random.default_rng(0)
        for split in ("train", "test"):
            out = tmp_path / "raw" / split
            out.mkdir(parents=True)
            for i in range(8 if split == "train" else 4):
                # A class per trial in turn, or a real target in (0, 1).
                label = i % n_classes if shape["task"] == "classification" else (i + 1) / 10
                x = rng.standard_normal((n_channels, n_samples))
                write_segment(out / f"seg_{i:03d}.eegs", EegSegment(x, shape["fs"], label))
        config = tmp_path / "pipeline.cfg"
        config.write_text(
            f"profile = {profile}\nraw_train_dir = raw/train\nraw_test_dir = raw/test\n"
            + SMALL_MODEL,
            encoding="utf-8",
        )
        for command in ("preprocess", "features", "train", "evaluate"):
            assert main([command, "--config", str(config)]) == 0, command
        metrics = json.loads((tmp_path / "work" / "metrics.json").read_text())
        assert metrics["profile"] == profile and metrics["n_test"] == 4
        assert set(METRICS[shape["task"]]) <= set(metrics)


class TestRegressionPipeline:
    def test_vigilance_style_regression(self, tmp_path):
        # Targets in [0, 1] derived from each segment's drawn correlation
        # strength; the spatial stream can regress it through the SCM.
        from spd_bci.data import write_segment
        from spd_bci.filters import EegSegment

        for split, n, seed in (("train", 48, 0), ("test", 24, 1)):
            out = tmp_path / "raw" / split
            out.mkdir(parents=True)
            rng = np.random.default_rng(seed)
            for i in range(n):
                rho = float(rng.uniform(-0.8, 0.8))
                cov = np.eye(4)
                cov[0, 1] = cov[1, 0] = rho
                x = np.linalg.cholesky(cov) @ rng.standard_normal((4, 400))
                write_segment(
                    out / f"seg_{i:03d}.eegs", EegSegment(x, 200.0, label=(rho + 1) / 2)
                )
        config = tmp_path / "pipeline.cfg"
        config.write_text(REGRESSION_CONFIG, encoding="utf-8")
        for command in ("preprocess", "features", "train", "evaluate"):
            assert main([command, "--config", str(config)]) == 0
        metrics = json.loads((tmp_path / "work" / "metrics.json").read_text())
        assert metrics["task"] == "regression"
        assert metrics["rmse"] < 0.25
        assert metrics["pcc"] > 0.5

    def test_regression_ablate_writes_rmse_then_pcc_per_variant(self, tmp_path):
        write_synthetic_dataset(tmp_path)  # the class labels 0 and 1 as regression targets
        head = (
            "task = regression\nn_classes = 1\noutput_activation = sigmoid\nloss = mse\n"
            "epochs = 2\n"
        )
        for command in ("preprocess", "features"):
            assert main([command, "--config", str(write_config(tmp_path, extra=head))]) == 0
        for variant in ("fused", "spatial"):
            config = write_config(tmp_path, extra=head + f"variant = {variant}\n")
            assert main(["train", "--config", str(config)]) == 0
        config = write_config(tmp_path, extra=head + "ablate_variants = fused,spatial\n")
        assert main(["ablate", "--config", str(config)]) == 0
        rows = (tmp_path / "work" / "ablation.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,metric,value"
        cells = [line.split(",") for line in rows[1:]]
        assert [cell[:2] for cell in cells] == [
            ["fused", "rmse"], ["fused", "pcc"], ["spatial", "rmse"], ["spatial", "pcc"]
        ]
        assert all(np.isfinite(float(cell[2])) for cell in cells)


def two_pass_train_features(config):
    """Reference train.spdt tensors from a two-pass, one-matrix-at-a-time computation.

    Every trial is filtered once for the temporal features and once more
    for its SCMs, and each covariance is reduced and vectorized on its own.
    """
    from spd_bci.data import read_segment
    from spd_bci.filters import design_filter_bank, filter_bank_decompose
    from spd_bci.geometry import (
        pca_spatial_filter,
        reduce_covariance,
        riemannian_mean,
        scm,
        tangent_vectorize,
    )
    from spd_bci.spectral import band_basis, build_feature_sequence, plan_stft

    bank = design_filter_bank(config.bands, config.fs)
    plan = plan_stft(config.trial_seconds, config.fs)
    bases = [band_basis(plan, band) for band in bank.bands]
    paths = sorted((config.work_dir / "preprocessed" / "train").glob("*.eegs"))
    segments = [read_segment(path) for path in paths]
    temporal = np.stack([
        build_feature_sequence(filter_bank_decompose(s, bank), bases, plan).values
        for s in segments
    ])
    scms = np.stack([
        np.stack([scm(band) for band in filter_bank_decompose(s, bank)])
        for s in segments
    ])
    filters, references = [], []
    for b in range(bank.n_bands):
        w = pca_spatial_filter(scms[:, b], config.rank)
        filters.append(w)
        reduced = np.stack([reduce_covariance(w, c) for c in scms[:, b]])
        references.append(riemannian_mean(reduced))
    spatial = np.stack([
        np.concatenate([
            tangent_vectorize(references[b], reduce_covariance(filters[b], scms[p, b]))
            for b in range(bank.n_bands)
        ])
        for p in range(len(segments))
    ])
    labels = np.array([float(s.label) for s in segments])
    return {"temporal": temporal, "spatial": spatial, "labels": labels, "scms": scms}


class TestSinglePassFeatures:
    def test_filter_bank_runs_once_per_trial(self, tmp_path, monkeypatch):
        from spd_bci import pipeline
        from spd_bci.data import read_tensors

        write_synthetic_dataset(tmp_path)
        config_path = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config_path)]) == 0
        calls = []
        original = pipeline.filter_bank_decompose

        def counting(segment, bank):
            calls.append(segment)
            return original(segment, bank)

        monkeypatch.setattr(pipeline, "filter_bank_decompose", counting)
        assert main(["features", "--config", str(config_path)]) == 0
        assert len(calls) == 40 + 24  # train + test trials, one pass each

        got = read_tensors(tmp_path / "work" / "features" / "train.spdt")
        want = two_pass_train_features(load_config(config_path))
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            np.testing.assert_allclose(got[key], value, rtol=1e-10, atol=1e-10, err_msg=key)

    def test_one_scm_call_per_trial(self, workspace, monkeypatch):
        from spd_bci import pipeline

        shapes, original = [], pipeline.scm

        def counting(samples):
            shapes.append(samples.shape)
            return original(samples)

        monkeypatch.setattr(pipeline, "scm", counting)
        assert main(["features", "--config", str(write_config(workspace))]) == 0
        assert shapes == [(2, 4, 400)] * (40 + 24)  # one (bands, channels, samples) stack each

    def test_trial_loop_holds_the_split_arrays_once(self, tmp_path, monkeypatch):
        # Traced peak up to the spatial fit: each split's rows, filled in place, plus
        # one trial's work. Rows gathered in lists and then stacked are held twice.
        import tracemalloc

        from spd_bci import pipeline

        n_trials, n_channels, n_samples, n_bands, n_windows = 200 + 4, 48, 400, 2, 3
        rng = np.random.default_rng(0)
        for split, first, stop in (("train", 0, 200), ("test", 200, n_trials)):
            out = tmp_path / "work" / "preprocessed" / split
            out.mkdir(parents=True)
            for i in range(first, stop):
                samples = rng.standard_normal((n_channels, n_samples))
                write_segment(out / f"seg_{i:03d}.eegs", EegSegment(samples, 200.0, i % 2))
        config = load_config(write_config(tmp_path, extra=f"n_channels = {n_channels}\n"))

        class Fitted(Exception):
            pass

        def at_fit(train_scms, bands, rank):
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise Fitted

        peaks = []
        monkeypatch.setattr(pipeline, "fit_spatial_reducers", at_fit)
        tracemalloc.start()
        try:
            with pytest.raises(Fitted):
                pipeline.run_features(config)
        finally:
            tracemalloc.stop()
        row_values = n_windows * 2 * n_bands * n_channels + n_bands * n_channels**2 + 1
        split_arrays = 8 * n_trials * row_values  # temporal, scms and labels: 8.1 MiB
        band_signals = 8 * n_bands * n_channels * n_samples
        assert peaks[0] < split_arrays + 2 * band_signals + 3 * 2**20, peaks[0] / 2**20

    def test_features_holds_at_most_two_raw_trials(self, workspace, monkeypatch):
        # Each trial is read when the loop reaches it: the one being read and the one
        # before it, which the loop still names, are the only ones alive.
        from spd_bci import data as dataio

        read, alive, most = dataio.read_segment, [], 0

        def counting_read(path):
            nonlocal most
            segment = read(path)
            alive[:] = [ref for ref in alive if ref() is not None] + [weakref.ref(segment)]
            most = max(most, len(alive))
            return segment

        monkeypatch.setattr(dataio, "read_segment", counting_read)
        assert main(["features", "--config", str(write_config(workspace))]) == 0
        assert 1 <= most <= 2


class TestFiltersDesignedOncePerRun:
    def test_initial_conditions_and_notch_are_designed_once_per_step(self, tmp_path, monkeypatch):
        # zero_phase_sos builds each filter's initial conditions and block matrices.
        from spd_bci import filters, pipeline

        calls = {}
        for name in ("design_butterworth_bandpass", "design_notch", "zero_phase_sos"):
            original = getattr(filters, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            for module in (filters, pipeline):  # the pipeline imports them by name
                monkeypatch.setattr(module, name, counting)
        write_synthetic_dataset(tmp_path)  # 40 train + 24 test trials, 2 bands
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 0
        # One broadband and one notch.
        assert calls == {"design_butterworth_bandpass": 1, "design_notch": 1, "zero_phase_sos": 2}
        calls.clear()
        assert main(["features", "--config", str(config)]) == 0
        assert calls == {"design_butterworth_bandpass": 2, "zero_phase_sos": 2}  # one per band

    def test_band_bases_are_built_once_per_step(self, tmp_path, monkeypatch):
        from spd_bci import pipeline, spectral

        built = []
        original = spectral.band_basis

        def counting(plan, band):
            built.append(band)
            return original(plan, band)

        for module in (spectral, pipeline):  # the pipeline imports it by name
            monkeypatch.setattr(module, "band_basis", counting)
        write_synthetic_dataset(tmp_path)  # 40 train + 24 test trials, 2 bands
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 0
        assert not built
        assert main(["features", "--config", str(config)]) == 0
        assert len(built) == 2  # one per band, not one per band and trial


FEATURE_FILES = ("train.spdt", "test.spdt", "spatial_model.spdt")


@pytest.fixture(scope="class")
def seed_shape_workspace(tmp_path_factory):
    """Preprocessed SEED-shape trials (62 ch x 1600 samples, 5 bands, rank 48)."""
    root = tmp_path_factory.mktemp("seed_shape")
    rng = np.random.default_rng(5)
    mixers = [rng.standard_normal((62, 62)) / 8.0 for _ in range(3)]
    covariances = [m @ m.T + np.eye(62) for m in mixers]
    for split, per_class, seed in (("train", 2, 0), ("test", 1, 1)):
        out = root / "raw" / split
        out.mkdir(parents=True)
        spec = SynthSpec(
            class_covariances=covariances, n_samples=1600, fs=200.0,
            segments_per_class=per_class, seed=seed,
        )
        for i, segment in enumerate(synth_spd_classes(spec)):
            write_segment(out / f"seg_{i:03d}.eegs", segment)
    config = root / "pipeline.cfg"
    config.write_text(
        "profile = seed\nraw_train_dir = raw/train\nraw_test_dir = raw/test\n"
        "work_dir = work\n",
        encoding="utf-8",
    )
    assert main(["preprocess", "--config", str(config)]) == 0
    return root


def features_in_subprocess(root, command, threads):
    """Run ``features`` with ``command`` at OPENBLAS_NUM_THREADS=threads; the files' bytes."""
    proc = subprocess.run(
        [*command, "features", "--config", str(root / "pipeline.cfg")],
        env={**package_env(), "OPENBLAS_NUM_THREADS": threads}, cwd=root,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [(root / "work" / "features" / name).read_bytes() for name in FEATURE_FILES]


CLI = [sys.executable, "-m", "spd_bci.cli"]


def cli_on_cpus(n):
    """The CLI with the pool's usable CPUs set to ``n``."""
    return [sys.executable, "-c", (
        "import sys\nfrom spd_bci import cli, pipeline\n"
        f"pipeline._usable_cpus = lambda: {n}\nsys.exit(cli.main(sys.argv[1:]))\n"
    )]


ONE_WORKER_CLI = cli_on_cpus(1)


class TestFeaturesIndependentOfBlasThreads:
    # At SEED shapes the band SCMs are large enough for OpenBLAS to split
    # them over two threads.
    def test_seed_shape_features_are_byte_identical_at_one_and_two_threads(
        self, seed_shape_workspace
    ):
        one, two = (features_in_subprocess(seed_shape_workspace, CLI, t) for t in ("1", "2"))
        for name, a, b in zip(FEATURE_FILES, one, two):
            assert a == b, name

    def test_seed_shape_features_are_byte_identical_with_one_and_two_workers(
        self, seed_shape_workspace
    ):
        two = features_in_subprocess(seed_shape_workspace, CLI, "2")
        one = features_in_subprocess(seed_shape_workspace, ONE_WORKER_CLI, "2")
        for name, a, b in zip(FEATURE_FILES, one, two):
            assert a == b, name


def has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# The CLI without its allocator policy.
DEFAULT_MALLOC_CLI = [sys.executable, "-c", (
    "import sys\nfrom spd_bci import cli\n"
    "cli._keep_freed_memory = lambda: None\nsys.exit(cli.main(sys.argv[1:]))\n"
)]


class TestAllocatorPolicy:
    """The CLI keeps freed blocks in glibc's heap, and that changes no output byte."""

    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_second_preprocess_reuses_the_first_ones_memory(self, seed_shape_workspace):
        # At SEED shapes the filter blocks and band signals are above glibc's default
        # 128 KiB mmap threshold: without the policy, each segment of a second run
        # faults its temporaries in again (hundreds of minor faults per segment). A
        # fresh interpreter, because glibc raises that threshold as large blocks are
        # freed, so this process's history could hide the faults.
        script = (
            "import resource, sys\nfrom spd_bci.cli import main\nfaults = []\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert main(['preprocess', '--config', sys.argv[1]]) == 0\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(*faults)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(seed_shape_workspace / "pipeline.cfg")],
            env=package_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        first, second = map(int, proc.stdout.splitlines()[-1].split())
        assert second < 100, (first, second)

    def test_policy_is_three_mallopt_calls(self, monkeypatch):
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        calls = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_memory()
        # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_ARENA_MAX.
        assert calls == [(-3, 32 * 2**20), (-1, 256 * 2**20), (-8, 1)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def test_all_five_steps_write_the_same_bytes_without_the_policy(self, seed_shape_workspace):
        # Heap and mmap blocks differ in alignment, which numpy's SIMD loops may see.
        def run_all(command, work_dir):
            config = seed_shape_workspace / f"{work_dir}.cfg"
            config.write_text(
                "profile = seed\nraw_train_dir = raw/train\nraw_test_dir = raw/test\n"
                f"work_dir = {work_dir}\nepochs = 2\nablate_variants = fused\n",
                encoding="utf-8",
            )
            for step in ("preprocess", "features", "train", "evaluate", "ablate"):
                proc = subprocess.run(
                    [*command, step, "--config", str(config)], env=package_env(),
                    cwd=seed_shape_workspace, capture_output=True, text=True, timeout=300,
                )
                assert proc.returncode == 0, (step, proc.stderr)
            root = seed_shape_workspace / work_dir
            return {
                str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
            }

        with_policy = run_all(CLI, "work-policy")
        without = run_all(DEFAULT_MALLOC_CLI, "work-default")
        assert sorted(with_policy) == sorted(without)
        assert len(with_policy) >= 10, sorted(with_policy)
        for name, data in with_policy.items():
            assert data == without[name], name


class TestBandPool:
    """``features`` maps each band's geometry over a thread pool at one BLAS thread."""

    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        from spd_bci import pipeline

        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)  # a pool even on one CPU
        write_synthetic_dataset(tmp_path)  # 2 bands: 8-16 and 16-24 Hz
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 0
        return config

    @pytest.fixture
    def blas_threads(self):
        """OpenBLAS's thread-count getter, with the count set to 2 for the test."""
        from spd_bci import pipeline

        controls = pipeline._openblas_thread_controls()
        if controls is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
        setter, getter = controls
        previous = getter()
        setter(2)  # so that a count left at one shows
        yield getter
        setter(previous)

    def test_bands_run_at_one_blas_thread_and_the_count_is_restored(
        self, config, blas_threads, monkeypatch
    ):
        from spd_bci import pipeline

        inside = []
        fit_band = pipeline._fit_band

        def recording(*args):
            inside.append(blas_threads())
            return fit_band(*args)

        monkeypatch.setattr(pipeline, "_fit_band", recording)
        before = blas_threads()
        assert main(["features", "--config", str(config)]) == 0
        assert inside == [1, 1]
        assert blas_threads() == before == 2

    def test_first_failing_band_in_band_order_is_reported(
        self, config, blas_threads, monkeypatch, capsys
    ):
        from spd_bci import pipeline
        from spd_bci.errors import NumericalError

        seen = {}
        fit = pipeline.fit_spatial_reducers

        def recording_fit(train_scms, bands, rank):
            seen["scms"] = train_scms
            return fit(train_scms, bands, rank)

        def failing_band(band_scms, rank):
            scms = seen["scms"]
            band = next(
                b for b in range(scms.shape[1]) if np.array_equal(band_scms, scms[:, b])
            )
            if band == 0:
                time.sleep(0.2)  # band 1 fails first in time
            raise NumericalError(f"synthetic failure in band {band}")

        monkeypatch.setattr(pipeline, "fit_spatial_reducers", recording_fit)
        monkeypatch.setattr(pipeline, "_fit_band", failing_band)
        before = blas_threads()
        assert main(["features", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "band 0 (8-16 Hz): synthetic failure in band 0" in err, err
        assert "band 1" not in err
        assert blas_threads() == before == 2

    def test_without_a_thread_control_the_loop_writes_the_same_bytes(self, config, monkeypatch):
        from spd_bci import pipeline

        features = config.parent / "work" / "features"
        assert main(["features", "--config", str(config)]) == 0
        pooled = [(features / name).read_bytes() for name in FEATURE_FILES]

        def no_pool(*args, **kwargs):
            raise AssertionError("the fallback must not start a pool")

        monkeypatch.setattr(pipeline, "_openblas_thread_controls", lambda: None)
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        assert main(["features", "--config", str(config)]) == 0
        for name, want in zip(FEATURE_FILES, pooled):
            assert (features / name).read_bytes() == want, name


class TestLazyScipyImport:
    def test_no_step_imports_scipy(self, tmp_path):
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra="ablate_variants = fused\n")
        script = (
            "import sys\n"
            "import spd_bci.cli\n"
            "for step in ('preprocess', 'features', 'train', 'evaluate', 'ablate'):\n"
            f"    assert spd_bci.cli.main([step, '--config', {str(config)!r}]) == 0, step\n"
            "    assert 'scipy' not in sys.modules, step\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=package_env(), capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "ok"


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def usable_cpus(request, monkeypatch):
    """The pool's usable CPUs, 1 or 2, whatever the machine has."""
    from spd_bci import pipeline

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: request.param)
    return request.param


class TestRankGridSplits:
    def test_small_parallel_grid_writes_metrics(self, tmp_path, usable_cpus):
        # 16 trials: a 10% split of the whole set would be one trial, of one class.
        write_synthetic_dataset(tmp_path, train_per_class=8)
        config = write_config(tmp_path, extra="rank_mode = grid\nepochs = 3\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        grid = json.loads((tmp_path / "work" / "grid_metrics.json").read_text())
        assert [row["rank"] for row in grid["rows"]] == [1, 2, 3]
        assert all(row["kappa"] is not None for row in grid["rows"])
        assert grid["best_rank"] in (1, 2, 3)

    @pytest.fixture
    def rank2_config(self, tmp_path):
        """Preprocessed README-style data whose SCMs all have rank 2, in grid mode."""
        # Channels 2 and 3 copy channel 1, so ranks 1 and 2 fit, and rank 3's
        # Karcher mean starts from a singular Euclidean mean.
        write_synthetic_dataset(tmp_path)
        for path in sorted((tmp_path / "raw").rglob("*.eegs")):
            segment = read_segment(path)
            segment.samples[2:] = segment.samples[1]
            write_segment(path, segment)
        config = write_config(tmp_path, extra="rank = 2\nrank_mode = grid\nepochs = 1\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config)]) == 0
        return config

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_band_failure_is_an_error_row_naming_the_band(self, rank2_config, cpus):
        # On a pool thread the error must come back whole, not break the pool, and
        # the feasible ranks keep their rows.
        proc = subprocess.run(
            [*cli_on_cpus(cpus), "train", "--config", str(rank2_config)],
            env=package_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        grid = json.loads((rank2_config.parent / "work" / "grid_metrics.json").read_text())
        assert [row["rank"] for row in grid["rows"]] == [1, 2, 3]
        assert ["error" in row for row in grid["rows"]] == [False, False, True]
        failed = grid["rows"][2]
        assert failed["error"].startswith(
            "band 0 (8-16 Hz): mean iterate is not positive definite"
        ), failed
        assert failed["accuracy"] is None and failed["kappa"] is None
        assert grid["best_rank"] in (1, 2)
        assert "Traceback" not in proc.stderr

    def test_fixed_rank_above_the_scm_rank_exits_3_naming_the_band(self, rank2_config, capsys):
        config = write_config(rank2_config.parent, extra="epochs = 1\n")  # rank 3, fixed
        assert main(["features", "--config", str(config)]) == 3
        assert "band 0 (8-16 Hz): mean iterate is not positive definite" in capsys.readouterr().err

    def test_grid_where_every_rank_fails_exits_3_with_the_first_error(
        self, tmp_path, monkeypatch, capsys
    ):
        from spd_bci import pipeline
        from spd_bci.errors import NumericalError

        def failing(train_scms, bands, rank):
            raise NumericalError(f"band 1 (16-24 Hz): rank {rank} failed")

        write_synthetic_dataset(tmp_path, train_per_class=8)
        config = write_config(tmp_path, extra="rank_mode = grid\nepochs = 1\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config)]) == 0
        monkeypatch.setattr(pipeline, "fit_spatial_reducers", failing)
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 3
        assert "band 1 (16-24 Hz): rank 1 failed" in capsys.readouterr().err
        assert not (tmp_path / "work" / "grid_metrics.json").exists()

    def test_validation_split_is_stratified(self):
        from spd_bci.pipeline import _validation_split

        labels = np.repeat([0.0, 1.0, 2.0], [8, 12, 30])
        val, fit = _validation_split(labels, classification=True, seed=4)
        assert sorted(np.concatenate([val, fit]).tolist()) == list(range(50))
        assert np.bincount(labels[val].astype(int)).tolist() == [1, 1, 3]
        again, _ = _validation_split(labels, classification=True, seed=4)
        np.testing.assert_array_equal(val, again)
        val, fit = _validation_split(np.linspace(0, 1, 50), classification=False, seed=4)
        assert len(val) == 5 and len(fit) == 45

    def test_undefined_scores_are_null_and_skipped_for_best_rank(
        self, tmp_path, monkeypatch, usable_cpus
    ):
        from spd_bci import pipeline

        pccs = {1: 0.4, 2: None, 3: 0.2}
        monkeypatch.setattr(
            pipeline, "_grid_point",
            lambda config, train, fit, val, rank: {"rank": rank, "rmse": 0.1, "pcc": pccs[rank]},
        )
        config = parse_config_text(
            "profile = synthetic\ntask = regression\nn_classes = 1\n"
            "output_activation = sigmoid\nloss = mse\nrank_mode = grid\n"
            f"work_dir = {tmp_path}\n"
        )
        train = {"labels": np.linspace(0, 1, 20), "temporal": None, "scms": None}
        assert pipeline._run_rank_grid(config, train)["best_rank"] == 1
        pccs[1] = pccs[3] = None
        assert pipeline._run_rank_grid(config, train)["best_rank"] is None
        grid = json.loads((tmp_path / "grid_metrics.json").read_text())
        assert grid["best_rank"] is None and grid["rows"][1]["pcc"] is None

    def test_tied_scores_go_to_the_lowest_rank(self, tmp_path, monkeypatch, usable_cpus):
        from spd_bci import pipeline

        accuracies = {1: 0.5, 2: 0.9, 3: 0.9}
        monkeypatch.setattr(
            pipeline, "_grid_point",
            lambda config, train, fit, val, rank: {"rank": rank, "accuracy": accuracies[rank]},
        )
        config = parse_config_text(f"profile = synthetic\nrank_mode = grid\nwork_dir = {tmp_path}\n")
        train = {"labels": np.repeat([0.0, 1.0], 10), "temporal": None, "scms": None}
        assert pipeline._run_rank_grid(config, train)["best_rank"] == 2
        accuracies[1] = 0.9
        assert pipeline._run_rank_grid(config, train)["best_rank"] == 1


REGRESSION_GRID_CONFIG = """
profile = synthetic
fs = 200
trial_seconds = 8
n_channels = 4
rank = 2
bands = 8-16,16-24
task = regression
n_classes = 1
output_activation = sigmoid
loss = mse
rank_mode = grid
raw_train_dir = raw/train
raw_test_dir = raw/test
work_dir = work
epochs = 1
lstm_layers = 1
lstm_hidden = 64
"""


class TestOnePool:
    """Bands and grid ranks share one map: one pool, at one BLAS thread."""

    def test_regression_grid_is_the_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # 29 fit trials x 15 windows: at two BLAS threads, an LSTM product of this
        # grid's training splits over both threads and its bits move.
        from spd_bci import pipeline

        if pipeline._openblas_thread_controls() is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
        rng = np.random.default_rng(3)
        ends = [np.eye(4) + 0.2 * rng.standard_normal((4, 4)) for _ in range(2)]
        for split, count in (("train", 32), ("test", 4)):
            out = tmp_path / "raw" / split
            out.mkdir(parents=True)
            for i in range(count):
                target = float(rng.uniform(0.05, 0.95))
                mixer = (1 - target) * ends[0] + target * ends[1]
                samples = mixer @ rng.standard_normal((4, 1600))
                write_segment(out / f"seg_{i:03d}.eegs", EegSegment(samples, 200.0, target))
        config = tmp_path / "pipeline.cfg"
        config.write_text(REGRESSION_GRID_CONFIG, encoding="utf-8")
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config)]) == 0
        grids = []
        for command, threads in ((CLI, "1"), (CLI, "2"), (ONE_WORKER_CLI, "2")):
            proc = subprocess.run(
                [*command, "train", "--config", str(config)],
                env={**package_env(), "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            grids.append((tmp_path / "work" / "grid_metrics.json").read_bytes())
        assert grids[1] == grids[0]
        assert grids[2] == grids[0]

    def test_a_grid_never_holds_more_pool_threads_than_usable_cpus(self, tmp_path, monkeypatch):
        # Each rank's bands run as a loop in its pool thread, not on a pool of their own.
        from spd_bci import pipeline

        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        write_synthetic_dataset(tmp_path, train_per_class=8)
        config = write_config(tmp_path, extra="rank_mode = grid\nepochs = 1\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config)]) == 0
        alive = []

        def counting(func):
            def run(*args):
                alive.append(sum(
                    t.name.startswith("ThreadPoolExecutor") for t in threading.enumerate()
                ))
                return func(*args)
            return run

        for name in ("_fit_band", "_band_features"):
            monkeypatch.setattr(pipeline, name, counting(getattr(pipeline, name)))
        assert main(["train", "--config", str(config)]) == 0
        assert len(alive) == 2 * 3 * 2  # fit and validation, 3 ranks, 2 bands
        assert max(alive) <= 2, alive

class TestCheckpointMismatch:
    def test_batchnorm_checkpoint_under_dropout_config_exits_1(self, workspace, capsys):
        config = write_config(workspace, extra="variant = temporal\nepochs = 1\n")
        assert main(["train", "--config", str(config)]) == 0
        dropout = write_config(
            workspace, extra="variant = temporal\nepochs = 1\ntemporal_regularizer = dropout\n"
        )
        capsys.readouterr()
        assert main(["evaluate", "--config", str(dropout)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint has tensors this model does not" in err and "lstm0_reg." in err

    def test_task_head_mismatch_exits_1_naming_key(self, workspace, capsys):
        head = "variant = spatial\nepochs = 1\noutput_activation = sigmoid\n"
        config = write_config(workspace, extra=head + "loss = bce\n")
        assert main(["train", "--config", str(config)]) == 0
        regression = write_config(
            workspace, extra=head + "loss = mse\ntask = regression\nn_classes = 1\n"
        )
        capsys.readouterr()
        assert main(["evaluate", "--config", str(regression)]) == 1
        err = capsys.readouterr().err
        assert "'meta.loss' is 'bce'" in err and "'mse'" in err

    def test_checkpoint_without_meta_exits_1_naming_the_tensors(self, workspace, capsys):
        from spd_bci.data import read_tensors, write_tensors

        config = write_config(workspace, extra="variant = spatial\nepochs = 1\n")
        assert main(["train", "--config", str(config)]) == 0
        path = workspace / "work" / "model" / "model_spatial.ckpt"
        tensors = read_tensors(path)
        write_tensors(path, {k: v for k, v in tensors.items() if not k.startswith("meta.")})
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "missing tensors" in err
        for name in ("variant", "n_outputs", "output_activation", "loss"):
            assert f"'meta.{name}'" in err

    def test_output_count_mismatch_exits_1_naming_key(self, workspace, capsys):
        config = write_config(workspace, extra="variant = spatial\nepochs = 1\n")
        assert main(["train", "--config", str(config)]) == 0
        three = write_config(workspace, extra="variant = spatial\nepochs = 1\nn_classes = 3\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(three)]) == 1
        err = capsys.readouterr().err
        assert "'meta.n_outputs' is 2" in err and "3 outputs" in err


@pytest.fixture(scope="module")
def roundtrip_workspace(tmp_path_factory):
    """Its own features, so the checkpoints trained here replace no other test's."""
    root = tmp_path_factory.mktemp("roundtrip")
    write_synthetic_dataset(root)
    config = write_config(root)
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["features", "--config", str(config)]) == 0
    return root


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize(
        "variant, regularizer",
        [(variant, regularizer) for variant in VARIANTS for regularizer in ("batchnorm", "dropout")],
    )
    def test_evaluate_scores_exactly_the_trained_model(
        self, roundtrip_workspace, monkeypatch, variant, regularizer
    ):
        from spd_bci import pipeline
        from spd_bci.data import read_tensors

        path = write_config(
            roundtrip_workspace,
            extra=f"variant = {variant}\ntemporal_regularizer = {regularizer}\nepochs = 2\n",
        )
        config = load_config(path)
        models = []

        def recording(model, *args, **kwargs):
            models.append(model)
            return train_fn(model, *args, **kwargs)

        def scoring(model, *args):
            models.append(model)
            return evaluate_fn(model, *args)

        train_fn, evaluate_fn = pipeline.train_model, pipeline.evaluate_model
        monkeypatch.setattr(pipeline, "train_model", recording)
        monkeypatch.setattr(pipeline, "evaluate_model", scoring)
        pipeline.run_train(config)
        pipeline.run_evaluate(config)
        trained, loaded = models
        assert loaded is not trained
        test = read_tensors(roundtrip_workspace / "work" / "features" / "test.spdt")
        np.testing.assert_array_equal(
            loaded.predict_scores(test["temporal"], test["spatial"]),
            trained.predict_scores(test["temporal"], test["spatial"]),
        )

    def test_evaluate_draws_no_initialisation(self, roundtrip_workspace, monkeypatch):
        from spd_bci import nnet

        config = write_config(roundtrip_workspace, extra="epochs = 2\n")
        metrics = roundtrip_workspace / "work" / "metrics.json"
        assert main(["train", "--config", str(config)]) == 0
        assert main(["evaluate", "--config", str(config)]) == 0
        expected = metrics.read_bytes()
        metrics.unlink()

        def no_draw(*args, **kwargs):
            raise AssertionError("evaluate drew an initialisation")

        monkeypatch.setattr(nnet, "glorot_uniform", no_draw)
        assert main(["evaluate", "--config", str(config)]) == 0
        assert metrics.read_bytes() == expected
