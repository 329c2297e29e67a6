"""Config parsing and CLI pipeline tests on a small synthetic dataset."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spd_bci
from spd_bci.cli import main
from spd_bci.config import PROFILES, load_config, parse_config_text
from spd_bci.data import SynthSpec, read_segment, synth_spd_classes, write_segment
from spd_bci.errors import ConfigError
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
        assert config.n_bands == 5
        assert config.n_channels == 62
        assert config.rank == 48
        assert config.temporal_feature_dim == 620
        assert config.spatial_feature_dim() == 5880
        assert config.loss == "cross-entropy"

    def test_fine_band_profiles(self):
        for name in ("seed-vig", "bci2a", "bci2b"):
            config = parse_config_text(f"profile = {name}\n")
            assert config.n_bands == 25
        assert parse_config_text("profile = bci2b\n").spatial_feature_dim() == 150

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

    @pytest.mark.parametrize("flag", ["--seed", "--jobs"])
    def test_negative_flag_exits_1_naming_the_flag(self, tmp_path, capsys, flag):
        # Checked before any step runs: a negative seed would otherwise fail
        # only inside numpy, with no flag named.
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config), flag, "-1"]) == 1
        err = capsys.readouterr().err
        assert f"{flag} must be" in err and "got -1" in err
        assert "Traceback" not in err
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

    def test_grid_mode_with_parallel_jobs_matches_sequential(self, workspace):
        config = write_config(
            workspace,
            extra="rank_mode = grid\nvariant = spatial\nepochs = 6\n",
        )
        grid_path = workspace / "work" / "grid_metrics.json"
        assert main(["train", "--config", str(config)]) == 0
        sequential = grid_path.read_bytes()
        assert main(["train", "--config", str(config), "--jobs", "2"]) == 0
        assert grid_path.read_bytes() == sequential

    def test_numerical_failure_exits_3(self, monkeypatch, tmp_path):
        from spd_bci import cli
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

    def test_one_test_trial_exits_2_naming_the_split(self, tmp_path, capsys):
        write_synthetic_dataset(tmp_path)
        for path in sorted((tmp_path / "raw" / "test").glob("*.eegs"))[1:]:
            path.unlink()
        config = write_config(tmp_path)
        assert main(["preprocess", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["features", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "work" / "preprocessed" / "test") in err
        assert "1 test trial" in err and "reference_policy = train-mean" in err
        assert not (tmp_path / "work" / "features" / "test.spdt").exists()
        train_mean = write_config(tmp_path, extra="reference_policy = train-mean\n")
        assert main(["features", "--config", str(train_mean)]) == 0


class TestSeedOverride:
    def test_seed_flag_changes_training_trajectory(self, tmp_path):
        write_synthetic_dataset(tmp_path)
        config = write_config(tmp_path, extra="epochs = 4\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config)]) == 0
        log_path = tmp_path / "work" / "model" / "train_log_fused.jsonl"
        assert main(["train", "--config", str(config), "--seed", "11"]) == 0
        run_a = log_path.read_bytes()
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
    from spd_bci.spectral import build_feature_sequence, plan_stft

    bank = design_filter_bank(config.bands, config.fs)
    plan = plan_stft(config.trial_seconds, config.fs)
    paths = sorted((config.work_dir / "preprocessed" / "train").glob("*.eegs"))
    segments = [read_segment(path) for path in paths]
    temporal = np.stack([
        build_feature_sequence(filter_bank_decompose(s, bank), bank.bands, plan).values
        for s in segments
    ])
    scms = np.stack([
        np.stack([scm(band.samples) for band in filter_bank_decompose(s, bank)])
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


class TestFeaturesIndependentOfBlasThreads:
    def test_seed_shape_features_are_byte_identical_at_one_and_two_threads(self, tmp_path):
        # SEED shapes (62 ch x 1600 samples, 5 bands, rank 48): the band SCMs
        # are large enough for OpenBLAS to split them over two threads.
        rng = np.random.default_rng(5)
        mixers = [rng.standard_normal((62, 62)) / 8.0 for _ in range(3)]
        covariances = [m @ m.T + np.eye(62) for m in mixers]
        for split, per_class, seed in (("train", 2, 0), ("test", 1, 1)):
            out = tmp_path / "raw" / split
            out.mkdir(parents=True)
            spec = SynthSpec(
                class_covariances=covariances, n_samples=1600, fs=200.0,
                segments_per_class=per_class, seed=seed,
            )
            for i, segment in enumerate(synth_spd_classes(spec)):
                write_segment(out / f"seg_{i:03d}.eegs", segment)
        config = tmp_path / "pipeline.cfg"
        config.write_text(
            "profile = seed\nraw_train_dir = raw/train\nraw_test_dir = raw/test\n"
            "work_dir = work\n",
            encoding="utf-8",
        )
        assert main(["preprocess", "--config", str(config)]) == 0
        names = ("train.spdt", "test.spdt", "spatial_model.spdt")
        written = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "spd_bci.cli", "features", "--config", str(config)],
                env={**package_env(), "OPENBLAS_NUM_THREADS": threads}, cwd=tmp_path,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            written.append([(tmp_path / "work" / "features" / name).read_bytes() for name in names])
        for name, one, two in zip(names, *written):
            assert one == two, name


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


class TestRankGridSplits:
    def test_small_parallel_grid_writes_metrics(self, tmp_path):
        # 16 trials: a 10% split of the whole set would be one trial, of one class.
        write_synthetic_dataset(tmp_path, train_per_class=8)
        config = write_config(tmp_path, extra="rank_mode = grid\nepochs = 3\n")
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--jobs", "2"]) == 0
        grid = json.loads((tmp_path / "work" / "grid_metrics.json").read_text())
        assert [row["rank"] for row in grid["rows"]] == [1, 2, 3]
        assert all(row["kappa"] is not None for row in grid["rows"])
        assert grid["best_rank"] in (1, 2, 3)

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

    def test_undefined_scores_are_null_and_skipped_for_best_rank(self, tmp_path, monkeypatch):
        from spd_bci import pipeline

        pccs = {1: 0.4, 2: None, 3: 0.2}
        monkeypatch.setattr(
            pipeline, "_grid_point",
            lambda payload: {"rank": payload[1], "rmse": 0.1, "pcc": pccs[payload[1]]},
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


    def test_tied_scores_go_to_the_lowest_rank(self, tmp_path, monkeypatch):
        from spd_bci import pipeline

        accuracies = {1: 0.5, 2: 0.9, 3: 0.9}
        monkeypatch.setattr(
            pipeline, "_grid_point",
            lambda payload: {"rank": payload[1], "accuracy": accuracies[payload[1]]},
        )
        config = parse_config_text(f"profile = synthetic\nrank_mode = grid\nwork_dir = {tmp_path}\n")
        train = {"labels": np.repeat([0.0, 1.0], 10), "temporal": None, "scms": None}
        assert pipeline._run_rank_grid(config, train)["best_rank"] == 2
        accuracies[1] = 0.9
        assert pipeline._run_rank_grid(config, train)["best_rank"] == 1

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
