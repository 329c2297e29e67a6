"""Config-file parser: every key's type comes from its PipelineConfig annotation."""

from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from spd_bci import pipeline
from spd_bci.cli import main
from spd_bci.config import PipelineConfig, parse_config_text
from spd_bci.errors import ConfigError
from spd_bci.filters import BandSpec
from spd_bci.model import ArchitectureConfig, ModelSettings

# One non-default text per field of the synthetic profile and the value it must parse to.
SAMPLES = {
    "profile": ("synthetic", "synthetic"),
    "fs": ("250", 250.0),
    "trial_seconds": ("1.5", 1.5),
    "n_channels": ("6", 6),
    "rank": ("2", 2),
    "bands": ("4-8, 8-13", [BandSpec(4.0, 8.0), BandSpec(8.0, 13.0)]),
    "task": ("classification", "classification"),
    "n_classes": ("3", 3),
    "output_activation": ("softmax", "softmax"),
    "loss": ("cross-entropy", "cross-entropy"),
    "temporal_regularizer": ("dropout", "dropout"),
    "raw_train_dir": ("raw/train", Path("raw/train")),
    "raw_test_dir": ("raw/test", Path("raw/test")),
    "work_dir": ("out", Path("out")),
    "seed": ("7", 7),
    "epochs": ("3", 3),
    "batch_size": ("5", 5),
    "learning_rate": ("0.01", 0.01),
    "lstm_layers": ("2", 2),
    "lstm_hidden": ("12", 12),
    "temporal_embedding_dim": ("9", 9),
    "spatial_hidden": ("20", 20),
    "spatial_embedding_dim": ("10", 10),
    "encoder_hidden": ("4", 4),
    "fusion_hidden": ("16", 16),
    "variant": ("spatial", "spatial"),
    "reference_policy": ("train-mean", "train-mean"),
    "rank_mode": ("grid", "grid"),
    "broadband_low": ("1.5", 1.5),
    "broadband_high": ("40", 40.0),
    "notch_hz": ("60", 60.0),
    "filter_order": ("4", 4),
    "constant_channel": ("zero", "zero"),
    "scm_ridge": ("True", True),
    "continue_on_error": ("true", True),
    "ablate_variants": ("fused, spatial ,concatenation", ["fused", "spatial", "concatenation"]),
}


def _annotated_type(kind):
    """The concrete class of an annotation such as ``Path | None``."""
    concrete = [a for a in get_args(kind) if a is not type(None)]
    return concrete[0] if concrete else kind


@pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
def test_every_field_parses_to_its_annotated_type(name):
    text, expected = SAMPLES[name]
    lines = "" if name == "profile" else f"{name} = {text}\n"
    config = parse_config_text(f"profile = synthetic\n{lines}")
    value = getattr(config, name)
    assert value == expected
    assert type(value) is type(expected)
    assert isinstance(value, _annotated_type(get_type_hints(PipelineConfig)[name]))


@pytest.mark.parametrize(
    "line, message",
    [
        ("scm_ridge = yes", "must be true or false"),
        ("epochs = 3.0", "needs an integer"),
        ("learning_rate = fast", "needs a number"),
    ],
)
def test_bad_value_names_origin_key_and_value(line, message):
    with pytest.raises(ConfigError, match=message) as info:
        parse_config_text(f"profile = synthetic\n{line}\n", origin="run.cfg")
    key, value = (part.strip() for part in line.split("="))
    assert str(info.value).startswith("run.cfg: ")
    assert repr(key) in str(info.value) and repr(value) in str(info.value)


def test_line_without_equals_names_line_number():
    with pytest.raises(ConfigError, match=r"run\.cfg:2: expected 'key = value'"):
        parse_config_text("profile = synthetic\nepochs 3\n", origin="run.cfg")


def test_unknown_constant_channel_mode_is_a_config_error():
    with pytest.raises(ConfigError, match="constant_channel"):
        parse_config_text("profile = synthetic\nconstant_channel = drop\n")


EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "example-config.cfg"


def test_example_config_parses():
    config = parse_config_text(EXAMPLE.read_text(encoding="utf-8"), origin=str(EXAMPLE))
    assert config.profile == "synthetic"
    assert config.bands == [BandSpec(8.0, 16.0), BandSpec(16.0, 24.0)]


def test_example_config_names_every_key():
    # A key may be commented out, as those that the named profiles set are.
    named = {
        line.lstrip("# ").split("=", 1)[0].strip()
        for line in EXAMPLE.read_text(encoding="utf-8").splitlines()
        if "=" in line
    }
    assert {f.name for f in fields(PipelineConfig)} <= named


def test_named_profile_fixes_band_table_synthetic_does_not():
    with pytest.raises(ConfigError, match="'bands' is fixed by profile 'seed'"):
        parse_config_text("profile = seed\nbands = 4-8\n")
    # Restating the profile's own table is not a contradiction.
    assert parse_config_text("profile = seed\nbands = 1-3,4-7,8-13,14-30,31-50\n").n_bands == 5
    assert parse_config_text("profile = synthetic\nbands = 4-8\n").n_bands == 1
    default = parse_config_text("profile = synthetic\n").bands
    assert default == [BandSpec(8.0, 16.0), BandSpec(16.0, 24.0)]


# Model settings out of range: each must fail at load, naming the file, the key and the value.
OUT_OF_RANGE = [
    *((name, "0") for name in (
        "epochs", "batch_size", "lstm_layers", "lstm_hidden", "temporal_embedding_dim",
        "spatial_hidden", "spatial_embedding_dim", "encoder_hidden", "fusion_hidden",
    )),
    ("lstm_hidden", "-3"),
    ("learning_rate", "-1"),
    ("learning_rate", "0"),
    ("learning_rate", "nan"),
    ("learning_rate", "inf"),
    ("temporal_regularizer", "foo"),
]


@pytest.mark.parametrize("key, text", OUT_OF_RANGE)
def test_model_setting_out_of_range_fails_at_load(key, text):
    with pytest.raises(ConfigError) as info:
        parse_config_text(f"profile = synthetic\n{key} = {text}\n", origin="run.cfg")
    message = str(info.value)
    assert message.startswith("run.cfg: ")
    assert key in message and text in message


@pytest.mark.parametrize("step", ["preprocess", "features", "train", "evaluate", "ablate"])
def test_every_step_rejects_a_bad_model_setting_before_any_work(step, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("profile = synthetic\nwork_dir = out\nepochs = 0\n", encoding="utf-8")
    assert main([step, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err and "'epochs'" in err and "got 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# A head that differs from the ModelSettings defaults and fits SAMPLES' two classes.
_HEAD = {"output_activation": ("sigmoid", "sigmoid"), "loss": ("bce", "bce")}


def test_architecture_carries_every_model_setting():
    names = [f.name for f in fields(ModelSettings)]
    samples = {**SAMPLES, **_HEAD}
    text = "profile = synthetic\n" + "".join(f"{name} = {samples[name][0]}\n" for name in names)
    config = parse_config_text(text)
    defaults = ModelSettings()
    for name in names:
        assert getattr(config, name) == samples[name][1]
        assert getattr(config, name) != getattr(defaults, name), name
    arch = pipeline._architecture(config, config.variant, temporal_dim=5, spatial_dim=6)
    for name in names:
        assert getattr(arch, name) == getattr(config, name), name
    assert (arch.temporal_input_dim, arch.spatial_input_dim) == (5, 6)
    assert arch.n_outputs == config.n_outputs == 1


def test_model_settings_are_declared_once():
    shared = {f.name for f in fields(ModelSettings)}
    assert len(shared) == 14
    assert shared <= {f.name for f in fields(PipelineConfig)}
    assert shared <= {f.name for f in fields(ArchitectureConfig)}
    for cls in (PipelineConfig, ArchitectureConfig):
        assert shared.isdisjoint(vars(cls).get("__annotations__", {})), cls.__name__


@pytest.mark.parametrize(
    "keys",
    [
        {"variant": "weighted"},
        {"temporal_regularizer": "layernorm"},
        {"output_activation": "relu"},
        {"output_activation": "softmax", "loss": "mse"},
        {"epochs": 0},
        {"learning_rate": -1.0},
    ],
    ids=lambda keys: ",".join(keys),
)
def test_both_configs_reject_a_bad_setting_with_one_message(keys):
    with pytest.raises(ValueError) as arch_error:
        ArchitectureConfig(temporal_input_dim=5, spatial_input_dim=6, n_outputs=2, **keys)
    lines = "".join(f"{key} = {value}\n" for key, value in keys.items())
    with pytest.raises(ConfigError) as config_error:
        parse_config_text(f"profile = synthetic\n{lines}", origin="run.cfg")
    assert str(config_error.value) == f"run.cfg: {arch_error.value}"


# PipelineConfig's own keys out of range: each config line and the key and value its error names.
PIPELINE_OUT_OF_RANGE = [
    ("filter_order = 0", "filter_order", "0"),
    ("trial_seconds = 0", "trial_seconds", "0"),
    ("trial_seconds = 0.5", "trial_seconds", "0.5"),
    ("fs = 0", "fs", "0"),
    ("fs = nan", "fs", "nan"),
    ("broadband_low = 30\nbroadband_high = 20", "broadband_low", "30"),
    ("broadband_low = -1", "broadband_low", "-1"),
    ("notch_hz = 0", "notch_hz", "0"),
    ("seed = -1", "seed", "-1"),
]


@pytest.mark.parametrize(
    "lines, key, value", PIPELINE_OUT_OF_RANGE, ids=[line for line, _, _ in PIPELINE_OUT_OF_RANGE]
)
def test_pipeline_key_out_of_range_exits_1_at_preprocess(lines, key, value, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"profile = synthetic\nwork_dir = out\n{lines}\n", encoding="utf-8")
    assert main(["preprocess", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"{config}: key {key!r} must be" in err and f"got {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_pipeline_key_message_matches_the_model_settings_form():
    with pytest.raises(ConfigError) as info:
        parse_config_text("profile = synthetic\nfilter_order = 0\n", origin="run.cfg")
    assert str(info.value) == "run.cfg: key 'filter_order' must be at least 1, got 0"


def test_test_mean_is_the_default_reference_policy():
    assert parse_config_text("profile = synthetic\n").reference_policy == "test-mean"


@pytest.mark.parametrize("policy", ["batch-mean", "per-batch"])
def test_unknown_reference_policy_exits_1_listing_the_choices(policy, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"profile = synthetic\nwork_dir = out\nreference_policy = {policy}\n", encoding="utf-8"
    )
    assert main(["features", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err and repr(policy) in err
    assert "['test-mean', 'train-mean']" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
