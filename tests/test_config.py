"""Config-file parser: every key's type comes from its PipelineConfig annotation."""

from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from spd_bci.config import PipelineConfig, parse_config_text
from spd_bci.errors import ConfigError
from spd_bci.filters import BandSpec

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
