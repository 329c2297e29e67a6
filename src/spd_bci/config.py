"""Pipeline configuration: dataset profiles plus a flat key = value config file.

A profile fixes the quantities that belong to a dataset: band table,
trial length, channel count, retained rank, task type, and the matching
output activation and loss. The config file selects a profile, points at
the data directories, and may override the tunable knobs (epochs, batch
size, hidden sizes, model variant, reference policy, rank mode). Keys that
a named dataset profile owns (task, activation, loss, class count, band
table) cannot be contradicted; the ``synthetic`` profile locks none. The
model's keys are the fields of :class:`spd_bci.model.ModelSettings`, which
``PipelineConfig`` extends; they are declared and checked there, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ConfigError
from .filters import BandSpec, seed_rhythm_bands, uniform_bands
from .geometry import tangent_dimension
from .model import VARIANTS, ModelSettings, check_head_outputs


# Keys a named dataset profile owns; a config file cannot contradict them.
_PROFILE_LOCKED_KEYS = ("task", "n_classes", "output_activation", "loss", "bands")
_FINE_BANDS = uniform_bands(0.5, 50.5, 2.0)

PROFILES = {
    "seed": dict(
        fs=200.0, trial_seconds=8.0, n_channels=62, rank=48, bands=seed_rhythm_bands(),
        task="classification", n_classes=3,
        output_activation="softmax", loss="cross-entropy",
        temporal_regularizer="batchnorm", locked=_PROFILE_LOCKED_KEYS,
    ),
    "seed-vig": dict(
        fs=200.0, trial_seconds=8.0, n_channels=17, rank=11, bands=_FINE_BANDS,
        task="regression", n_classes=1,
        output_activation="sigmoid", loss="mse",
        temporal_regularizer="batchnorm", locked=_PROFILE_LOCKED_KEYS,
    ),
    "bci2a": dict(
        fs=250.0, trial_seconds=4.0, n_channels=22, rank=18, bands=_FINE_BANDS,
        task="classification", n_classes=4,
        output_activation="softmax", loss="cross-entropy",
        temporal_regularizer="dropout", locked=_PROFILE_LOCKED_KEYS,
    ),
    "bci2b": dict(
        fs=250.0, trial_seconds=4.0, n_channels=3, rank=3, bands=_FINE_BANDS,
        task="classification", n_classes=2,
        output_activation="sigmoid", loss="bce",
        temporal_regularizer="batchnorm", locked=_PROFILE_LOCKED_KEYS,
    ),
    # Desk-scale checks: every key, the band table included, may be set.
    "synthetic": dict(
        fs=200.0, trial_seconds=2.0, n_channels=4, rank=4, bands=uniform_bands(8.0, 24.0, 8.0),
        task="classification", n_classes=2,
        output_activation="softmax", loss="cross-entropy",
        temporal_regularizer="batchnorm", locked=(),
    ),
}


@dataclass(kw_only=True)
class PipelineConfig(ModelSettings):
    """Everything a pipeline run needs, resolved from profile + config file.

    ``reference_policy`` picks where the test split's tangent vectors are
    taken: ``test-mean`` re-centres each band at the Riemannian mean of all
    test trials (unsupervised re-centring, so it needs two or more);
    ``train-mean`` projects each trial at the training references alone.
    The train split always uses the training references. ``task`` follows
    ``loss``: mse is regression, cross-entropy and bce classification.
    Every ``ablate_variants`` label is checked here, as ``variant`` is. A
    bad value of a key declared here raises ConfigError naming the key and
    the value.
    """

    profile: str
    fs: float
    trial_seconds: float
    n_channels: int
    rank: int
    bands: list
    task: str
    n_classes: int

    raw_train_dir: Path | None = None
    raw_test_dir: Path | None = None
    work_dir: Path = Path("work")

    seed: int = 0
    reference_policy: str = "test-mean"  # or "train-mean"
    rank_mode: str = "fixed"  # or "grid"
    broadband_low: float = 0.5
    broadband_high: float = 70.0
    notch_hz: float = 50.0
    filter_order: int = 5
    constant_channel: str = "error"
    scm_ridge: bool = False
    continue_on_error: bool = False
    ablate_variants: list = field(default_factory=lambda: ["temporal", "spatial", "fused"])

    def __post_init__(self):
        super().__post_init__()
        if self.reference_policy not in ("test-mean", "train-mean"):
            raise ConfigError(
                f"unknown reference_policy {self.reference_policy!r}; "
                "choose one of ['test-mean', 'train-mean']"
            )
        if self.rank_mode not in ("fixed", "grid"):
            raise ConfigError(f"unknown rank mode {self.rank_mode!r}")
        if self.constant_channel not in ("error", "zero"):
            raise ConfigError(f"unknown constant_channel mode {self.constant_channel!r}")
        if self.task not in ("classification", "regression"):
            raise ConfigError(f"unknown task {self.task!r}")
        try:
            check_head_outputs(
                self.loss, self.n_outputs,
                self.n_classes if self.task == "classification" else None,
            )
        except ValueError as exc:
            raise ConfigError(
                f"keys task = {self.task}, n_classes = {self.n_classes}, "
                f"loss = {self.loss}: {exc}"
            ) from exc
        task = "regression" if self.loss == "mse" else "classification"
        if self.task != task:
            raise ConfigError(
                f"keys task = {self.task}, loss = {self.loss}: "
                f"loss {self.loss!r} trains a {task} head"
            )
        if not self.ablate_variants:
            raise ConfigError("key 'ablate_variants' must name at least one variant")
        for label in self.ablate_variants:
            if label not in VARIANTS:
                raise ConfigError(
                    f"unknown ablate_variants label {label!r}; choose one of {list(VARIANTS)}"
                )
        # Written ``not x >= low`` so that NaN fails too. The 1 s floor on
        # trial_seconds is one analysis window; the seed feeds numpy's
        # generators, which take no negative seed.
        for key, low in (("filter_order", 1), ("trial_seconds", 1), ("seed", 0)):
            if not getattr(self, key) >= low:
                raise ConfigError(f"key {key!r} must be at least {low}, got {getattr(self, key)}")
        for key in ("fs", "broadband_low", "notch_hz"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"key {key!r} must be greater than 0, got {getattr(self, key)}")
        if not self.broadband_low < self.broadband_high:
            raise ConfigError(
                f"key 'broadband_low' must be below broadband_high = {self.broadband_high}, "
                f"got {self.broadband_low}"
            )
        if not 1 <= self.rank <= self.n_channels:
            raise ConfigError(
                f"rank {self.rank} is outside [1, {self.n_channels}] for profile {self.profile}"
            )
        if self.broadband_high >= self.fs / 2:
            raise ConfigError(
                f"broadband edge {self.broadband_high} Hz is not below Nyquist {self.fs / 2} Hz"
            )
        if self.notch_hz >= self.fs / 2:
            raise ConfigError(f"notch {self.notch_hz} Hz is not below Nyquist {self.fs / 2} Hz")

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def temporal_feature_dim(self) -> int:
        return 2 * self.n_bands * self.n_channels

    def spatial_feature_dim(self, rank: int | None = None) -> int:
        return self.n_bands * tangent_dimension(self.rank if rank is None else rank)

    @property
    def n_outputs(self) -> int:
        if self.task == "classification" and self.loss == "cross-entropy":
            return self.n_classes
        return 1

    def resolve_paths(self, base: Path):
        """Anchor relative paths at the config file's directory."""
        def _resolve(p):
            if p is None:
                return None
            p = Path(p)
            return p if p.is_absolute() else base / p

        self.raw_train_dir = _resolve(self.raw_train_dir)
        self.raw_test_dir = _resolve(self.raw_test_dir)
        self.work_dir = _resolve(self.work_dir)


_FIELD_TYPES = get_type_hints(PipelineConfig)


def parse_key_values(text: str, origin: str) -> dict[str, str]:
    """Flat ``key = value`` lines to a dict of strings; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def _coerce(key: str, value: str, origin: str):
    """Convert one value to the type annotated on its :class:`PipelineConfig` field."""
    kind = _FIELD_TYPES[key]
    if kind is bool:
        if value.lower() not in ("true", "false"):
            raise ConfigError(f"{origin}: key {key!r} must be true or false, got {value!r}")
        return value.lower() == "true"
    if kind in (int, float):
        try:
            return kind(value)
        except ValueError as exc:
            need = "an integer" if kind is int else "a number"
            raise ConfigError(f"{origin}: key {key!r} needs {need}, got {value!r}") from exc
    if kind is list:
        return [v.strip() for v in value.split(",") if v.strip()]
    if Path in (kind, *get_args(kind)):
        return Path(value)
    return value


def _parse_bands(text: str) -> list[BandSpec]:
    bands = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            low, high = part.split("-")
            bands.append(BandSpec(float(low), float(high)))
        except ValueError as exc:
            raise ConfigError(f"cannot parse band {part!r} (expected 'low-high')") from exc
    if not bands:
        raise ConfigError("bands key is present but empty")
    return bands


def parse_config_text(text: str, origin: str = "<config>") -> PipelineConfig:
    """Parse flat ``key = value`` lines into a profile-resolved config."""
    raw = parse_key_values(text, origin)
    profile_name = raw.pop("profile", None)
    if profile_name is None:
        raise ConfigError(f"{origin}: missing required key 'profile'")
    if profile_name not in PROFILES:
        raise ConfigError(
            f"{origin}: unknown profile {profile_name!r}; choose one of {sorted(PROFILES)}"
        )
    settings = dict(PROFILES[profile_name])
    locked = settings.pop("locked")
    settings["bands"] = list(settings["bands"])  # a config never shares the profile's list
    for key, text in raw.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        value = _parse_bands(text) if key == "bands" else _coerce(key, text, origin)
        if key in locked and value != settings[key]:
            raise ConfigError(
                f"{origin}: key {key!r} is fixed by profile {profile_name!r}, "
                f"cannot set it to {text!r}"
            )
        settings[key] = value

    try:
        return PipelineConfig(profile=profile_name, **settings)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    config = parse_config_text(path.read_text(encoding="utf-8"), origin=str(path))
    config.resolve_paths(path.parent.resolve())
    return config
