"""Benchmark workloads and the seeded inputs each one runs on.

A workload is a pipeline config plus a recipe for raw trials. The trials
are written in the ``.eegs`` segment layout the README documents, with
this module's own ``struct`` code, so a change to ``spd_bci.data`` cannot
change what the program is given.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# magic, version, channels, samples, fs, label kind, label; then f64 payload.
SEGMENT_HEADER = struct.Struct("<4sIIQdBd")
LABEL_CLASS, LABEL_REAL = 1, 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the config keys it sets and the trials it reads.

    ``bands`` and ``rank`` restate what the profile fixes, so the output
    checks can recompute features without asking the program. ``n_classes``
    of 0 means a regression target in (0, 1). ``train_repeats`` is how many
    times a pass runs ``train``: a short step needs more than one sample
    per pass for a steady median.
    """

    name: str
    why: str
    config: dict
    fs: float
    n_channels: int
    n_samples: int
    n_classes: int
    n_train: int
    n_test: int
    bands: tuple
    rank: int
    train_repeats: int

    def schedule(self) -> tuple:
        """(step, consecutive runs) for one pass; the short steps repeat."""
        return (("preprocess", 5), ("features", 1), ("train", self.train_repeats),
                ("evaluate", 5))

    def config_text(self, raw_root: Path, work_dir: Path, seed: int) -> str:
        keys = {
            **self.config,
            "raw_train_dir": raw_root / "train",
            "raw_test_dir": raw_root / "test",
            "work_dir": work_dir,
            "seed": seed,
        }
        return "".join(f"{key} = {value}\n" for key, value in keys.items())


# Why each workload exists. The layer mix each one should show is checked
# in the README against a traced run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="seed",
            why=(
                "SEED shapes (62 ch, 5 bands, rank 48, batch-mean references): spectral "
                "features dominate and geometry runs at the paper's largest rank"
            ),
            config={"profile": "seed", "epochs": 2},
            fs=200.0, n_channels=62, n_samples=1600, n_classes=3,
            n_train=10, n_test=5,
            bands=((1.0, 3.0), (4.0, 7.0), (8.0, 13.0), (14.0, 30.0), (31.0, 50.0)), rank=48,
            train_repeats=3,
        ),
        Workload(
            name="bci2a",
            why=(
                "BCI IV-2a shapes (22 ch, 25 bands, rank 18, train-mean references): the "
                "25-band filter bank and 25 Karcher means carry the features step"
            ),
            config={"profile": "bci2a", "epochs": 2, "reference_policy": "train-mean"},
            fs=250.0, n_channels=22, n_samples=1000, n_classes=4,
            n_train=10, n_test=2,
            bands=tuple((0.5 + 2.0 * i, 2.5 + 2.0 * i) for i in range(25)), rank=18,
            train_repeats=3,
        ),
        Workload(
            name="lstm-train",
            why=(
                "8 ch x 4 bands over the seed profile's 15 windows with the full-size "
                "model: LSTM training dominates; covers the regression head and rmse/pcc"
            ),
            config={
                "profile": "synthetic", "fs": 200, "trial_seconds": 8, "n_channels": 8,
                "rank": 8, "bands": "4-8,8-13,13-30,30-45", "task": "regression",
                "n_classes": 1, "output_activation": "sigmoid", "loss": "mse",
                "epochs": 16,
            },
            fs=200.0, n_channels=8, n_samples=1600, n_classes=0,
            n_train=32, n_test=8,
            bands=((4.0, 8.0), (8.0, 13.0), (13.0, 30.0), (30.0, 45.0)), rank=8,
            train_repeats=1,
        ),
    )
}


def _mixers(rng: np.random.Generator, workload: Workload) -> list[np.ndarray]:
    """One well-conditioned mixing matrix per class (two endpoints for regression)."""
    n = workload.n_channels
    count = workload.n_classes or 2
    return [np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(count)]


def write_segment(path: Path, samples: np.ndarray, fs: float, kind: int, label: float):
    n_channels, n_samples = samples.shape
    header = SEGMENT_HEADER.pack(b"EEGS", 1, n_channels, n_samples, fs, kind, label)
    path.write_bytes(header + samples.astype("<f8").tobytes(order="C"))


def generate_inputs(workload: Workload, seed: int, root: Path):
    """Write ``root/{train,test}/seg_NNN.eegs`` for one (workload, seed).

    Class k trials are ``A_k @ G`` with G unit Gaussian; regression trials
    mix the two endpoint matrices by their target. The same seed always
    writes the same bytes.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    mixers = _mixers(rng, workload)
    for split, count in (("train", workload.n_train), ("test", workload.n_test)):
        out = root / split
        out.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            if workload.n_classes:
                label = i % workload.n_classes
                mixer, kind = mixers[label], LABEL_CLASS
            else:
                label = float(rng.uniform(0.1, 0.9))
                mixer, kind = (1.0 - label) * mixers[0] + label * mixers[1], LABEL_REAL
            x = mixer @ rng.standard_normal((workload.n_channels, workload.n_samples))
            write_segment(out / f"seg_{i:03d}.eegs", x, workload.fs, kind, float(label))
