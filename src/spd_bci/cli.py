"""Command-line entry point: spd-bci preprocess|features|train|evaluate|ablate.

Exit codes are a stable contract: 0 success, 1 usage or configuration
error, 2 data error, 3 numerical failure. The SPD_BCI_LOG environment
variable sets the log level. The pipeline's worker threads follow the
CPUs the process may use, so ``taskset`` bounds them.

Before it runs a step, ``main`` sets glibc's allocator policy for the
process: blocks up to 32 MiB come from the heap instead of a mapping of
their own (``M_MMAP_THRESHOLD``), the heap gives memory back to the
kernel only when 256 MiB at its top are free (``M_TRIM_THRESHOLD``), and
threads allocate from that one heap rather than from arenas of their own
(``M_ARENA_MAX`` = 1). glibc's default maps every block above 128 KiB (a
threshold it raises only as larger blocks are freed) and unmaps it on
free, so each filter block, band signal, LSTM step and Adam block was
faulted in again, page by page, on the next call; with the policy the
next allocation reuses the memory. Without the arena cap, each thread of
the pipeline's pool (bands, and ranks in grid mode) fills an arena of its
own with temporaries, which stays mapped beside the heap through the later
steps of the process. Blocks above 32 MiB still map and
unmap. The policy applies to the CLI only (a library caller that imports
``spd_bci`` keeps its allocator as it is) and only where the C library
has ``mallopt``; elsewhere it is a no-op.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys

from .config import load_config
from .errors import ConfigError, DataError, NumericalError
from .pipeline import run_ablate, run_evaluate, run_features, run_preprocess, run_train


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spd-bci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("preprocess", "broadband + notch filter and min-max normalize raw segments"),
        ("features", "extract temporal feature sequences and spatial tangent features"),
        ("train", "train the configured model variant (or sweep ranks in grid mode)"),
        ("evaluate", "score the trained model on the test split"),
        ("ablate", "compare trained variants in one table"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the pipeline config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _print_metrics_table(metrics: dict):
    print(f"{'metric':<12} value")
    for key, value in sorted(metrics.items()):
        if isinstance(value, float):
            print(f"{key:<12} {value:.4f}")
        elif not isinstance(value, (list, dict)):
            print(f"{key:<12} {value}")


def _keep_freed_memory():
    """Let freed blocks up to 32 MiB stay in the one heap for reuse (glibc only)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD, at its ceiling on 64-bit systems
    mallopt(-1, 256 * 2**20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX: worker threads allocate from the main heap too


def main(argv=None) -> int:
    level = os.environ.get("SPD_BCI_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            config.seed = args.seed

        _keep_freed_memory()

        if args.command == "preprocess":
            counts = run_preprocess(config)
            for split, count in counts.items():
                print(f"preprocessed {count} {split} segments")
        elif args.command == "features":
            info = run_features(config)
            for split, stats in info.items():
                print(
                    f"{split}: {stats['n_segments']} segments, "
                    f"temporal dim {stats['temporal_dim']}, spatial dim {stats['spatial_dim']}"
                )
        elif args.command == "train":
            result = run_train(config)
            if "rows" in result:
                for row in result["rows"]:
                    print(json.dumps(row, sort_keys=True))
                print(f"best rank: {result['best_rank']}")
            else:
                print(
                    f"trained {result['variant']} for {result['epochs']} epochs, "
                    f"final loss {result['final_loss']:.6f}"
                )
        elif args.command == "evaluate":
            metrics = run_evaluate(config)
            _print_metrics_table(metrics)
        elif args.command == "ablate":
            rows = run_ablate(config)
            print(f"{'variant':<12} {'metric':<10} value")
            for row in rows:
                print(f"{row['variant']:<12} {row['metric']:<10} {row['value']:.4f}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
