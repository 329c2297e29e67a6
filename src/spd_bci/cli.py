"""Command-line entry point: spd-bci preprocess|features|train|evaluate|ablate.

Exit codes are a stable contract: 0 success, 1 usage or configuration
error, 2 data error, 3 numerical failure. The SPD_BCI_LOG environment
variable sets the log level.
"""

from __future__ import annotations

import argparse
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
        cmd.add_argument("--jobs", type=int, default=1, help="parallel workers for grid mode")
    return parser


def _print_metrics_table(metrics: dict):
    print(f"{'metric':<12} value")
    for key, value in sorted(metrics.items()):
        if isinstance(value, float):
            print(f"{key:<12} {value:.4f}")
        elif not isinstance(value, (list, dict)):
            print(f"{key:<12} {value}")


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
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")

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
            result = run_train(config, jobs=args.jobs)
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
