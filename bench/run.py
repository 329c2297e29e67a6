"""spd-bci benchmark: the CLI pipeline end to end, and per layer when traced.

Usage:
    python3 bench/run.py --workload seed|bci2a|lstm-train --seed N --seconds S --trace 0|1

One client, closed loop: a researcher running ``preprocess``, ``features``,
``train`` and ``evaluate`` one after another. Each pass is a fresh child
interpreter (``child.py``) that imports ``spd_bci.cli`` and calls its
``main`` per step, with inherited ``*_NUM_THREADS`` variables cleared so
BLAS runs at the library default. Passes repeat until the next one would
overrun ``--seconds`` (at least ``MIN_PASSES``); timings are medians over
every sample. Inputs are generated from ``--seed`` in this process, before
any pass, and cached per (workload, seed).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of the traced ones. Every step and every output check
counts as one operation in ``attempted``/``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced, two traced
PASSES_DEADLINE_S = 150  # a pass still running this long after the first began is killed
CACHED_INPUTS = 4  # (workload, seed) input sets kept on disk


def _input_dir(workload, seed: int, work: Path) -> Path:
    """Generate (or reuse) the raw trials for one (workload, seed)."""
    from workloads import generate_inputs

    key = hashlib.sha256(repr(workload).encode()).hexdigest()[:10]
    root = work / "inputs" / f"{workload.name}-{seed}-{key}"
    if not (root / "complete").is_file():
        shutil.rmtree(root, ignore_errors=True)
        generate_inputs(workload, seed, root)
        (root / "complete").touch()
    root.touch()
    cached = sorted((work / "inputs").iterdir(), key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHED_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    return root


def _child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not (k.endswith("_NUM_THREADS") or k in ("VECLIB_MAXIMUM_THREADS", "SPD_BCI_LOG"))
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _one_pass(config: Path, run_dir: Path, schedule, traced: bool, timeout: float) -> dict:
    """Run the four steps in a fresh interpreter; returns the child's result."""
    shutil.rmtree(run_dir / "work", ignore_errors=True)
    result_path = run_dir / "pass.json"
    result_path.unlink(missing_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), repr(started), str(config),
             str(result_path), "1" if traced else "0", json.dumps(schedule)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
        error = proc.stderr[-2000:] if proc.returncode else None
    except subprocess.TimeoutExpired:
        error = f"pass killed after {timeout:.0f} s"
    wall = time.monotonic() - started
    if error is None and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        result = {"steps": {}, "error": error or "child wrote no result"}
    result.update(traced=traced, wall_s=wall)
    result["complete"] = all(
        result["steps"].get(step, {}).get("codes") == [0] * repeats for step, repeats in schedule
    )
    return result


def _environment(passes) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": next((p["blas_threads"] for p in passes if "blas_threads" in p), None),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


def _end_to_end(passes, traced: bool = False) -> dict:
    """Medians over the passes that completed every step: (value, unit, samples).

    ``pipeline_s`` is the sum of the four step medians; its sample count is
    that of its scarcest step.
    """
    done = [p for p in passes if p["traced"] == traced and p["complete"]]
    if not done:
        return {}
    samples = {"setup_s": [p["setup_s"] for p in done]}
    for step in done[0]["steps"]:
        samples[f"{step}_s"] = [t for p in done for t in p["steps"][step]["seconds"]]
    metrics = {name: (statistics.median(v), "s", len(v)) for name, v in samples.items()}
    steps = [metrics[f"{step}_s"] for step in done[0]["steps"]]
    metrics["pipeline_s"] = (sum(m[0] for m in steps), "s", min(m[2] for m in steps))
    rss = [p["peak_rss_mb"] for p in done]
    metrics["peak_rss_mb"] = (statistics.median(rss), "MB", len(rss))
    return metrics


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the benchmark once; returns the result record (see ``main``)."""
    from checks import check_features, check_metrics, output_digest

    raw_root = _input_dir(workload, seed, work)
    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "pipeline.cfg"
    config.write_text(workload.config_text(raw_root, run_dir / "work", seed), encoding="utf-8")

    passes, checks, digests = [], [], []
    started = time.monotonic()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            timeout = PASSES_DEADLINE_S - (time.monotonic() - started)
            passes.append(_one_pass(config, run_dir, workload.schedule(), traced, timeout))
            digests.append(output_digest(run_dir / "work"))
            elapsed = time.monotonic() - started
            enough = len(passes) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
            if (enough and elapsed + passes[-1]["wall_s"] > seconds) or "error" in passes[-1]:
                break
        policy = workload.config.get("reference_policy", "batch-mean")
        checks += check_features(workload, raw_root, run_dir / "work", policy)
        checks += check_metrics(workload, run_dir / "work")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checks += [
        (f"pass {i} outputs byte-identical to pass 0", d == digests[0], d[:16])
        for i, d in enumerate(digests[1:], 1)
    ]

    # A step a failed pass never reached counts as attempted and failed.
    codes = []
    for p in passes:
        for step, repeats in workload.schedule():
            ran = p["steps"].get(step, {}).get("codes", [])
            codes += ran + [None] * (repeats - len(ran))
    attempted = len(codes) + len(checks)
    failed = sum(code != 0 for code in codes) + sum(not ok for _, ok, _ in checks)
    result = {
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "environment": _environment(passes),
        "checks": checks,
        "errors": [p["error"] for p in passes if "error" in p],
        "end_to_end": _end_to_end(passes),
    }
    if trace:
        from tracing import REPORT_ONLY, per_layer_metrics

        traces = [p["trace"] for p in passes if p["traced"] and "trace" in p]
        per_layer = per_layer_metrics(traces) if traces else {}
        traced_e2e = _end_to_end(passes, traced=True)
        if traced_e2e and result["end_to_end"]:
            pipeline = traced_e2e["pipeline_s"][0]
            per_layer["trace.overhead_s"] = (pipeline - result["end_to_end"]["pipeline_s"][0], "s")
            per_layer["trace.pipeline_s"] = (pipeline, "s")
        result["report_only"] = {k: per_layer.pop(k) for k in REPORT_ONLY if k in per_layer}
        result["per_layer"] = per_layer
    return result


def _print_report(result: dict, trace: bool):
    print(json.dumps({"environment": result["environment"]}, sort_keys=True))
    for name, ok, detail in result["checks"]:
        print(f"check {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    for error in result["errors"]:
        print(f"pass error: {error.strip().splitlines()[-1] if error.strip() else error}")
    print(f"{'metric':<48} {'value':>14}  {'unit':<15} samples")
    for name, (value, unit, samples) in result["end_to_end"].items():
        print(f"{name:<48} {value:>14.6f}  {unit:<15} {samples}")
    print(f"{'failed_share':<48} {result['failed_share']:>14.6f}  {'ratio':<15} "
          f"{result['attempted']}")
    if trace:
        per_layer = result["per_layer"]
        traced_total = sum(v for k, (v, _) in per_layer.items() if k.startswith("layer."))
        for name, (value, unit) in {**per_layer, **result["report_only"]}.items():
            share = ""
            if name.startswith("layer.") or name.endswith(".self_s"):
                share = f"{100.0 * value / traced_total:6.1f}% of traced step time"
            print(f"{name:<48} {value:>14.6f}  {unit:<15} {share}")


def summary_line(result: dict, trace: bool) -> dict:
    """The contract's last line: correctness, operation counts, and metrics."""
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in result["end_to_end"].items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spd_bci" / "cli.py").is_file():
        print(f"error: no spd_bci sources under {SRC}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 BENCH / "_work")
    if not result["end_to_end"] or (args.trace and "trace.overhead_s" not in result["per_layer"]):
        print("error: no pass completed every step", file=sys.stderr)
        for error in result["errors"]:
            print(error, file=sys.stderr)
        return 1
    _print_report(result, bool(args.trace))
    print(json.dumps(summary_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
