"""Tiny-size smoke test: every metric BENCHMARK.json names is emitted with its unit.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
The workloads are shrunk to a few trials and a one-layer, 8-unit model so
the whole file runs in well under a minute.
"""

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_MODEL = {
    "epochs": 1, "lstm_layers": 1, "lstm_hidden": 8, "temporal_embedding_dim": 4,
    "spatial_hidden": 8, "spatial_embedding_dim": 4, "encoder_hidden": 4, "fusion_hidden": 4,
}


def tiny(name, n_train, n_test):
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload, n_train=n_train, n_test=n_test, config={**workload.config, **TINY_MODEL}
    )


def emitted(result, trace):
    line = run.summary_line(result, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    json.dumps(line)
    return {name: m["unit"] for name, m in line["metrics"].items()}


def test_end_to_end_metrics_are_emitted_with_units(tmp_path):
    workload = tiny("lstm-train", 4, 2)
    result = run.run(workload, seed=3, seconds=0, trace=False, work=tmp_path)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert emitted(result, False) == want
    assert result["passes"] == run.MIN_PASSES
    samples = {name: n for name, (_, _, n) in result["end_to_end"].items()}
    assert samples["setup_s"] == samples["pipeline_s"] == run.MIN_PASSES
    assert samples["evaluate_s"] == run.MIN_PASSES * dict(workload.schedule())["evaluate"]


def test_per_layer_metrics_are_emitted_with_units(tmp_path):
    result = run.run(tiny("bci2a", 4, 2), seed=3, seconds=0, trace=True, work=tmp_path)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert emitted(result, True) == want
    per_layer = result["per_layer"]
    assert per_layer["geometry.riemannian_mean.calls"][0] == 25
    assert per_layer["nnet.Lstm.gflop"][0] > 0


def test_spec_lists_the_defined_workloads():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "seed", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
