"""Per-layer tracing of the spd_bci package, installed from outside it.

Each public function or method named in ``SPANS`` is replaced by a wrapper
that records a span (name, start, end, parent, run id) per call. Functions
are replaced on every spd_bci module binding that refers to them, because
``pipeline`` and ``model`` import most of them by name; methods are
replaced on their class. Spans stay in memory and are written out once,
when the traced process ends. Per-frame helpers (``periodogram``,
``band_power``) are deliberately not wrapped: they run thousands of times
per trial and the wrapper cost would swamp them.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
import warnings

# (module, attribute path). Spans are named "<module>.<attribute path>".
SPANS = [
    ("cli", "main"),
    ("config", "load_config"),
    ("data", "read_segment"),
    ("data", "write_segment"),
    ("data", "read_tensors"),
    ("data", "write_tensors"),
    ("filters", "apply_filter_zero_phase"),
    ("filters", "notch_filter"),
    ("filters", "minmax_normalize"),
    ("filters", "filter_bank_decompose"),
    ("spectral", "build_feature_sequence"),
    ("geometry", "scm"),
    ("geometry", "pca_spatial_filter"),
    ("geometry", "reduce_covariance"),
    ("geometry", "riemannian_mean"),
    ("geometry", "tangent_vectorize"),
    ("pipeline", "fit_spatial_reducers"),
    ("pipeline", "spatial_features_for"),
    ("model", "train_model"),
    ("model", "TwoStreamModel.forward"),
    ("model", "TwoStreamModel.backward"),
    ("model", "TwoStreamModel.predict_scores"),
    ("model", "evaluate_model"),
    ("nnet", "Lstm.forward"),
    ("nnet", "Lstm.backward"),
    ("nnet", "Attention.forward"),
    ("nnet", "Attention.backward"),
    ("nnet", "Dense.forward"),
    ("nnet", "Dense.backward"),
    ("nnet", "BatchNorm.forward"),
    ("nnet", "BatchNorm.backward"),
    ("nnet", "Dropout.forward"),
    ("nnet", "Dropout.backward"),
    ("nnet", "adam_step"),
    ("nnet", "clip_global_norm"),
    ("nnet", "save_checkpoint"),
    ("nnet", "load_checkpoint"),
]
SPAN_NAMES = [f"{module}.{attr}" for module, attr in SPANS]

# Spans whose per-call durations also get p50/p90.
PERCENTILE_SPANS = [
    "filters.filter_bank_decompose",
    "spectral.build_feature_sequence",
    "geometry.riemannian_mean",
    "nnet.Lstm.forward",
    "nnet.Lstm.backward",
]

# Batch norm does not run under the dropout regularizer, so its self time
# reads exactly 0 on such workloads: it is printed, not emitted as a metric.
REPORT_ONLY = {"nnet.BatchNorm.forward.self_s", "nnet.BatchNorm.backward.self_s"}

COUNTERS = {
    "data.bytes_read": "bytes",
    "data.bytes_written": "bytes",
    "filters.samples_filtered": "count",
    "spectral.frames": "count",
    "geometry.riemannian_mean.iterations": "count",
    "geometry.riemannian_mean.unconverged": "count",
    "model.train_model.batches": "count",
    "model.predict_scores.rows": "count",
    "nnet.Lstm.gflop": "GFLOP-computed",
}

LAYERS = ["cli", "config", "data", "filters", "spectral", "geometry", "pipeline", "model", "nnet"]


def _lstm_gflop(lstm, x, passes):
    """Multiply-adds of the gate matmuls, counted as 2 flops each."""
    batch, length = x.shape[0], x.shape[1]
    return passes * 2.0 * batch * length * 4 * lstm.hidden * (lstm.in_dim + lstm.hidden) / 1e9


def _count(counters, name, amount):
    counters[name] = counters.get(name, 0) + amount


def _file_size(args, result):
    return os.path.getsize(args[0])


# Span name -> (counter, amount to add per call from the call's args and result).
_COUNTING = {
    "data.read_segment": ("data.bytes_read", _file_size),
    "data.read_tensors": ("data.bytes_read", _file_size),
    "data.write_segment": ("data.bytes_written", _file_size),
    "data.write_tensors": ("data.bytes_written", _file_size),
    "filters.filter_bank_decompose": (
        "filters.samples_filtered", lambda args, bands: len(bands) * args[0].samples.size
    ),
    "spectral.build_feature_sequence": (
        "spectral.frames", lambda args, seq: seq.values.shape[0] * seq.n_channels * seq.n_bands
    ),
    "nnet.adam_step": ("model.train_model.batches", lambda args, result: 1),
    "model.TwoStreamModel.predict_scores": (
        "model.predict_scores.rows", lambda args, scores: scores.shape[0]
    ),
    "nnet.Lstm.forward": ("nnet.Lstm.gflop", lambda args, result: _lstm_gflop(*args[:2], 1)),
    "nnet.Lstm.backward": ("nnet.Lstm.gflop", lambda args, result: _lstm_gflop(*args[:2], 2)),
}


class Tracer:
    """In-memory span recorder: spans are [name, start, end, parent index, run id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name, fn):
        counter, amount = _COUNTING.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                _count(self.counters, counter, amount(args, result))
            return result

        return traced

    def wrap_riemannian_mean(self, fn):
        """Count Karcher iterations and non-convergence instead of letting it warn."""

        def with_info(mats, *args, return_info=False, **kwargs):
            kwargs["return_info"] = True
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                center, info = fn(mats, *args, **kwargs)
            _count(self.counters, "geometry.riemannian_mean.iterations", info.iterations)
            _count(self.counters, "geometry.riemannian_mean.unconverged", int(not info.converged))
            return (center, info) if return_info else center

        return self.wrap("geometry.riemannian_mean", functools.wraps(fn)(with_info))

    def install(self):
        """Wrap every span target on the bindings its callers look up."""
        owners = {m: importlib.import_module(f"spd_bci.{m}") for m, _ in SPANS}
        modules = [
            m for name, m in sys.modules.items()
            if name == "spd_bci" or name.startswith("spd_bci.")
        ]
        for module_name, attr in SPANS:
            name = f"{module_name}.{attr}"
            owner = owners[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            if name == "geometry.riemannian_mean":
                wrapper = self.wrap_riemannian_mean(original)
            else:
                wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def per_layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics from one or more traced pipeline passes.

    Calls, self time and counters are per pass (median over passes);
    percentiles pool every call of every pass.
    """
    per_pass = []
    durations: dict[str, list[float]] = {name: [] for name in PERCENTILE_SPANS}
    for trace in traces:
        spans = trace["spans"]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        selfs = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, self_s in zip(spans, self_times(spans)):
            calls[span[0]] += 1
            selfs[span[0]] += self_s
            if span[0] in durations:
                durations[span[0]].append(span[2] - span[1])
        per_pass.append((calls, selfs, trace["counters"]))

    def median(pick):
        return statistics.median(pick(p) for p in per_pass)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (median(lambda p: p[0][name]), "count")
        metrics[f"{name}.self_s"] = (median(lambda p: p[1][name]), "s")
    for name in PERCENTILE_SPANS:
        deciles = statistics.quantiles(durations[name], n=10, method="inclusive")
        metrics[f"{name}.p50_ms"] = (1e3 * deciles[4], "ms")
        metrics[f"{name}.p90_ms"] = (1e3 * deciles[8], "ms")
    for name, unit in COUNTERS.items():
        metrics[name] = (median(lambda p: p[2].get(name, 0)), unit)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            median(lambda p: sum(v for k, v in p[1].items() if k.split(".")[0] == layer)),
            "s",
        )
    return metrics

