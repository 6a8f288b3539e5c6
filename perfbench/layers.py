"""Per-layer metrics of a traced run, assembled from the tracer's span files."""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.harness import median
from perfbench.tracer import LAYERS

#: Layers reported as ``<layer>.calls``, ``<layer>.s`` and ``<layer>.self_s``.
SPAN_LAYERS = tuple(name for name, _module, _attr in LAYERS
                    if not name.startswith("store."))

#: Every per-layer metric: ``name -> (unit, better)``.
PER_LAYER = {}
for _layer in SPAN_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "store.save.calls": ("count", "lower"),
    "store.save.s": ("s", "lower"),
    "store.save.bytes": ("bytes", "lower"),
    "store.load.calls": ("count", "lower"),
    "store.load.s": ("s", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "store.corrupt": ("count", "lower"),
    "eigen.unconverged": ("count", "lower"),
    "batch.runner.overhead_s": ("s", "lower"),
    "serve.compute_ms.p50": ("ms", "lower"),
    "serve.overhead_ms.p50": ("ms", "lower"),
    "serve.pool.queue_wait_ms.p50": ("ms", "lower"),
    "serve.computations": ("count", "lower"),
    "serve.coalesced": ("count", "higher"),
    "serve.shed": ("count", "lower"),
    "serve.worker_crashed": ("count", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def read_dumps(trace_dir: Path) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(trace_dir.glob("*.json"))]


def layer_metrics(dumps: list[dict], *, blocking_role: str, traced_s: float,
                  overhead_s: float, serve: dict | None = None) -> dict:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``traced_s`` is the traced run's end-to-end time and ``overhead_s`` its
    wall time minus the same work's untraced wall time.  ``blocking_role``
    names the processes whose top-level spans lie on the path the
    end-to-end time waits for: ``"main"`` for a suite (its dispatcher waits
    on the workers), ``"child"`` for serve (each request waits on its worker
    process).  What those spans leave uncovered is ``trace.unattributed_s``.
    """
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    samples: dict[str, list] = {}
    covered = executed = 0.0
    for dump in dumps:
        for name, values in dump["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                total[i] += value
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, values in dump["samples"].items():
            samples.setdefault(name, []).extend(values)
        if dump["role"] == blocking_role:
            covered += dump["top_s"]
        if dump["role"] == "child":
            executed += dump["spans"].get("batch.execute_task", [0, 0.0, 0.0])[1]

    metrics = {}
    for layer in SPAN_LAYERS:
        calls, total_s, self_s = spans.get(layer, [0, 0.0, 0.0])
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.s"] = total_s
        metrics[f"{layer}.self_s"] = self_s
    save = spans.get("store.save", [0, 0.0, 0.0])
    load = spans.get("store.load", [0, 0.0, 0.0])
    metrics.update({
        "store.save.calls": save[0],
        "store.save.s": save[1],
        "store.save.bytes": counters.get("store.save.bytes", 0),
        "store.load.calls": load[0],
        "store.load.s": load[1],
        "store.hit_ratio": counters.get("store.load.hits", 0) / load[0] if load[0] else 0.0,
        "store.corrupt": counters.get("store.corrupt", 0),
        "eigen.unconverged": counters.get("eigen.unconverged", 0),
        # worker-seconds (start to join, as the parent sees them) outside
        # the cells the workers executed
        "batch.runner.overhead_s": (counters["batch.runner.worker_s"] - executed
                                    if "batch.runner.worker_s" in counters else 0.0),
        "trace.unattributed_s": traced_s - covered,
        "trace.overhead_s": overhead_s,
    })
    waits = samples.get("serve.pool.queue_wait_ms")
    serve = dict(serve or {})
    serve.setdefault("serve.pool.queue_wait_ms.p50", median(waits) if waits else 0.0)
    for name in ("serve.compute_ms.p50", "serve.overhead_ms.p50", "serve.computations",
                 "serve.coalesced", "serve.shed", "serve.worker_crashed"):
        serve.setdefault(name, 0)
    metrics.update(serve)
    return metrics
