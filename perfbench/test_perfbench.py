"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench_run
from perfbench import serveload, suites, tracer
from perfbench.harness import ROOT, SRC, BenchError, percentile
from perfbench.layers import PER_LAYER

sys.path.insert(0, str(SRC))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# metric names and the BENCHMARK.json contract
# ---------------------------------------------------------------------- #
def test_metric_names_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_what_the_runs_print():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == bench_run.WORKLOAD_NAMES
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def test_percentile_refuses_a_thin_tail():
    with pytest.raises(BenchError):
        percentile(range(199), 95)  # 9 samples above the p95
    assert percentile(range(200), 95) == 189  # exactly 10 above
    with pytest.raises(BenchError):
        percentile([], 50)


@pytest.mark.parametrize("workload", suites.NOMINAL_ITERATION_S)
def test_suite_runs_keep_enough_fast_repeats(workload):
    keep = suites.kept(workload)
    cells = sum(len(call.cells()) for call in suites.WORKLOADS[workload])
    percentile(range(keep * cells), 95)  # at least 10 kept timings above the p95
    planned, minimum = suites.iterations(workload, _spec()["run_seconds"])
    assert minimum == keep < planned  # a full run drops its slower repeats
    assert suites.fastest([3, 1, 2, 5], 2) == [1, 2]


# ---------------------------------------------------------------------- #
# tracer
# ---------------------------------------------------------------------- #
def test_tracer_restores_every_patched_name():
    recorder = tracer.Recorder()
    installation = tracer.install(recorder)
    bindings = list(installation.bindings)
    try:
        assert len(bindings) > len(tracer.LAYERS)
        for container, key, original, wrapper, is_item in bindings:
            current = container[key] if is_item else getattr(container, key)
            assert current is wrapper and wrapper is not original
        from repro.collections.meshes import grid2d_pattern
        from repro.orderings.registry import ORDERING_ALGORITHMS

        ORDERING_ALGORITHMS["rcm"](grid2d_pattern(6, 6))
        calls, total_s, self_s = recorder.spans["orderings.rcm"]
        assert calls == 1 and 0 <= self_s <= total_s
        assert recorder.spans["graph.traversal.breadth_first_levels"][0] >= 1
    finally:
        installation.restore()
    for container, key, original, _wrapper, is_item in bindings:
        current = container[key] if is_item else getattr(container, key)
        assert current is original, key
    assert installation.bindings == []


def test_generator_spans_count_one_call_and_cover_each_item():
    recorder = tracer.Recorder()

    def produce():
        yield 1
        yield 2

    wrapped = tracer._span_wrapper(recorder, "gen", produce)
    assert list(wrapped()) == [1, 2]
    assert recorder.spans["gen"][0] == 1


# ---------------------------------------------------------------------- #
# end-to-end smoke runs at tiny scale
# ---------------------------------------------------------------------- #
@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(suites, "WORKLOADS", {
        name: tuple(dataclasses.replace(call, scale=min(call.scale, 0.01))
                    for call in calls)
        for name, calls in suites.WORKLOADS.items()})
    monkeypatch.setattr(serveload, "SCALE", 0.03)
    monkeypatch.setattr(serveload, "GRID_SIDE", 12)
    monkeypatch.setattr(serveload, "SETUP_REPEATS", 1)


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_smoke_run_end_to_end(workload, tiny, capsys):
    code = bench_run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", "0"])
    result = _last_line(capsys)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_smoke_run_traced(workload, tiny, capsys):
    code = bench_run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", "1"])
    result = _last_line(capsys)
    assert code == 0, result
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["batch.execute_task.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "serve-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
