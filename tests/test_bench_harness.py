"""The ``repro bench`` perf-regression harness: timing core, artifact
round-trip, regression diffing, and the CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    diff_bench,
    format_diff,
    format_trend,
    load_bench,
    measure,
    pinned_micro_suite,
    run_bench,
    save_bench,
    time_call,
    trend_bench,
)
from repro.cli import main


# --------------------------------------------------------------------- #
# timing core
# --------------------------------------------------------------------- #
def test_time_call_returns_result_and_elapsed():
    result, seconds = time_call(lambda x: x * 2, 21)
    assert result == 42
    assert seconds >= 0.0


def test_measure_statistics():
    calls = []
    stats = measure(lambda: calls.append(1), repeats=3, warmup=2)
    assert len(calls) == 5  # warmup runs execute but are not timed
    assert stats["repeats"] == 3
    assert len(stats["times_s"]) == 3
    assert stats["best_s"] == min(stats["times_s"])
    assert stats["best_s"] <= stats["mean_s"]


def test_measure_rejects_nonpositive_repeats():
    with pytest.raises(ValueError):
        measure(lambda: None, repeats=0)


# --------------------------------------------------------------------- #
# harness + artifact
# --------------------------------------------------------------------- #
def test_pinned_micro_suite_names_are_stable_and_unique():
    for quick in (False, True):
        names = [bench.name for bench in pinned_micro_suite(quick)]
        assert len(names) == len(set(names))
        # group/algorithm/problem@scale — problem names may themselves
        # contain "/" (RANDOM/BA), so two slashes is the *minimum*
        assert all(name.count("/") >= 2 for name in names)
        assert all("@" in name for name in names)
    # quick mode is a subset-shaped suite, not a rename of the full one
    assert {b.group for b in pinned_micro_suite(True)} == {
        "orderings", "graph", "eigen", "powerlaw"}


def _tiny_artifact(tmp_path, name="bench.json", **overrides):
    """A real (but minimal) run: one filtered kernel, no suite section."""
    artifact = run_bench(quick=True, repeats=1, name_filter="mis", rev="test-rev")
    artifact.update(overrides)
    return save_bench(artifact, tmp_path / name), artifact


def test_run_bench_artifact_schema(tmp_path):
    path, artifact = _tiny_artifact(tmp_path)
    assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
    assert artifact["rev"] == "test-rev"
    assert artifact["machine"]["numpy"]
    assert len(artifact["kernels"]) == 1
    (kernel,) = artifact["kernels"]
    assert kernel["name"] == "graph/mis/PWT@0.03"
    assert kernel["best_s"] >= 0.0
    assert artifact["suite"] is None  # filtered runs skip the suite section
    assert load_bench(path) == json.loads(path.read_text())


def test_load_bench_rejects_foreign_and_future_files(tmp_path):
    not_bench = tmp_path / "other.json"
    not_bench.write_text('{"schema_version": 1}')
    with pytest.raises(ValueError, match="not a repro bench artifact"):
        load_bench(not_bench)
    future = tmp_path / "future.json"
    future.write_text(json.dumps({"kind": "repro-bench",
                                  "schema_version": BENCH_SCHEMA_VERSION + 1}))
    with pytest.raises(ValueError, match="schema version"):
        load_bench(future)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_bench(garbage)


def _artifact_with(kernels, suite=None, rev="r"):
    return {"schema_version": 1, "kind": "repro-bench", "rev": rev,
            "machine": {}, "config": {}, "kernels": kernels, "suite": suite,
            "total_s": 0.0}


def test_diff_bench_speedups_and_regressions():
    baseline = _artifact_with(
        [{"name": "a", "best_s": 1.0}, {"name": "b", "best_s": 0.10},
         {"name": "gone", "best_s": 1.0}],
        suite={"cells": [{"problem": "P", "algorithm": "rcm",
                          "status": "ok", "time_s": 2.0}]},
        rev="old",
    )
    current = _artifact_with(
        [{"name": "a", "best_s": 0.25}, {"name": "b", "best_s": 0.20},
         {"name": "new", "best_s": 1.0}],
        suite={"cells": [{"problem": "P", "algorithm": "rcm",
                          "status": "ok", "time_s": 0.5}]},
        rev="new",
    )
    diff = diff_bench(baseline, current, threshold=0.25)
    by_name = {row["name"]: row for row in diff["rows"]}
    assert by_name["a"]["speedup"] == pytest.approx(4.0)
    assert by_name["suite/P/rcm"]["speedup"] == pytest.approx(4.0)
    assert by_name["b"]["regressed"] is True
    assert diff["regressions"] == ["b"]
    assert diff["added"] == ["new"]
    assert diff["removed"] == ["gone"]
    # geomean over (4, 0.5, 4): (4 * 0.5 * 4) ** (1/3) = 2.0
    assert diff["geomean_speedup"] == pytest.approx(2.0)
    # totals cover the kernel rows only (a + b), not the suite cells
    assert diff["total_base_s"] == pytest.approx(1.10)
    assert diff["total_new_s"] == pytest.approx(0.45)
    assert diff["total_speedup"] == pytest.approx(1.10 / 0.45)
    text = format_diff(diff)
    assert "REGRESSION" in text and "geometric-mean" in text
    assert "total micro-suite wall time" in text


def test_diff_bench_ignores_noise_floor_regressions():
    baseline = _artifact_with([{"name": "tiny", "best_s": 1e-5}])
    current = _artifact_with([{"name": "tiny", "best_s": 9e-5}])
    diff = diff_bench(baseline, current)
    assert diff["regressions"] == []


def _with_backend_keys(artifact):
    """Add the kernel-backend keys that older bench artifacts carry."""
    artifact["config"]["backend"] = "numpy"
    artifact["machine"].update(backend="numpy", numba_available=False)
    return artifact


def test_machine_info_records_no_backend_keys():
    from repro.bench import machine_info

    info = machine_info()
    assert {"numpy", "scipy", "python"} <= set(info)
    assert not {"backend", "numba", "numba_available", "llvmlite"} & set(info)


def test_diff_of_parent_era_backend_artifacts_gates_as_usual():
    baseline = _with_backend_keys(_artifact_with([{"name": "k", "best_s": 1.0}]))
    current = _artifact_with([{"name": "k", "best_s": 2.0}])
    current["config"]["backend"] = "numba"
    diff = diff_bench(baseline, current)
    assert "backends" not in diff
    assert diff["regressions"] == ["k"]
    assert "NOTE" not in format_diff(diff)


# --------------------------------------------------------------------- #
# trend across artifacts
# --------------------------------------------------------------------- #
def _trend_artifact(rev, created_s, times):
    artifact = _artifact_with(
        [{"name": name, "group": name.split("/")[0], "best_s": t}
         for name, t in times.items()],
        rev=rev,
    )
    artifact["created_s"] = created_s
    return artifact


def test_trend_sorts_by_creation_and_chains_geomeans():
    a = _trend_artifact("r1", 100.0, {"orderings/rcm/X": 1.0, "graph/bfs/X": 0.8})
    b = _trend_artifact("r2", 200.0, {"orderings/rcm/X": 0.5, "graph/bfs/X": 0.8})
    c = _with_backend_keys(
        _trend_artifact("r3", 300.0, {"orderings/rcm/X": 0.25, "graph/bfs/X": 0.2}))
    trend = trend_bench([c, a, b])  # order on disk must not matter
    assert trend["revisions"] == ["r1", "r2", "r3"]
    last = trend["steps"][-1]
    assert last["cumulative"]["orderings"] == pytest.approx(4.0)
    assert last["cumulative"]["graph"] == pytest.approx(4.0)
    text = format_trend(trend)
    assert "cumulative" in text and "[" not in text


def test_trend_requires_two_artifacts():
    with pytest.raises(ValueError, match="at least two"):
        trend_bench([_trend_artifact("r1", 1.0, {})])


def test_trend_disjoint_kernels_yield_no_speedup():
    a = _trend_artifact("r1", 1.0, {"graph/old/X": 1.0})
    b = _trend_artifact("r2", 2.0, {"graph/new/X": 0.1})
    trend = trend_bench([a, b])
    assert trend["steps"][0]["speedups"]["graph"] is None
    assert trend["steps"][0]["cumulative"]["graph"] == pytest.approx(1.0)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_bench_writes_artifact_and_diffs_clean(tmp_path, capsys):
    out = tmp_path / "BENCH_one.json"
    code = main(["bench", "--quick", "--filter", "graph/mis", "--repeats", "1",
                 "--output", str(out)])
    assert code == 0
    assert load_bench(out)["kernels"]
    # a self-diff has no regressions -> exit 0
    code = main(["bench", "--quick", "--filter", "graph/mis", "--repeats", "1",
                 "--output", str(tmp_path / "BENCH_two.json"),
                 "--against", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "bench diff" in stdout and "no regressions" in stdout


def test_cli_bench_exits_nonzero_on_regression(tmp_path, monkeypatch):
    import repro.cli

    baseline = _with_backend_keys(_artifact_with([{"name": "k", "best_s": 0.010}]))
    path = tmp_path / "BENCH_base.json"
    path.write_text(json.dumps(baseline))
    regressed = _artifact_with([{"name": "k", "best_s": 0.100}], rev="slow")

    def fake_run_bench(**_kwargs):
        return regressed

    import repro.bench
    monkeypatch.setattr(repro.bench, "run_bench", fake_run_bench)
    code = repro.cli.main(["bench", "--output", str(tmp_path / "BENCH_now.json"),
                           "--against", str(path)])
    assert code == 1


def test_cli_bench_rejects_nonpositive_repeats(capsys):
    assert main(["bench", "--quick", "--repeats", "0"]) == 2
    assert "--repeats" in capsys.readouterr().err


def test_cli_bench_trend(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_trend_artifact("r1", 100.0, {"graph/bfs/X": 1.0})))
    b.write_text(json.dumps(_with_backend_keys(
        _trend_artifact("r2", 200.0, {"graph/bfs/X": 0.25}))))
    code = main(["bench", "--trend", str(a), str(b)])
    assert code == 0
    out = capsys.readouterr().out
    assert "bench trend: r1 -> r2" in out
    assert "4.00x" in out


def test_cli_bench_trend_needs_two_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(_trend_artifact("r1", 1.0, {})))
    assert main(["bench", "--trend", str(a)]) == 2
    assert "at least two" in capsys.readouterr().err


def test_cli_bench_trend_unreadable_file_exits_2(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(_trend_artifact("r1", 1.0, {})))
    assert main(["bench", "--trend", str(a), str(tmp_path / "nope.json")]) == 2


def test_cli_bench_bad_baseline_exit_2(tmp_path):
    missing = main(["bench", "--quick", "--filter", "graph/mis",
                    "--against", str(tmp_path / "nope.json")])
    assert missing == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{}")
    assert main(["bench", "--quick", "--filter", "graph/mis",
                 "--against", str(invalid)]) == 2


def test_suite_cells_carry_n_nnz_and_export_cost_model(tmp_path, capsys):
    """Bench suite cells record n/nnz so --export-cost-model can fit
    per-algorithm cost rates; the exported model loads as a CostModel."""
    from repro.batch import CostModel

    out = tmp_path / "BENCH_x.json"
    costs = tmp_path / "costs.json"
    code = main(["bench", "--quick", "--repeats", "1", "--no-suite",
                 "--filter", "orderings/rcm", "--output", str(out),
                 "--export-cost-model", str(costs)])
    assert code == 0
    assert "cost model" in capsys.readouterr().out
    artifact = json.loads(out.read_text())
    model = CostModel.from_file(costs)
    assert len(model) == len(artifact["kernels"]) > 0
    # artifacts with a suite section expose n/nnz per cell
    from repro.bench import run_bench

    quick = run_bench(quick=True, repeats=1, include_suite=True)
    cells = quick["suite"]["cells"]
    assert cells and all(cell["n"] > 0 and cell["nnz"] > 0 for cell in cells
                         if cell["status"] == "ok")
    direct = CostModel()
    direct.observe_bench(quick)
    assert len(direct) >= len(cells)


# --------------------------------------------------------------------- #
# suite cells: best-of-k timing + sizes (cost-model food)
# --------------------------------------------------------------------- #
def test_suite_cells_record_best_of_k_timing():
    artifact = run_bench(quick=True, repeats=2, include_suite=True)
    suite = artifact["suite"]
    assert suite["repeats"] == 2
    for cell in suite["cells"]:
        if cell["status"] != "ok":
            continue
        assert cell["best_s"] is not None and cell["best_s"] > 0
        # best-of-k is no worse than the last run's engine timing
        assert cell["best_s"] <= cell["time_s"] + 1e-12
        assert cell["n"] > 0 and cell["nnz"] > 0


def test_diff_and_cost_model_prefer_best_s_cells():
    from repro.batch import CostModel

    baseline = _artifact_with(
        [], suite={"scale": 0.02,
                   "cells": [{"problem": "P", "algorithm": "rcm", "status": "ok",
                              "time_s": 9.0, "best_s": 2.0, "n": 10, "nnz": 20}]})
    current = _artifact_with(
        [], suite={"scale": 0.02,
                   "cells": [{"problem": "P", "algorithm": "rcm", "status": "ok",
                              "time_s": 5.0, "best_s": 1.0, "n": 10, "nnz": 20}]})
    diff = diff_bench(baseline, current)
    (row,) = diff["rows"]
    assert row["base_s"] == 2.0 and row["new_s"] == 1.0  # best_s, not time_s
    model = CostModel()
    model.observe_bench(current)
    assert model.estimate("P", "rcm", 0.02) == 1.0
    # read-compat: artifacts without best_s still feed time_s
    legacy = _artifact_with(
        [], suite={"scale": 0.02,
                   "cells": [{"problem": "P", "algorithm": "rcm", "status": "ok",
                              "time_s": 5.0}]})
    legacy_model = CostModel()
    legacy_model.observe_bench(legacy)
    assert legacy_model.estimate("P", "rcm", 0.02) == 5.0


# --------------------------------------------------------------------- #
# the geomean CI gate
# --------------------------------------------------------------------- #
def test_gate_geomean_tolerates_single_kernel_spikes(tmp_path, monkeypatch):
    """One kernel regressing hard fails --gate kernel but not --gate geomean
    (the CI smoke configuration), as long as the geomean stays inside the
    threshold; a broad slowdown fails both."""
    import repro.bench
    import repro.cli

    baseline = _artifact_with([{"name": f"k{i}", "best_s": 0.010}
                               for i in range(12)])
    base_path = tmp_path / "BENCH_base.json"
    base_path.write_text(json.dumps(baseline))
    spike = _artifact_with(
        [{"name": "k0", "best_s": 0.100}]
        + [{"name": f"k{i}", "best_s": 0.010} for i in range(1, 12)], rev="s")

    monkeypatch.setattr(repro.bench, "run_bench", lambda **_: spike)
    args = ["bench", "--output", str(tmp_path / "BENCH_now.json"),
            "--against", str(base_path)]
    assert repro.cli.main(args) == 1                       # per-kernel gate
    assert repro.cli.main(args + ["--gate", "geomean"]) == 0

    broad = _artifact_with([{"name": f"k{i}", "best_s": 0.020}
                            for i in range(12)], rev="b")
    monkeypatch.setattr(repro.bench, "run_bench", lambda **_: broad)
    assert repro.cli.main(args + ["--gate", "geomean"]) == 1


def test_gate_geomean_ignores_sub_noise_floor_rows(tmp_path, monkeypatch):
    import repro.bench
    import repro.cli

    baseline = _artifact_with(
        [{"name": "tiny", "best_s": 1e-5}, {"name": "real", "best_s": 0.010}])
    base_path = tmp_path / "BENCH_base.json"
    base_path.write_text(json.dumps(baseline))
    # the sub-floor kernel "regresses" 100x; the real kernel is unchanged
    current = _artifact_with(
        [{"name": "tiny", "best_s": 1e-3}, {"name": "real", "best_s": 0.010}],
        rev="n")
    monkeypatch.setattr(repro.bench, "run_bench", lambda **_: current)
    code = repro.cli.main(["bench", "--output", str(tmp_path / "BENCH_now.json"),
                           "--against", str(base_path), "--gate", "geomean"])
    assert code == 0


def test_fiedler_policy_recorded_and_mismatch_flagged():
    fast = run_bench(quick=True, repeats=1, name_filter="graph/mis",
                     fiedler_policy="fast", rev="f")
    assert fast["config"]["fiedler_policy"] == "fast"
    default = run_bench(quick=True, repeats=1, name_filter="graph/mis", rev="d")
    diff = diff_bench(default, fast)
    assert diff["fiedler_policies"] == ("default", "fast")
    assert "not like-for-like" in format_diff(diff)


def test_run_bench_rejects_unknown_policy():
    with pytest.raises(ValueError, match="fiedler_policy"):
        run_bench(quick=True, repeats=1, fiedler_policy="warp")
