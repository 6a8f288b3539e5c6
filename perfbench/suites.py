"""The batch workload: ``repro suite`` processes launched as a user would."""

from __future__ import annotations

import json
import math
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from perfbench.harness import (
    Tally,
    canonical_record,
    geomean,
    median,
    peak_child_rss_mb,
    percentile,
    record_problems,
    repro_command,
    run_program,
)
from perfbench.layers import layer_metrics, read_dumps

#: The paper's 18 test problems (Tables 4.1-4.3), as registry surrogates.
PAPER_PROBLEMS = (
    "BCSSTK13", "BCSSTK29", "BCSSTK30", "BCSSTK31", "BCSSTK32", "BCSSTK33",
    "BLKHOLE", "CAN1072", "DWT2680", "POW9", "SSTMODEL",
    "BARTH4", "BODY", "FLAP", "IN3C", "PWT", "SHUTTLE", "SKIRT",
)

#: The per-cell limit of the spectral suite: far above any cell's time, so
#: it only selects the killable per-cell worker path.
SPECTRAL_TIMEOUT_S = 120

#: A suite's set-up probe: one tiny cell, i.e. interpreter start, imports,
#: registry and artifact writing with next to no ordering work.  A probe
#: runs before every :data:`PROBE_EVERY`-th iteration.
SETUP_CALL_ARGS = ("POW9", "--algorithms", "rcm", "--scale", "0.02", "--jobs", "1")
PROBE_EVERY = 2

#: Cell timings the latency percentiles pool, so that at least 10 lie above
#: the p95.
MIN_SAMPLES = 200

#: Wall time of one iteration of each workload on a 2-core x86-64 host
#: (Python 3.11), used to turn ``--seconds`` into an iteration count.
NOMINAL_ITERATION_S = {"suite-spectral": 3.4}
OVERRUN = 1.5


@dataclass(frozen=True)
class SuiteCall:
    """One ``repro suite`` invocation of a workload."""

    problems: tuple
    algorithms: str
    scale: float
    options: tuple = ()
    fresh_store: bool = False

    def args(self, seed: int, output: Path) -> list[str]:
        args = ["suite", *self.problems, "--algorithms", self.algorithms,
                "--scale", repr(self.scale), "--seed", str(seed), *self.options,
                "--no-progress", "--output", str(output)]
        if self.fresh_store:
            args += ["--store", str(output.with_suffix(".store"))]
        return args

    def cells(self) -> set:
        return {(p, a) for p in self.problems for a in self.algorithms.split(",")}


WORKLOADS = {
    "suite-spectral": (
        SuiteCall(PAPER_PROBLEMS, "spectral,hybrid", 0.1,
                  ("--jobs", "2", "--timeout", str(SPECTRAL_TIMEOUT_S)),
                  fresh_store=True),
    ),
}


def expected_sizes(calls) -> dict:
    """``problem -> (n, nnz)`` of every problem, built in this process."""
    from repro.collections.registry import load_problem

    sizes = {}
    for call in calls:
        for problem in call.problems:
            pattern, _spec = load_problem(problem, scale=call.scale)
            sizes[problem] = (pattern.n, pattern.nnz)
    return sizes


def run_iteration(calls, seed: int, wd: Path, tag: str, traced_out=None):
    """Run every call of the workload once; ``(wall_s of each call, records)``."""
    walls, records = [], []
    for k, call in enumerate(calls):
        output = wd / f"{tag}-{k}.json"
        walls.append(run_program(repro_command(*call.args(seed, output),
                                               traced_out=traced_out)))
        records.extend(json.loads(output.read_text())["records"])
        output.unlink()
        shutil.rmtree(output.with_suffix(".store"), ignore_errors=True)
    return walls, records


def check_records(records, calls, sizes: dict, tally: Tally) -> list[dict]:
    """Check each cell and the set of cells; returns the ``ok`` records."""
    seen = set()
    ok = []
    for record in records:
        problems = record_problems(record)
        key = (record.get("problem"), record.get("algorithm"))
        if key in seen:
            problems.append(f"{key}: duplicate record")
        seen.add(key)
        if record.get("status") == "ok" and (record["n"], record["nnz"]) != sizes.get(key[0]):
            problems.append(f"{key}: n/nnz {record['n']}/{record['nnz']} differ from "
                            f"the problem's {sizes.get(key[0])}")
        if tally.check(problems):
            ok.append(record)
    expected = set().union(*(call.cells() for call in calls))
    tally.check([f"missing cells {sorted(expected - seen)[:5]}"] if expected - seen else [])
    return ok


def canonical_set(records) -> list[str]:
    return sorted(canonical_record(r) for r in records)


def setup_probe(seed: int, wd: Path, index: int, tally: Tally) -> float:
    """Wall time of one fresh set-up probe process."""
    output = wd / f"setup-{index}.json"
    args = ["suite", *SETUP_CALL_ARGS, "--seed", str(seed), "--no-progress",
            "--output", str(output)]
    wall = run_program(repro_command(*args))
    for record in json.loads(output.read_text())["records"]:
        tally.check(record_problems(record))
    output.unlink()
    return wall


def kept(workload: str) -> int:
    """Timings of each cell a run keeps: the fewest that give :data:`MIN_SAMPLES`."""
    cells = sum(len(call.cells()) for call in WORKLOADS[workload])
    return math.ceil(MIN_SAMPLES / cells)


def fastest(values, keep: int) -> list:
    """The ``keep`` smallest of ``values``."""
    return sorted(values)[:keep]


def iterations(workload: str, seconds: float) -> tuple[int, int]:
    """``(planned, minimum)`` iteration counts of one run.

    ``planned`` fills about ``seconds`` at the nominal iteration time;
    ``minimum`` is :func:`kept`, what the latency percentiles need.  A run
    on a host much slower than nominal stops after ``minimum`` once it has
    used :data:`OVERRUN` times ``seconds``.
    """
    minimum = kept(workload)
    return max(minimum, round(seconds / NOMINAL_ITERATION_S[workload])), minimum


def run(workload: str, seed: int, seconds: float, wd: Path, tally: Tally, info: dict) -> dict:
    """The end-to-end metrics of one untraced run.

    Every timing is repeated, and the run keeps only the fast repeats: the
    fastest :func:`kept` walls of each call and timings of each cell, and the
    faster half of the set-up probes.  The slower repeats are the ones a
    busy neighbour on the host slowed down.
    """
    calls = WORKLOADS[workload]
    sizes = expected_sizes(calls)
    keep = kept(workload)

    setups, walls, esizes, first = [], [], [], None
    cell_times = defaultdict(list)
    ok_cells = 0
    planned, minimum = iterations(workload, seconds)
    start = time.perf_counter()
    for iteration in range(planned):
        if iteration >= minimum and time.perf_counter() - start > OVERRUN * seconds:
            break
        if iteration % PROBE_EVERY == 0:
            setups.append(setup_probe(seed, wd, iteration, tally))
        call_walls, records = run_iteration(calls, seed, wd, f"it{iteration}")
        walls.append(call_walls)
        ok = check_records(records, calls, sizes, tally)
        ok_cells += len(ok)
        for record in ok:
            cell_times[record["problem"], record["algorithm"]].append(record["time_s"])
        esizes += [r["metrics"]["envelope_size"] for r in ok]
        canonical = canonical_set(records)
        if first is None:
            first = canonical
        else:
            tally.check([] if canonical == first else
                        ["records differ between iterations of one seed"])
    latencies_ms = [t * 1e3 for times in cell_times.values() for t in fastest(times, keep)]
    wall_s = sum(median(fastest(call_walls, keep)) for call_walls in zip(*walls))
    info.update(iterations=len(walls), kept=keep, cells=len(cell_times),
                samples=len(latencies_ms),
                call_walls_s=[[round(w, 4) for w in ws] for ws in walls],
                setups_s=[round(s, 4) for s in setups])
    return {
        "setup_s": median(fastest(setups, max(1, len(setups) // 2))),
        "wall_s": wall_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "requests_per_s": ok_cells / len(walls) / wall_s,
        "success_ratio": tally.success_ratio,
        "esize_geomean": geomean(esizes),
        "peak_rss_mb": peak_child_rss_mb(),
    }


def run_traced(workload: str, seed: int, seconds: float, wd: Path, tally: Tally,
               info: dict) -> dict:
    """The per-layer metrics: one untraced and one traced iteration."""
    calls = WORKLOADS[workload]
    sizes = expected_sizes(calls)
    untraced_walls, plain = run_iteration(calls, seed, wd, "plain")
    trace_dir = wd / "trace"
    traced_walls, traced = run_iteration(calls, seed, wd, "traced", traced_out=trace_dir)
    untraced_s, traced_s = sum(untraced_walls), sum(traced_walls)
    check_records(plain, calls, sizes, tally)
    check_records(traced, calls, sizes, tally)
    tally.check([] if canonical_set(plain) == canonical_set(traced) else
                ["traced records differ from untraced records"])
    info.update(untraced_wall_s=round(untraced_s, 4), traced_wall_s=round(traced_s, 4))
    return layer_metrics(read_dumps(trace_dir), blocking_role="main",
                         traced_s=traced_s, overhead_s=traced_s - untraced_s)
