"""Shared pieces of the benchmark: program launch, statistics and checks."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Threads of the numeric libraries in every launched process: one each,
#: so worker processes do not oversubscribe the cores and runs stay steady.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: Longest a single program invocation may take before the run fails.
CALL_TIMEOUT_S = 150.0

#: Samples that must lie above a reported high percentile.
MIN_TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    """The program misbehaved: a failed call, a wrong output, too few samples."""


def program_env(extra: dict | None = None) -> dict:
    """Environment of a launched ``repro`` process.

    ``REPRO_*`` variables of the caller are dropped so the workload alone
    decides store, backend and fault settings.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_ENV)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(extra or {})
    return env


def repro_command(*args: str, traced_out: Path | None = None) -> list[str]:
    """``python -m repro ARGS``, or the same under the tracer."""
    if traced_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, "-m", "perfbench.tracer", "--out", str(traced_out),
            "--", *args]


def run_program(command: list[str], *, timeout: float = CALL_TIMEOUT_S) -> float:
    """Run one program process to completion; returns its wall seconds.

    Wall time runs from process launch to exit.  A non-zero exit raises
    :class:`BenchError` with the tail of the process's standard error.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=program_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(command[2:6])}... exceeded {timeout:g} s")
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(command[2:6])}... exited {proc.returncode}: "
                         f"{err.strip()[-800:]}")
    return wall


def work_dir(workload: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    path = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_child_rss_mb() -> float:
    """Peak resident set of any finished program process, in MiB.

    ``RUSAGE_CHILDREN`` covers every waited-for descendant, including the
    worker processes a program process itself waited for.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def load_average() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(values, q: float, min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (:class:`BenchError`) when fewer than ``min_tail`` samples lie
    above the percentile's rank, because such a tail says little.

    >>> percentile(range(1, 101), 50)
    50
    >>> percentile(range(1, 201), 95)
    190
    """
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < min_tail:
        raise BenchError(f"p{q:g} of {len(ordered)} samples leaves "
                         f"{len(ordered) - rank} above it; need {min_tail}")
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise BenchError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def canonical_record(record: dict) -> str:
    """A record's timing-free form, byte-comparable between runs and paths."""
    return json.dumps({k: v for k, v in record.items() if k != "time_s"},
                      sort_keys=True, separators=(",", ":"))


def record_problems(record: dict) -> list[str]:
    """Everything wrong with one ``ok`` suite or served record's metrics."""
    problems = []
    where = f"{record.get('problem')}/{record.get('algorithm')}"
    if record.get("status") != "ok":
        return [f"{where}: status {record.get('status')!r}: "
                f"{(record.get('error') or {}).get('message')}"]
    metrics = record.get("metrics") or {}
    n, nnz = record.get("n", 0), record.get("nnz", 0)
    esize, bandwidth = metrics.get("envelope_size", -1), metrics.get("bandwidth", -1)
    if n <= 0 or metrics.get("n") != n or metrics.get("nnz") != nnz:
        problems.append(f"{where}: n/nnz {n}/{nnz} disagree with the metrics")
    if not 0 <= bandwidth <= max(n - 1, 0):
        problems.append(f"{where}: bandwidth {bandwidth} outside [0, n-1]")
    # every strictly-lower nonzero lies inside its row's envelope, and no
    # row is wider than the bandwidth
    if not (nnz - n) // 2 <= esize <= n * bandwidth:
        problems.append(f"{where}: envelope size {esize} outside "
                        f"[{(nnz - n) // 2}, {n * bandwidth}]")
    return problems


def permutation_problems(perm, n: int) -> list[str]:
    """Empty when ``perm`` is a permutation of ``0..n-1``."""
    if not isinstance(perm, list) or len(perm) != n:
        return [f"permutation of length {len(perm) if isinstance(perm, list) else '?'}"
                f" for n={n}"]
    if sorted(perm) != list(range(n)):
        return ["permutation is not a permutation of 0..n-1"]
    return []


class Tally:
    """Operations attempted and failed in one run, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, problems: list[str]) -> bool:
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.extend(problems[: max(0, 10 - len(self.notes))])
        return not problems

    @property
    def success_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0
