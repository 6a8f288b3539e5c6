"""Command line of the benchmark: one workload, one seed, one result line.

``python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1``

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the run's conditions (machine, thread settings, load
average, iteration counts, the first failures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from perfbench.harness import (
    SRC,
    THREAD_ENV,
    BenchError,
    Tally,
    load_average,
    work_dir,
)

#: Every end-to-end metric: ``name -> unit``.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "requests_per_s": "1/s",
    "success_ratio": "ratio",
    "esize_geomean": "entries",
    "peak_rss_mb": "MiB",
}

WORKLOAD_NAMES = ("suite-spectral", "serve-warm")


def _runner(workload: str, traced: bool):
    if workload == "serve-warm":
        from perfbench import serveload as module
    else:
        from perfbench import suites as module
    return module.run_traced if traced else module.run


def _units(traced: bool) -> dict:
    if traced:
        from perfbench.layers import PER_LAYER

        return {name: unit for name, (unit, _better) in PER_LAYER.items()}
    return END_TO_END


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from repro.bench.harness import machine_info

    traced = bool(args.trace)
    tally = Tally()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_info(), "thread_env": THREAD_ENV,
            "nproc": os.cpu_count(), "loadavg_before": load_average()}
    wd = work_dir(args.workload)
    try:
        values = _runner(args.workload, traced)(args.workload, args.seed, args.seconds,
                                                wd, tally, info)
    except BenchError as exc:
        tally.check([f"run aborted: {exc}"])
        values = {}
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    info["loadavg_after"] = load_average()
    info["error_rate"] = tally.failed / tally.attempted if tally.attempted else 1.0
    info["failures"] = tally.notes
    units = _units(traced)
    correct = tally.failed == 0 and set(values) == set(units)
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1
