#!/usr/bin/env python
"""Regenerate the paper's Tables 4.1-4.4 on the synthetic surrogate suite.

For every matrix of the paper's three test sets this script runs the four
ordering algorithms (SPECTRAL, GK, GPS, RCM), reports envelope size, bandwidth,
ordering time and rank — the exact columns of Tables 4.1-4.3 — and then runs
the envelope-factorization timing comparison of Table 4.4 on the three
matrices the paper selected.

Run with::

    python examples/paper_tables.py [scale] [--tables 4.1,4.2,4.3,4.4] [--jobs 4]

``scale`` defaults to the value of ``REPRO_BENCH_SCALE`` or 0.125.  The full
run at the default scale takes several minutes (the spectral and GK orderings
dominate); pass a smaller scale (e.g. 0.03) for a quick look, or ``--jobs N``
to fan the (problem, algorithm) cells out over ``N`` worker processes via the
batch engine (:mod:`repro.batch`) — the numbers are identical to a serial run.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.batch import run_suite
from repro.collections.registry import available_problems, default_scale, load_problem
from repro.envelope.metrics import envelope_size
from repro.factor.cholesky import envelope_cholesky
from repro.orderings.registry import ORDERING_ALGORITHMS

TABLE_44_PROBLEMS = ("BCSSTK29", "BCSSTK33", "BARTH4")


def run_table(table: str, scale: float, jobs: int = 1) -> None:
    problems = available_problems(table)
    print(f"\n=== Table {table} (surrogates at scale {scale}, jobs={jobs}) ===")
    suite = run_suite(problems, scale=scale, n_jobs=jobs)
    print()
    print(suite.to_text())
    spectral_wins = list(suite.winners().values()).count("spectral")
    print(f"\nSPECTRAL has the smallest envelope on {spectral_wins} of {len(problems)} problems.")


def run_table_44(scale: float) -> None:
    print(f"\n=== Table 4.4: envelope factorization times (scale {scale}) ===")
    print(f"{'Title':<12} {'Envelope':>12} {'Factor ops':>14} {'Factor time (s)':>16} {'Algorithm':>10}")
    for name in TABLE_44_PROBLEMS:
        pattern, spec = load_problem(name, scale=scale)
        matrix = pattern.to_scipy("spd")
        for algorithm in ("spectral", "rcm"):
            ordering = ORDERING_ALGORITHMS[algorithm](pattern)
            start = time.perf_counter()
            chol = envelope_cholesky(matrix, perm=ordering.perm)
            elapsed = time.perf_counter() - start
            print(
                f"{spec.name:<12} {envelope_size(pattern, ordering.perm):>12,} "
                f"{chol.operations:>14,} {elapsed:>16.3f} {algorithm.upper():>10}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", type=float, default=None)
    parser.add_argument("--tables", default="4.1,4.2,4.3,4.4")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the ordering suite (batch engine)")
    args = parser.parse_args()
    scale = args.scale if args.scale is not None else default_scale()
    tables = [t.strip() for t in args.tables.split(",") if t.strip()]

    for table in tables:
        if table == "4.4":
            run_table_44(scale)
        else:
            run_table(table, scale, jobs=args.jobs)


if __name__ == "__main__":
    main()
