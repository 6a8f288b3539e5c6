"""End-to-end and per-layer benchmark of the ``repro`` program.

Run it from the repository root::

    python3 -m perfbench --workload suite-spectral --seed 1 --seconds 40 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric predictions.
"""
