"""Reporting: text spy plots, comparison tables and locality measures.

* :mod:`repro.analysis.spy` — the Figure 4.1-4.5 equivalents: density grids
  and ASCII spy plots of a matrix structure under an ordering, plus numerical
  band-profile summaries that capture the visual difference the paper shows
  between the local (GPS/GK/RCM) and spectral reorderings;
* :mod:`repro.analysis.report` — the Table 4.1-4.3 row format: one row per
  (matrix, algorithm) with envelope size, bandwidth, run time and rank;
* :mod:`repro.analysis.locality` — memory-locality and partition measures
  of an ordering.

The experiments themselves run through :mod:`repro.pipeline` (one matrix)
and :mod:`repro.batch` (a whole problem suite).
"""

from repro.analysis.spy import ascii_spy, density_grid, band_profile
from repro.analysis.report import ComparisonRow, format_table, rank_by
from repro.analysis.locality import (
    LocalityReport,
    average_nonzero_distance,
    cache_line_spans,
    locality_report,
    partition_communication_volume,
)

__all__ = [
    "ascii_spy",
    "density_grid",
    "band_profile",
    "LocalityReport",
    "locality_report",
    "average_nonzero_distance",
    "cache_line_spans",
    "partition_communication_volume",
    "ComparisonRow",
    "format_table",
    "rank_by",
]
