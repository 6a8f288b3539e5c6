"""repro — spectral envelope reduction of sparse symmetric matrices.

A complete, pure-Python reproduction of

    S. T. Barnard, A. Pothen, H. D. Simon,
    "A Spectral Algorithm for Envelope Reduction of Sparse Matrices",
    Supercomputing '93 (NASA Ames report RNR-93-015).

The package provides:

* the spectral envelope-reducing ordering (Algorithm 1 of the paper) with
  Lanczos, multilevel and SciPy eigensolver back ends
  (:func:`repro.spectral_ordering`, :func:`repro.fiedler_vector`);
* the classical baselines it is compared against — reverse Cuthill-McKee,
  Gibbs-Poole-Stockmeyer, Gibbs-King — plus Sloan and a hybrid
  spectral+local refinement (:mod:`repro.orderings`);
* every envelope parameter and theoretical bound from Section 2
  (:mod:`repro.envelope`);
* an envelope (skyline) Cholesky solver for the factorization experiments of
  Table 4.4 (:mod:`repro.factor`);
* synthetic surrogates of the paper's Boeing-Harwell / NASA test matrices and
  Harwell-Boeing / Matrix Market readers for the real files
  (:mod:`repro.collections`, :mod:`repro.sparse`);
* reporting utilities that regenerate the paper's tables and figures
  (:mod:`repro.analysis`).

Quick start
-----------
>>> from repro import reorder
>>> from repro.collections import grid2d_pattern
>>> report = reorder(grid2d_pattern(20, 30), algorithm="spectral")
>>> report.statistics.envelope_size <= report.original.envelope_size
True
"""

from repro.pipeline import EnvelopeReport, compare_orderings, reorder
from repro.eigen.fiedler import FiedlerResult, fiedler_vector
from repro.envelope.metrics import (
    EnvelopeStatistics,
    bandwidth,
    envelope_size,
    envelope_statistics,
    envelope_work,
)
from repro.factor.cholesky import EnvelopeCholesky, envelope_cholesky
from repro.factor.solve import envelope_solve
from repro.orderings.base import Ordering
from repro.orderings.cuthill_mckee import cuthill_mckee_ordering, rcm_ordering
from repro.orderings.gibbs_king import gibbs_king_ordering
from repro.orderings.gps import gps_ordering
from repro.orderings.hybrid import hybrid_spectral_ordering
from repro.orderings.sloan import sloan_ordering
from repro.orderings.spectral import spectral_ordering
from repro.sparse.pattern import SymmetricPattern

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # pipeline
    "reorder",
    "compare_orderings",
    "EnvelopeReport",
    # orderings
    "Ordering",
    "spectral_ordering",
    "rcm_ordering",
    "cuthill_mckee_ordering",
    "gps_ordering",
    "gibbs_king_ordering",
    "sloan_ordering",
    "hybrid_spectral_ordering",
    # eigen
    "fiedler_vector",
    "FiedlerResult",
    # envelope metrics
    "envelope_size",
    "envelope_work",
    "bandwidth",
    "envelope_statistics",
    "EnvelopeStatistics",
    # factorization
    "envelope_cholesky",
    "EnvelopeCholesky",
    "envelope_solve",
    # structure
    "SymmetricPattern",
]
