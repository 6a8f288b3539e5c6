"""Unit tests for the public pipeline (repro.pipeline) and package exports."""

import numpy as np
import pytest

import repro
from repro.collections.generators import airfoil_pattern
from repro.collections.meshes import grid2d_pattern
from repro.pipeline import compare_orderings, reorder
from repro.envelope.metrics import envelope_size


class TestReorder:
    def test_spectral_default(self, geometric200):
        report = reorder(geometric200)
        assert report.ordering.algorithm == "spectral"
        assert report.statistics.envelope_size == envelope_size(geometric200, report.ordering.perm)
        assert report.original.envelope_size == envelope_size(geometric200)
        assert report.run_time >= 0.0

    def test_envelope_reduction_ratio(self):
        pattern = airfoil_pattern(400, seed=7)
        report = reorder(pattern, algorithm="spectral")
        assert report.envelope_reduction == pytest.approx(
            report.original.envelope_size / report.statistics.envelope_size
        )

    def test_every_registered_algorithm(self, grid_8x6):
        for name in ("spectral", "rcm", "gps", "gk", "sloan", "hybrid", "cm"):
            report = reorder(grid_8x6, algorithm=name)
            assert sorted(report.ordering.perm.tolist()) == list(range(grid_8x6.n))

    def test_options_forwarded(self, grid_8x6):
        report = reorder(grid_8x6, algorithm="spectral", method="dense")
        assert report.ordering.metadata["solver"] == "dense"

    def test_apply_returns_permuted_matrix(self, grid_8x6, spd_grid_matrix):
        report = reorder(grid_8x6, algorithm="rcm")
        permuted = report.apply(spd_grid_matrix)
        expected = spd_grid_matrix[report.ordering.perm][:, report.ordering.perm]
        np.testing.assert_allclose(permuted.toarray(), expected.toarray())

    def test_apply_to_pattern(self, grid_8x6):
        report = reorder(grid_8x6, algorithm="rcm")
        assert report.apply(grid_8x6).num_edges == grid_8x6.num_edges

    def test_accepts_scipy_input(self, spd_grid_matrix):
        report = reorder(spd_grid_matrix, algorithm="rcm")
        assert report.statistics.envelope_size <= report.original.envelope_size

    def test_unknown_algorithm(self, grid_8x6):
        with pytest.raises(KeyError):
            reorder(grid_8x6, algorithm="amd")


class TestCompareOrderings:
    def test_default_algorithms(self, grid_8x6):
        result = compare_orderings(grid_8x6, problem="grid")
        assert {r.algorithm for r in result.to_rows()} == {"spectral", "gk", "gps", "rcm"}

    def test_custom_algorithms(self, grid_8x6):
        result = compare_orderings(grid_8x6, algorithms=("rcm", "sloan"))
        assert {r.algorithm for r in result.to_rows()} == {"rcm", "sloan"}


class TestPackageExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example(self):
        from repro import reorder as top_reorder
        from repro.collections import grid2d_pattern as gp

        report = top_reorder(gp(20, 30), algorithm="spectral")
        assert report.statistics.envelope_size <= report.original.envelope_size
