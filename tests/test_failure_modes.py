"""Failure-injection and degenerate-input tests across the public API.

Production users feed libraries empty matrices, disconnected graphs, wrong
shapes, indefinite matrices and malformed files.  These tests pin down that
every public entry point either handles the degenerate case sensibly or fails
fast with a clear exception — never with a silent wrong answer or an internal
IndexError.
"""

import io

import numpy as np
import pytest
import scipy.sparse as sp

from repro.pipeline import compare_orderings, reorder
from repro.eigen.fiedler import fiedler_vector
from repro.eigen.multilevel import multilevel_fiedler
from repro.envelope.metrics import bandwidth, envelope_size, envelope_statistics, frontwidths
from repro.factor.cholesky import envelope_cholesky
from repro.factor.solve import envelope_solve
from repro.factor.storage import EnvelopeStorage
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.sparse.io_hb import read_harwell_boeing
from repro.sparse.io_mm import read_matrix_market
from repro.sparse.pattern import SymmetricPattern
from repro.solvers.cg import conjugate_gradient
from repro.solvers.ic import incomplete_cholesky


class TestDegenerateGraphs:
    """Empty graphs, single vertices, isolated vertices, self-loop-only input."""

    @pytest.mark.parametrize("name", ["spectral", "rcm", "gps", "gk", "sloan", "king", "hybrid"])
    def test_single_vertex(self, name):
        ordering = ORDERING_ALGORITHMS[name](SymmetricPattern.empty(1))
        np.testing.assert_array_equal(ordering.perm, [0])

    @pytest.mark.parametrize("name", ["spectral", "rcm", "gps", "gk", "sloan", "king"])
    def test_diagonal_matrix(self, name):
        """A diagonal matrix (empty graph): every ordering is equally good."""
        pattern = SymmetricPattern.empty(6)
        ordering = ORDERING_ALGORITHMS[name](pattern)
        assert sorted(ordering.perm.tolist()) == list(range(6))
        assert envelope_size(pattern, ordering.perm) == 0

    def test_self_loops_ignored(self):
        matrix = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        pattern = SymmetricPattern.from_scipy(matrix)
        assert pattern.num_edges == 0
        assert bandwidth(pattern) == 0

    def test_two_isolated_vertices_plus_edge(self):
        pattern = SymmetricPattern.from_edges(4, [(1, 2)])
        report = reorder(pattern, algorithm="spectral", method="dense")
        assert sorted(report.ordering.perm.tolist()) == list(range(4))

    def test_empty_metrics(self):
        pattern = SymmetricPattern.empty(0)
        assert envelope_size(pattern) == 0
        assert frontwidths(pattern).size == 0
        stats = envelope_statistics(pattern)
        assert stats.n == 0 and stats.envelope_size == 0

    def test_compare_orderings_on_diagonal_matrix(self):
        result = compare_orderings(SymmetricPattern.empty(5), algorithms=("rcm", "gps"))
        assert all(row.envelope_size == 0 for row in result.to_rows())


class TestEigenFailureModes:
    def test_fiedler_on_single_vertex(self):
        with pytest.raises(ValueError):
            fiedler_vector(SymmetricPattern.empty(1))

    def test_fiedler_on_disconnected_is_explicit(self, disconnected_pattern):
        with pytest.raises(ValueError, match="disconnected"):
            fiedler_vector(disconnected_pattern)

    def test_multilevel_on_tiny_graph(self):
        with pytest.raises(ValueError):
            multilevel_fiedler(SymmetricPattern.empty(1))

    def test_fiedler_bad_method_message_lists_options(self, path10):
        with pytest.raises(ValueError, match="lanczos"):
            fiedler_vector(path10, method="power")


class TestFactorFailureModes:
    def test_cholesky_on_indefinite_matrix(self):
        a = sp.csr_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            envelope_cholesky(a)

    def test_cholesky_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            EnvelopeStorage.from_matrix(np.zeros((2, 3)))

    def test_solve_wrong_rhs_length(self, spd_grid_matrix):
        with pytest.raises(ValueError, match="shape"):
            envelope_solve(spd_grid_matrix, np.ones(5))

    def test_storage_get_out_of_range(self, spd_grid_matrix):
        storage = EnvelopeStorage.from_matrix(spd_grid_matrix)
        with pytest.raises(IndexError):
            storage.get(-1, 0)

    def test_ic0_on_zero_diagonal(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            incomplete_cholesky(a)

    def test_cg_on_indefinite_matrix_does_not_blow_up(self, rng):
        a = np.array([[1.0, 2.0], [2.0, -1.0]])
        result = conjugate_gradient(a, rng.standard_normal(2), max_iter=10)
        assert np.isfinite(result.x).all()


class TestIOFailureModes:
    def test_matrix_market_truncated_entries(self):
        text = "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n"
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO(text))

    def test_matrix_market_garbage(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("this is not a matrix\n1 2 3\n"))

    def test_harwell_boeing_truncated_data(self):
        lines = [
            f"{'broken':<72}{'KEY':<8}",
            f"{2:>14d}{1:>14d}{1:>14d}{0:>14d}{0:>14d}",
            f"{'PSA':<3}{'':11}{3:>14d}{3:>14d}{2:>14d}{0:>14d}",
            f"{'(10I10)':<16}{'(10I10)':<16}{'(4E24.16)':<20}{'':<20}",
            f"{1:>10d}{2:>10d}{3:>10d}{3:>10d}",
            # row-index card missing entirely
        ]
        with pytest.raises(ValueError, match="end of file"):
            read_harwell_boeing(io.StringIO("\n".join(lines) + "\n"))

    def test_nonexistent_file(self):
        with pytest.raises(OSError):
            read_matrix_market("/nonexistent/path/matrix.mtx")


class TestPipelineFailureModes:
    def test_reorder_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            reorder(np.zeros((3, 5)))

    def test_reorder_unknown_algorithm_lists_names(self, grid_8x6):
        with pytest.raises(KeyError, match="spectral"):
            reorder(grid_8x6, algorithm="does-not-exist")

    def test_cli_missing_file_raises_cleanly(self):
        from repro.cli import main

        with pytest.raises(OSError):
            main(["reorder", "/nonexistent/matrix.mtx"])

    def test_cli_unknown_problem(self, capsys):
        from repro.cli import main

        # structured error path: exit code 2 with the registry listing on
        # stderr, not a raw KeyError traceback
        assert main(["compare", "problem:NOSUCHMATRIX"]) == 2
        assert "unknown problem" in capsys.readouterr().err
