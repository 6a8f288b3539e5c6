"""Unit tests for the Lanczos eigensolver (repro.eigen.lanczos)."""

import numpy as np
import pytest

from repro.collections.generators import random_geometric_pattern
from repro.collections.meshes import cycle_pattern, grid2d_pattern, path_pattern
from repro.eigen.lanczos import deflate_constant, lanczos_smallest_nontrivial
from repro.graph.laplacian import laplacian_matrix


def _dense_lambda2(pattern):
    values = np.linalg.eigvalsh(laplacian_matrix(pattern).toarray())
    return float(values[1])


class TestDeflateConstant:
    def test_removes_mean(self):
        x = np.array([1.0, 2.0, 3.0])
        assert abs(deflate_constant(x).sum()) < 1e-14

    def test_idempotent(self):
        x = np.random.default_rng(0).standard_normal(20)
        once = deflate_constant(x)
        np.testing.assert_allclose(deflate_constant(once), once)


class TestLanczosSmallestNontrivial:
    @pytest.mark.parametrize("n", [5, 16, 37])
    def test_path_graph_eigenvalue(self, n):
        pattern = path_pattern(n)
        result = lanczos_smallest_nontrivial(laplacian_matrix(pattern), tol=1e-10)
        expected = 2.0 - 2.0 * np.cos(np.pi / n)
        assert result.converged
        assert result.eigenvalue == pytest.approx(expected, rel=1e-6)

    def test_cycle_graph_eigenvalue(self):
        n = 24
        result = lanczos_smallest_nontrivial(laplacian_matrix(cycle_pattern(n)), tol=1e-10)
        expected = 2.0 - 2.0 * np.cos(2.0 * np.pi / n)
        assert result.eigenvalue == pytest.approx(expected, rel=1e-6)

    def test_grid_matches_dense(self):
        pattern = grid2d_pattern(9, 7)
        result = lanczos_smallest_nontrivial(laplacian_matrix(pattern), tol=1e-10)
        assert result.eigenvalue == pytest.approx(_dense_lambda2(pattern), rel=1e-6)

    def test_geometric_graph_matches_dense(self):
        pattern = random_geometric_pattern(150, seed=2)
        result = lanczos_smallest_nontrivial(laplacian_matrix(pattern), tol=1e-9)
        assert result.eigenvalue == pytest.approx(_dense_lambda2(pattern), rel=1e-5)

    def test_eigenvector_residual(self, grid_8x6):
        lap = laplacian_matrix(grid_8x6)
        result = lanczos_smallest_nontrivial(lap, tol=1e-10)
        residual = np.linalg.norm(lap @ result.eigenvector - result.eigenvalue * result.eigenvector)
        assert residual < 1e-7
        assert result.residual_norm == pytest.approx(residual, rel=1e-6)

    def test_eigenvector_orthogonal_to_constant(self, grid_8x6):
        result = lanczos_smallest_nontrivial(laplacian_matrix(grid_8x6))
        assert abs(result.eigenvector.sum()) < 1e-8

    def test_eigenvector_unit_norm(self, grid_8x6):
        result = lanczos_smallest_nontrivial(laplacian_matrix(grid_8x6))
        assert np.linalg.norm(result.eigenvector) == pytest.approx(1.0, abs=1e-10)

    def test_good_start_vector_converges(self, grid_8x6):
        lap = laplacian_matrix(grid_8x6)
        exact = np.linalg.eigh(lap.toarray())[1][:, 1]
        result = lanczos_smallest_nontrivial(lap, start=exact, tol=1e-10)
        assert result.converged

    def test_deterministic_given_seed(self, grid_8x6):
        lap = laplacian_matrix(grid_8x6)
        a = lanczos_smallest_nontrivial(lap, rng=5)
        b = lanczos_smallest_nontrivial(lap, rng=5)
        assert a.eigenvalue == b.eigenvalue
        np.testing.assert_allclose(a.eigenvector, b.eigenvector)

    def test_sparse_and_operator_inputs_agree_bitwise(self, grid_8x6):
        # A CSR Laplacian runs ``op @ v``; an operator runs its own matvec.
        # Both are scipy's CSR product, so the recurrence is identical.
        import scipy.sparse.linalg as spla

        lap = laplacian_matrix(grid_8x6).tocsr()
        a = lanczos_smallest_nontrivial(lap, rng=5)
        b = lanczos_smallest_nontrivial(spla.aslinearoperator(lap), rng=5)
        assert a.eigenvalue == b.eigenvalue
        assert np.array_equal(a.eigenvector, b.eigenvector)

    def test_dense_input_accepted(self, path10):
        lap = laplacian_matrix(path10).toarray()
        result = lanczos_smallest_nontrivial(lap, tol=1e-10)
        assert result.eigenvalue == pytest.approx(2.0 - 2.0 * np.cos(np.pi / 10), rel=1e-6)

    def test_too_small_matrix_rejected(self):
        with pytest.raises(ValueError):
            lanczos_smallest_nontrivial(np.zeros((1, 1)))

    def test_two_vertex_graph(self):
        pattern = path_pattern(2)
        result = lanczos_smallest_nontrivial(laplacian_matrix(pattern), tol=1e-12)
        assert result.eigenvalue == pytest.approx(2.0, rel=1e-8)

    def test_disconnected_graph_gives_zero(self, disconnected_pattern):
        # With two or more components, the smallest nontrivial eigenvalue of
        # the Laplacian restricted to 1-perp is 0 (another null vector exists).
        result = lanczos_smallest_nontrivial(
            laplacian_matrix(disconnected_pattern), tol=1e-8
        )
        assert result.eigenvalue == pytest.approx(0.0, abs=1e-6)
