"""Integration tests reproducing the paper's qualitative findings end to end.

These are the "shape" checks of the evaluation section on laptop-sized
surrogates:

* Section 4 / Tables 4.1-4.3 — the spectral ordering usually gives the
  smallest envelope of the four algorithms, and wins clearly on unstructured
  meshes (BARTH4 family), while GPS/RCM give smaller bandwidths;
* Table 4.4 — envelope factorization work tracks the envelope size, so the
  spectral reordering reduces factorization cost versus RCM whenever it
  reduces the envelope;
* Figures 4.1-4.5 — the spectral reordering produces a visibly different
  nonzero profile from the local (GK/GPS/RCM) reorderings.
"""

import numpy as np
import pytest

from repro.analysis.spy import band_profile, density_grid
from repro.collections.registry import load_problem
from repro.envelope.metrics import envelope_size
from repro.factor.cholesky import envelope_cholesky
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.pipeline import compare_orderings

SCALE = 0.03  # tiny surrogates keep the integration suite fast
BARTH4_SCALE = 0.08  # the BARTH4 shape checks need a slightly larger mesh for
                     # the spectral-vs-RCM margin to emerge clearly


@pytest.fixture(scope="module")
def barth4():
    pattern, spec = load_problem("BARTH4", scale=BARTH4_SCALE)
    return pattern


@pytest.fixture(scope="module")
def barth4_comparison(barth4):
    return compare_orderings(barth4, problem="BARTH4")


class TestTableShape:
    def test_barth4_spectral_wins_envelope(self, barth4_comparison):
        """Table 4.3: SPECTRAL has rank 1 on BARTH4 by a wide margin."""
        rows = {r.algorithm: r for r in barth4_comparison.to_rows()}
        assert rows["spectral"].rank == 1
        assert rows["spectral"].envelope_size < rows["rcm"].envelope_size
        assert rows["spectral"].envelope_size < rows["gps"].envelope_size
        assert rows["spectral"].envelope_size < rows["gk"].envelope_size

    def test_barth4_margin_is_substantial(self, barth4_comparison):
        """The paper reports a ~2x envelope reduction vs RCM on BARTH4."""
        rows = {r.algorithm: r for r in barth4_comparison.to_rows()}
        assert rows["rcm"].envelope_size >= 1.3 * rows["spectral"].envelope_size

    def test_local_methods_win_bandwidth(self, barth4_comparison):
        """Section 4: 'the bandwidths of the spectral reorderings are often
        much greater than those of the other reorderings'."""
        rows = {r.algorithm: r for r in barth4_comparison.to_rows()}
        best_local_bw = min(rows["gps"].bandwidth, rows["gk"].bandwidth, rows["rcm"].bandwidth)
        assert rows["spectral"].bandwidth >= best_local_bw

    def test_power_network_spectral_wins(self):
        """Table 4.2: POW9 shows the largest spectral advantage (>2x vs RCM)."""
        pattern, _ = load_problem("POW9", scale=SCALE)
        result = compare_orderings(pattern, problem="POW9")
        rows = {r.algorithm: r for r in result.to_rows()}
        assert rows["spectral"].envelope_size < rows["rcm"].envelope_size

    def test_every_algorithm_beats_random_on_misc_suite(self):
        for name in ("DWT2680", "BLKHOLE"):
            pattern, _ = load_problem(name, scale=SCALE)
            random_env = envelope_size(
                pattern, ORDERING_ALGORITHMS["random"](pattern, rng=0).perm
            )
            for algorithm in ("spectral", "gk", "gps", "rcm"):
                ordering = ORDERING_ALGORITHMS[algorithm](pattern)
                assert envelope_size(pattern, ordering.perm) < random_env


class TestFactorizationShape:
    def test_factor_cost_tracks_envelope(self, barth4):
        """Table 4.4: the envelope factorization cost is driven by the
        envelope size, so the spectral reordering reduces it versus RCM."""
        matrix = barth4.to_scipy("spd")
        results = {}
        for name in ("spectral", "rcm"):
            ordering = ORDERING_ALGORITHMS[name](barth4)
            chol = envelope_cholesky(matrix, perm=ordering.perm)
            results[name] = (envelope_size(barth4, ordering.perm), chol.operations)
        assert results["spectral"][0] < results["rcm"][0]
        assert results["spectral"][1] < results["rcm"][1]

    def test_solution_correct_under_both_orderings(self, barth4):
        matrix = barth4.to_scipy("spd")
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(barth4.n)
        b = matrix @ x_true
        from repro.factor.solve import envelope_solve

        for name in ("spectral", "rcm"):
            ordering = ORDERING_ALGORITHMS[name](barth4)
            result = envelope_solve(matrix, b, ordering=ordering)
            np.testing.assert_allclose(result.x, x_true, atol=1e-6)


class TestFigureShape:
    def test_spectral_profile_differs_from_local_profiles(self, barth4, barth4_comparison):
        """Figures 4.2-4.5: GK/GPS/RCM spy plots look alike; SPECTRAL's differs."""
        grids = {
            record.algorithm: density_grid(barth4, record.ordering.perm, resolution=16).astype(float)
            for record in barth4_comparison.records
        }

        def distance(a, b):
            return np.abs(grids[a] - grids[b]).sum()

        local_spread = max(distance("gps", "rcm"), distance("gps", "gk"), distance("gk", "rcm"))
        spectral_gap = min(distance("spectral", x) for x in ("gps", "gk", "rcm"))
        assert spectral_gap > 0
        assert spectral_gap >= 0.5 * local_spread

    def test_band_profiles_quantify_figures(self, barth4, barth4_comparison):
        profiles = {
            record.algorithm: band_profile(barth4, record.ordering.perm)
            for record in barth4_comparison.records
        }
        # Spectral: smaller area (envelope), usually wider extreme rows.
        assert profiles["spectral"]["envelope_size"] <= profiles["rcm"]["envelope_size"]
        assert profiles["spectral"]["mean_row_width"] <= profiles["rcm"]["mean_row_width"]
