"""Tests of compare_orderings (repro.pipeline), the batch engine's one-matrix path."""

import pytest

from repro.batch import run_suite
from repro.collections.registry import load_problem
from repro.envelope.metrics import envelope_size
from repro.pipeline import compare_orderings

CELL_ALGORITHMS = ("rcm", "gps", "gk", "sloan", "spectral", "hybrid")


class TestCompareOrderingsRecords:
    def test_default_paper_algorithms(self, grid_8x6):
        result = compare_orderings(grid_8x6, problem="grid")
        assert {r.algorithm for r in result.to_rows()} == {"spectral", "gk", "gps", "rcm"}
        assert result.problems == ["grid"]
        assert all(record.ok and record.time_s >= 0 for record in result.records)

    def test_winner_has_rank_one(self, geometric200):
        result = compare_orderings(geometric200, algorithms=("spectral", "rcm"), problem="geo")
        rows = {r.algorithm: r for r in result.to_rows()}
        winner_row = rows[result.winners()["geo"]]
        assert winner_row.rank == 1
        assert winner_row.envelope_size == min(r.envelope_size for r in rows.values())

    def test_rows_match_orderings(self, grid_8x6):
        result = compare_orderings(grid_8x6, algorithms=("rcm",), problem="grid")
        (row,) = result.to_rows()
        ordering = result.record_for("grid", "rcm").ordering
        assert row.envelope_size == envelope_size(grid_8x6, ordering.perm)

    def test_record_for_missing_algorithm(self, grid_8x6):
        result = compare_orderings(grid_8x6, algorithms=("rcm",))
        with pytest.raises(KeyError):
            result.record_for("problem", "gps")

    def test_algorithm_options_forwarded(self, grid_8x6):
        result = compare_orderings(
            grid_8x6,
            algorithms=("spectral",),
            algorithm_options={"spectral": {"method": "dense"}},
        )
        assert result.record_for("problem", "spectral").ordering.metadata["solver"] == "dense"

    def test_to_text_is_table(self, grid_8x6):
        result = compare_orderings(grid_8x6, algorithms=("rcm", "gps"), problem="grid")
        text = result.to_text()
        assert "RCM" in text and "GPS" in text and "Rank" in text

    def test_unknown_algorithm_raises(self, grid_8x6):
        with pytest.raises(KeyError):
            compare_orderings(grid_8x6, algorithms=("rcm", "amd"))


@pytest.mark.parametrize("problem", ["POW9", "BARTH4"])
def test_one_path_for_a_cell(problem):
    """compare_orderings on a registered problem's pattern computes the very
    records a ``run_suite`` of that problem does (canonical form)."""
    pattern, _spec = load_problem(problem, scale=0.05)
    single = compare_orderings(pattern, CELL_ALGORITHMS, problem=problem)
    suite = run_suite([problem], CELL_ALGORITHMS, scale=0.05)
    assert [r.to_dict(include_timing=False) for r in single.records] == [
        r.to_dict(include_timing=False) for r in suite.records
    ]
