"""Unit tests for the comparison-table reporting (repro.analysis.report)."""

from repro.analysis.report import ComparisonRow, format_table, rank_by, rows_from_records
from repro.envelope.metrics import envelope_size
from repro.pipeline import compare_orderings


def _rows():
    return [
        ComparisonRow("p", "a", 10, 30, 100, 1000, 9, 0.1),
        ComparisonRow("p", "b", 10, 30, 80, 900, 12, 0.2),
        ComparisonRow("p", "c", 10, 30, 120, 1500, 7, 0.05),
    ]


class TestRankBy:
    def test_rank_by_envelope(self):
        ranked = {r.algorithm: r.rank for r in rank_by(_rows())}
        assert ranked == {"b": 1, "a": 2, "c": 3}

    def test_rank_by_bandwidth(self):
        ranked = {r.algorithm: r.rank for r in rank_by(_rows(), key="bandwidth")}
        assert ranked == {"c": 1, "a": 2, "b": 3}

    def test_ranks_are_per_problem(self):
        rows = _rows() + [ComparisonRow("q", "a", 5, 10, 50, 100, 3, 0.0)]
        ranked = rank_by(rows)
        q_rows = [r for r in ranked if r.problem == "q"]
        assert len(q_rows) == 1 and q_rows[0].rank == 1


class TestRowsFromRecords:
    def test_rows_match_metrics_and_run_times(self, grid_8x6):
        result = compare_orderings(
            grid_8x6,
            algorithms=("spectral", "rcm", "gps", "identity"),
            problem="grid",
            algorithm_options={"spectral": {"method": "dense"}},
        )
        rows = rows_from_records(result.records)
        assert len(rows) == 4
        for row in rows:
            record = result.record_for("grid", row.algorithm)
            assert row.envelope_size == envelope_size(grid_8x6, record.ordering.perm)
            assert row.run_time == record.time_s
        assert sorted(r.rank for r in rows) == [1, 2, 3, 4]


class TestFormatTable:
    def test_contains_all_algorithms_and_title(self, grid_8x6):
        rows = compare_orderings(grid_8x6, algorithms=("rcm", "gps"), problem="grid_8x6").to_rows()
        text = format_table(rows, title="Table test")
        assert "Table test" in text
        assert "RCM" in text and "GPS" in text
        assert "grid_8x6" in text

    def test_problem_name_not_repeated(self):
        text = format_table(rank_by(_rows()))
        assert text.count("p ") <= 2  # the problem label appears once in the body
