"""Tests for the fidelity scorer, plus calibration regression guards.

The regression guards are the repository's early-warning system: a model
change that silently drifts the calibration away from the paper fails
here before it fails a reviewer.
"""

import pytest

from repro.cli import main
from repro.experiments import ExperimentSettings
from repro.experiments.fidelity import (
    CellComparison,
    FidelityReport,
    fidelity_summary,
    pair_cells,
)
from repro.experiments.tables import TABLES, paper_rows

QUICK = ExperimentSettings(n_transactions=12)


class TestScoringMechanics:
    def test_relative_error(self):
        cell = CellComparison("t", "c", measured=11.0, paper=10.0)
        assert cell.relative_error == pytest.approx(0.1)

    def test_zero_paper_value(self):
        assert CellComparison("t", "c", 0.0, 0.0).relative_error == 0.0
        assert CellComparison("t", "c", 1.0, 0.0).relative_error == 1.0

    def test_report_aggregates(self):
        report = FidelityReport(
            [
                CellComparison("a", "x", 11.0, 10.0),
                CellComparison("a", "y", 12.0, 10.0),
                CellComparison("b", "z", 10.0, 10.0),
            ]
        )
        assert report.mean_relative_error == pytest.approx(0.1)
        assert report.by_table() == {"a": pytest.approx(0.15), "b": 0.0}
        assert report.worst(1)[0].cell == "y"

    def test_render(self):
        report = FidelityReport([CellComparison("a", "x", 11.0, 10.0)])
        text = report.render()
        assert "1 paper cells" in text
        assert "10.0%" in text

    def test_empty_report(self):
        assert FidelityReport([]).mean_relative_error == 0.0

    def test_paper_rows_pair_with_themselves(self):
        """The generic pairing, with no simulation: PAPER scores itself."""
        report = FidelityReport(
            [cell for entry in TABLES for cell in pair_cells(entry, paper_rows(entry))]
        )
        assert len(report.cells) == 122
        assert report.mean_relative_error == 0.0
        counts = {}
        for cell in report.cells:
            counts[cell.table] = counts.get(cell.table, 0) + 1
        assert counts == {
            "table1": 8, "table2": 4, "table4": 12, "table6": 8, "table7": 8,
            "table8": 6, "table9": 12, "table10": 16, "table11": 16, "table12": 32,
        }


class TestCalibrationRegression:
    """Quick-run fidelity must stay within honest bounds.  Thresholds are
    loose enough for 12-transaction sampling noise but tight enough to
    catch a recalibration accident (these sat near 6-10 % when written)."""

    def test_logging_tables_track_paper(self):
        report = fidelity_summary(QUICK, tables=("table1",))
        assert report.mean_relative_error < 0.15

    def test_shadow_tables_track_paper(self):
        report = fidelity_summary(QUICK, tables=("table6", "table8"))
        assert report.mean_relative_error < 0.20

    def test_differential_tables_track_paper(self):
        report = fidelity_summary(QUICK, tables=("table9",))
        assert report.mean_relative_error < 0.20

    def test_cell_count_complete(self):
        report = fidelity_summary(QUICK, tables=("table1", "table8"))
        # Table 1 pairs 8 cells (4 configs x with/without); Table 8 six.
        assert len(report.cells) == 14


class TestCliFidelity:
    def test_fidelity_command(self, capsys):
        assert main(["fidelity", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "mean |relative error|" in out
        assert "worst cells:" in out
