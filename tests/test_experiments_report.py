"""Tests for the measured-vs-paper report generator."""

import pytest

from repro.cli import main
from repro.experiments import ExperimentSettings
from repro.experiments.report import generate_report
from repro.experiments.tables import TABLES

TINY = ExperimentSettings(n_transactions=4)


class TestGenerateReport:
    def test_registry_covers_all_twelve_tables(self):
        assert [entry.number for entry in TABLES] == list(range(1, 13))

    def test_single_table_report(self):
        text = generate_report(TINY, tables=[2])
        assert "## Table 2" in text
        assert "## Table 1" not in text
        assert "Paper reference values:" in text

    def test_report_mentions_settings(self):
        text = generate_report(TINY, tables=[2])
        assert "4 transactions per run" in text

    def test_multiple_tables_in_order(self):
        text = generate_report(TINY, tables=[7, 2])
        assert text.index("## Table 2") < text.index("## Table 7")


class TestCliReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "-n", "4", "-t", "2"]) == 0
        out = capsys.readouterr().out
        assert "# Measured-vs-paper report" in out
        assert "Table 2" in out

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["report", "-n", "4", "-t", "2", "-o", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "## Table 2" in path.read_text()

    def test_repeatable_table_flag(self, capsys):
        assert main(["report", "-n", "4", "-t", "2", "-t", "8"]) == 0
        out = capsys.readouterr().out
        assert "## Table 2" in out and "## Table 8" in out
