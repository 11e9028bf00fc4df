"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.experiments.tables import ABLATIONS, TABLES
from repro.faults import ARCHITECTURES, FaultKind, FaultPlan, FaultSpec


class TestCli:
    def test_tables_lists_all_experiments(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for entry in TABLES:
            assert f"table {entry.number:>2}:" in out
        for entry in ABLATIONS:
            assert f"ablation {entry.key}:" in out

    def test_table_runs_and_prints(self, capsys):
        assert main(["table", "2", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "log_disk_utilization" in out

    def test_table_seed_changes_output(self, capsys):
        main(["table", "2", "-n", "4", "--seed", "1"])
        first = capsys.readouterr().out
        main(["table", "2", "-n", "4", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "13"])

    def test_report_rejects_unknown_table(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "-t", "13"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_ablation_runs(self, capsys):
        assert main(["ablation", "overwriting-variants", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "no_undo" in out

    def test_predict_reports_bottleneck(self, capsys):
        assert main(["predict"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck    : data-disks" in out
        assert "ms/page" in out

    def test_predict_parallel_sequential_cpu_bound(self, capsys):
        assert main(["predict", "--parallel", "--sequential"]) == 0
        out = capsys.readouterr().out
        assert "query-processors" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCommand:
    def test_trace_prints_flame_and_writes_valid_json(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--arch", "logging", "-n", "4",
                     "-o", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical resource" in out
        assert "p99" in out
        events = json.loads(path.read_text())
        assert any(e.get("ph") == "X" for e in events)
        assert str(path) in out

    def test_trace_timeline_flag(self, capsys):
        assert main(["trace", "--arch", "logging", "-n", "3", "--timeline"]) == 0
        assert "phase legend" in capsys.readouterr().out

    def test_trace_all_architectures(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--arch", "all", "-n", "2", "-o", str(path)]) == 0
        out = capsys.readouterr().out
        for arch in ("bare", "logging", "shadow-pt", "version-selection",
                     "overwriting", "differential"):
            assert arch in out
            assert (tmp_path / f"trace.{arch}.json").exists()

    def test_trace_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            main(["trace", "--arch", "nonesuch"])

    def test_trace_diff_attributes_gap(self, capsys):
        assert main(["trace-diff", "logging", "shadow-pt", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean completion" in out
        assert "delta" in out
        assert "total" in out


class TestCrashtestCommand:
    def test_single_arch_sweep_passes(self, capsys):
        assert main(["crashtest", "--arch", "wal", "--seed", "7",
                     "--budget", "6", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "wal" in out
        assert "ok" in out

    def test_all_archs_and_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["crashtest", "--seed", "11", "--budget", "3", "-n", "3",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert sorted(data) == sorted(ARCHITECTURES)
        for report in data.values():
            assert report["violations"] == []

    def test_plan_replay_roundtrip(self, capsys, tmp_path):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="*", occurrence=9), seed=7
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert main(["crashtest", "--arch", "shadow", "--seed", "7", "-n", "4",
                     "--plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "crashed_at" in out

    def test_plan_replay_requires_single_arch(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.of(seed=1).to_json())
        assert main(["crashtest", "--plan", str(path)]) == 2
