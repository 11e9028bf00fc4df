"""Ablation: restart time after a crash, priced on 1985 hardware.

Complements ``bench_ablation_recovery_cost`` (which counts restart *work*
in the functional engine) by pricing each architecture's restart in
milliseconds: identical timed runs produce their actual recovery-data
volumes, and the estimator charges the simulated disks for scanning and
re-applying them.  Expected shape — the paper's Section 3 trade-off:
parallel logging, the normal-case winner, pays the largest restart bill;
shadow paging and version selection restart essentially for free.
"""

from typing import Any, Dict

from benchmarks._harness import (
    BENCH_SEED,
    BENCH_SETTINGS,
    run_grid_bench,
)
from repro.analysis import estimate_restart
from repro.bench import Grid
from repro.core import (
    CommandLoggingArchitecture,
    DifferentialFileArchitecture,
    LoggingConfig,
    OverwritingArchitecture,
    OverwritingMode,
    PageTableShadowArchitecture,
    ParallelLoggingArchitecture,
    RedoOnlyWalArchitecture,
    VersionSelectionArchitecture,
)
from repro.core.modern.command import COMMAND_FRAGMENT_BYTES
from repro.experiments import CONFIGURATIONS, run_configuration
from repro.machine import MachineConfig

ARCHITECTURES = {
    "logging (1 log disk)": (
        lambda: ParallelLoggingArchitecture(LoggingConfig()),
        {"n_log_disks": 1},
    ),
    "logging (3 log disks)": (
        lambda: ParallelLoggingArchitecture(LoggingConfig(n_log_processors=3)),
        {"n_log_disks": 3},
    ),
    "shadow-pt": (lambda: PageTableShadowArchitecture(), {}),
    "overwriting no-undo": (
        lambda: OverwritingArchitecture(OverwritingMode.NO_UNDO),
        {},
    ),
    "overwriting no-redo": (
        lambda: OverwritingArchitecture(OverwritingMode.NO_REDO),
        {},
    ),
    "differential": (lambda: DifferentialFileArchitecture(), {}),
    "command-logging (3 log disks)": (
        lambda: CommandLoggingArchitecture(
            LoggingConfig(
                fragment_bytes=COMMAND_FRAGMENT_BYTES, n_log_processors=3
            )
        ),
        {"n_log_disks": 3},
    ),
    "redo-wal": (lambda: RedoOnlyWalArchitecture(), {}),
}


def restart_time_cell(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    factory, kwargs = ARCHITECTURES[params["architecture"]]
    result = run_configuration(
        CONFIGURATIONS["conventional-random"],
        factory,
        BENCH_SETTINGS.with_overrides(seed=seed),
    )
    estimate = estimate_restart(result, MachineConfig(), **kwargs)
    return {
        "scan_ms": round(estimate.scan_ms, 6),
        "redo_ms": round(estimate.redo_ms, 6),
        "undo_ms": round(estimate.undo_ms, 6),
        "total_ms": round(estimate.total_ms, 6),
    }


GRID = Grid(
    name="ablation_restart_time",
    title="Ablation: estimated restart time after a crash (conv-random run)",
    seed=BENCH_SEED,
    runner=restart_time_cell,
    parameters={"architecture": list(ARCHITECTURES)},
    primary_metric="total_ms",
)


def test_ablation_restart_time(benchmark):
    result = run_grid_bench(
        benchmark,
        GRID,
        "Paper (Section 3):\n"
        "  'a recovery mechanism may make collection of recovery data\n"
        "   relatively less expensive at the price of making recovery\n"
        "   from failures costly'",
    )
    assert result.metric(architecture="logging (1 log disk)") > result.metric(
        architecture="shadow-pt"
    )
    assert result.metric(
        "scan_ms", architecture="logging (3 log disks)"
    ) < result.metric("scan_ms", architecture="logging (1 log disk)")
    assert result.metric(architecture="differential") < 100.0
    # The modern designs never undo: command logging's no-steal gate and
    # the redo-only discipline keep uncommitted pages off the home disks.
    assert result.metric("undo_ms", architecture="redo-wal") == 0.0
    assert result.metric(
        "undo_ms", architecture="command-logging (3 log disks)"
    ) == 0.0
    # Wave replay across three log disks beats the single-stream redo.
    assert result.metric(
        "redo_ms", architecture="command-logging (3 log disks)"
    ) < result.metric("redo_ms", architecture="redo-wal")
