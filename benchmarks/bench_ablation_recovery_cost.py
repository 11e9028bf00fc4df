"""Ablation: the collection-vs-restart trade-off, measured functionally.

The paper's Section 3 premise: "a recovery mechanism may make collection of
recovery data relatively less expensive at the price of making recovery
from failures costly" — and the architectures deliberately optimize the
normal case.  This ablation quantifies the other side of that trade on the
functional engine: identical transaction histories run under every
manager, a crash is injected, and the *restart work* (stable page writes
performed during ``recover()``) is reported, alongside the collection work
(stable writes during normal processing).

Expected shape: shadow paging and version selection restart for free
(commit already installed everything atomically); no-undo overwriting
redoes committed-but-unapplied scratch copies; WAL pays redo for
committed-unflushed pages plus undo for stolen ones — the classic
spectrum.
"""

import random
from typing import Any, Dict

from benchmarks._harness import run_grid_bench
from repro.bench import Grid
from repro.storage import (
    CommandLoggingManager,
    DifferentialFileManager,
    DistributedWalManager,
    OverwriteVariant,
    OverwritingManager,
    RedoOnlyWalManager,
    ShadowPageTableManager,
    VersionSelectionManager,
)

SEED = 3

MANAGERS = {
    "wal-3-logs": lambda: DistributedWalManager(n_logs=3),
    "shadow-pt": lambda: ShadowPageTableManager(),
    "overwrite-no-undo": lambda: OverwritingManager(OverwriteVariant.NO_UNDO),
    "overwrite-no-redo": lambda: OverwritingManager(OverwriteVariant.NO_REDO),
    "version-selection": lambda: VersionSelectionManager(),
    "differential": lambda: DifferentialFileManager(),
    "command-logging": lambda: CommandLoggingManager(),
    "redo-only-wal": lambda: RedoOnlyWalManager(),
}


def recovery_cost_cell(params: Dict[str, Any], seed: int) -> Dict[str, int]:
    """Committed transfers plus an in-flight loser, then a crash."""
    manager = MANAGERS[params["manager"]]()
    n_txns, pages = 40, 32
    rng = random.Random(seed)
    for _ in range(n_txns):
        tid = manager.begin()
        for page in rng.sample(range(pages), 4):
            manager.write(tid, page, bytes([rng.randrange(256)]) * 8)
        manager.commit(tid)
    loser = manager.begin()
    for page in rng.sample(range(pages), 4):
        manager.write(loser, page, b"uncommitted")
    if hasattr(manager, "flush_page"):
        manager.flush_page(next(iter(manager.dirty_pages)))  # a steal
    collection_writes = manager.stable.page_writes
    collection_appends = manager.stable.records_appended
    manager.crash()
    before = manager.stable.page_writes
    manager.recover()
    return {
        "collection_page_writes": collection_writes,
        "collection_appends": collection_appends,
        "restart_page_writes": manager.stable.page_writes - before,
    }


GRID = Grid(
    name="ablation_recovery_cost",
    title="Ablation: collection work vs restart work (identical history)",
    seed=SEED,
    runner=recovery_cost_cell,
    parameters={"manager": list(MANAGERS)},
    primary_metric="restart_page_writes",
)


def test_ablation_recovery_cost(benchmark):
    result = run_grid_bench(
        benchmark,
        GRID,
        "Paper (Section 3):\n"
        "  'the focus of an implementation should be on making the normal\n"
        "   case efficient ... even if it meant making recovery from a\n"
        "   failure more expensive'",
    )
    # Shadow / version selection restart without touching data pages.
    assert result.metric(manager="shadow-pt") == 0
    assert result.metric(manager="version-selection") == 0
    # WAL must do restart work here (redo of unflushed committed pages).
    assert result.metric(manager="wal-3-logs") > 0
    # The modern redo-only designs also pay restart redo (their committed
    # pages sat behind the no-steal gate), but never undo: the in-flight
    # loser's steal attempt was gated, so nothing of it reached disk.
    assert result.metric(manager="command-logging") > 0
    assert result.metric(manager="redo-only-wal") > 0
