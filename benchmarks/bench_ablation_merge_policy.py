"""Ablation: the differential-file merge policy the paper left unmodeled.

Section 4.3.3: "the differential relations will have to be frequently
merged with the base relation.  In our simulation, we have not modeled the
effect of merging ... we did not feel that it was worthwhile exploring the
cost of this operation."  This ablation explores it: two Table 11-style
runs give the measured per-transaction overhead slope, a sequential-sweep
model prices one merge, and the square-root law yields the optimal merge
interval.  Expected shape: merging a 1985 database costs simulated
minutes, so the optimal interval is thousands of transactions — consistent
with the paper's decision that per-run merge effects were ignorable, while
confirming its warning that letting the files grow past ~10 % is ruinous.
"""

from typing import Any, Dict

from benchmarks._harness import (
    BENCH_SEED,
    BENCH_SETTINGS,
    run_grid_bench,
)
from repro.analysis.merge_policy import (
    merge_cost_ms,
    optimal_merge_interval,
    overhead_slope_ms_per_txn,
)
from repro.bench import Grid
from repro.core import DifferentialConfig, DifferentialFileArchitecture
from repro.experiments import CONFIGURATIONS, run_configuration
from repro.machine import MachineConfig


def merge_policy_cell(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    config = MachineConfig()
    settings = BENCH_SETTINGS.with_overrides(seed=seed)
    small = run_configuration(
        CONFIGURATIONS["conventional-random"],
        lambda: DifferentialFileArchitecture(DifferentialConfig(size_fraction=0.10)),
        settings,
    )
    large = run_configuration(
        CONFIGURATIONS["conventional-random"],
        lambda: DifferentialFileArchitecture(DifferentialConfig(size_fraction=0.20)),
        settings,
    )
    appends_per_txn = large.counter("pages_appended") / large.n_transactions
    slope = overhead_slope_ms_per_txn(small, large, appends_per_txn, config.db_pages)
    merge = merge_cost_ms(config)
    return {
        "merge_cost_ms": round(merge, 6),
        "appends_per_txn": round(appends_per_txn, 6),
        "overhead_slope_ms_per_txn2": round(slope, 9),
        "optimal_interval_txns": round(optimal_merge_interval(merge, slope), 6),
    }


GRID = Grid(
    name="ablation_merge_policy",
    title="Ablation: differential-file merge policy (square-root law)",
    seed=BENCH_SEED,
    runner=merge_policy_cell,
    primary_metric="optimal_interval_txns",
    higher_is_better=True,
)


def test_ablation_merge_policy(benchmark):
    result = run_grid_bench(
        benchmark,
        GRID,
        "Paper (Section 4.3.3):\n"
        "  'the differential relations will have to be frequently merged\n"
        "   with the base relation.  In our simulation, we have not\n"
        "   modeled the effect of merging'",
    )
    assert result.metric("merge_cost_ms") > 60_000   # minutes of simulated time
    assert result.metric("optimal_interval_txns") > 100  # merges are rare events
