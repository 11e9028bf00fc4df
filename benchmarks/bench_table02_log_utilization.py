"""Table 2: log-disk utilization with one log processor.

Expected shape: the single log disk is almost idle (paper: 0.02 in three
configurations, 0.13 for parallel-sequential) — the data-page rate simply
cannot keep a log disk busy, the paper's argument that one log disk
suffices.
"""

from benchmarks._harness import (
    BENCH_SEED,
    run_grid_bench,
    table_grid,
    table_text,
)

GRID = table_grid(
    "table02",
    "table2",
    primary_metric="mean.log_disk_utilization",
    seed=BENCH_SEED,
)


def test_table2_log_utilization(benchmark):
    result = run_grid_bench(benchmark, GRID, text_fn=table_text)
    rows = result.cells[0].detail["rows"]
    by_config = {row["configuration"]: row for row in rows}
    assert by_config["conventional-random"]["log_disk_utilization"] < 0.08
    assert (
        by_config["parallel-sequential"]["log_disk_utilization"]
        > by_config["conventional-random"]["log_disk_utilization"]
    )
