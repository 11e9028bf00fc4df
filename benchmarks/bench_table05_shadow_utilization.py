"""Table 5: average utilization of data and page-table disks.

Expected shape (paper's numbers in parentheses): with one PT processor on
a random load the PT disk saturates (1.00) while the data disks starve
(0.86); with two PT processors the PT utilization halves (0.60); on
sequential loads the PT disk is nearly idle (0.06).
"""

from benchmarks._harness import (
    BENCH_SEED,
    run_grid_bench,
    table_grid,
    table_text,
)

GRID = table_grid(
    "table05",
    "table5",
    primary_metric="mean.1ptp_pt",
    seed=BENCH_SEED,
)


def test_table5_shadow_utilization(benchmark):
    result = run_grid_bench(benchmark, GRID, text_fn=table_text)
    rows = {
        row["configuration"]: row for row in result.cells[0].detail["rows"]
    }
    rand = rows["conventional-random"]
    assert rand["1ptp_pt"] > 0.9          # PT disk saturated
    assert rand["1ptp_data"] < rand["bare_data"] - 0.05  # data disks starve
    assert rand["2ptp_pt"] < rand["1ptp_pt"] - 0.2       # relief with 2 procs
    assert rows["conventional-sequential"]["1ptp_pt"] < 0.2
