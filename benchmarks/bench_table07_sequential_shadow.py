"""Table 7: sequential transactions under the shadow variants.

Expected shape: clustered thru-page-table tracks the bare machine;
*scrambled* placement (logical adjacency lost) roughly doubles conventional
cost and collapses parallel-access performance by ~10x; overwriting is
expensive on conventional disks but stays close to bare on parallel-access
disks (its scratch reads and overwrites batch into few accesses).
"""

from benchmarks._harness import (
    BENCH_SEED,
    run_grid_bench,
    table_grid,
    table_text,
)

GRID = table_grid(
    "table07",
    "table7",
    primary_metric="mean.clustered",
    seed=BENCH_SEED,
)


def test_table7_sequential_shadow(benchmark):
    result = run_grid_bench(benchmark, GRID, text_fn=table_text)
    rows = {
        row["configuration"]: row for row in result.cells[0].detail["rows"]
    }
    conv = rows["conventional-sequential"]
    par = rows["parallel-sequential"]
    assert conv["scrambled"] > 1.5 * conv["clustered"]
    assert par["scrambled"] > 4 * par["bare"]          # the 10x collapse
    assert par["overwriting"] < 0.4 * par["scrambled"]  # overwriting wins back
    assert conv["overwriting"] > 1.3 * conv["bare"]
