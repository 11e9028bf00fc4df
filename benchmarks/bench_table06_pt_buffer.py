"""Table 6: page-table buffer size annuls the shadow degradation.

Expected shape: with one PT processor and a 10-page buffer random loads
degrade; 25- and 50-page buffers progressively annul the degradation by
turning PT-disk reads into buffer hits (and avoiding commit-time rereads).
"""

from benchmarks._harness import (
    BENCH_SEED,
    run_grid_bench,
    table_grid,
    table_text,
)

GRID = table_grid(
    "table06",
    "table6",
    primary_metric="mean.buffer_50",
    seed=BENCH_SEED,
)


def test_table6_pt_buffer(benchmark):
    result = run_grid_bench(benchmark, GRID, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        assert row["buffer_10"] > row["bare"]          # small buffer hurts
        assert row["buffer_50"] < row["buffer_10"]     # big buffer recovers
        assert row["buffer_50"] <= 1.08 * row["bare"]  # ...nearly fully
