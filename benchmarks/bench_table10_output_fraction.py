"""Table 10: effect of the output fraction (differential files, optimal).

Expected shape: execution time grows only slightly as the output fraction
rises from 10 % to 50 % — page fragmentation means small fractions already
pay for mostly-empty output pages, the paper's explanation for the
sublinear growth.
"""

from benchmarks._harness import (
    BENCH_SEED,
    run_grid_bench,
    table_grid,
    table_text,
)

GRID = table_grid(
    "table10",
    "table10",
    primary_metric="mean.output_20pct",
    seed=BENCH_SEED,
)


def test_table10_output_fraction(benchmark):
    result = run_grid_bench(benchmark, GRID, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        # Quintupling the output fraction costs far less than 5x.
        assert row["output_50pct"] < 1.35 * row["output_10pct"], row
        assert row["output_10pct"] >= row["bare"] * 0.95
