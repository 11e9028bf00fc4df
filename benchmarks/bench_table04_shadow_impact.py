"""Table 4: impact of the shadow mechanism (1 vs 2 page-table processors).

Expected shape: with one PT processor the random configurations degrade
(the PT disk becomes the bottleneck); a second PT processor annuls the
degradation; sequential loads touch at most two PT pages per transaction
and barely notice the mechanism.
"""

from benchmarks._harness import (
    BENCH_SEED,
    run_grid_bench,
    table_grid,
    table_text,
)

GRID = table_grid(
    "table04",
    "table4",
    primary_metric="mean.exec_1ptp",
    seed=BENCH_SEED,
)


def test_table4_shadow_impact(benchmark):
    result = run_grid_bench(benchmark, GRID, text_fn=table_text)
    rows = {
        row["configuration"]: row for row in result.cells[0].detail["rows"]
    }
    rand = rows["conventional-random"]
    assert rand["exec_1ptp"] > 1.04 * rand["exec_bare"]
    assert rand["exec_2ptp"] < rand["exec_1ptp"]
    seq = rows["conventional-sequential"]
    assert seq["exec_1ptp"] <= 1.10 * seq["exec_bare"]
