"""Ablation (paper Section 3.1): checkpointing in parallel, no quiescing.

The paper claims (deferring details to ref [13]) that system checkpointing
"can be performed in parallel with the normal data processing and logging
activities without complete system quiescing".  This ablation runs the
logging architecture with background checkpoints at increasingly aggressive
intervals.  Expected shape: throughput does not move — each checkpoint is
one forced partial log page plus one checkpoint page per log disk, fully
overlapped with data-page processing.
"""

from benchmarks._harness import (
    BENCH_SEED,
    run_grid_bench,
    table_grid,
    table_text,
)

GRID = table_grid(
    "ablation_checkpointing",
    "checkpointing",
    primary_metric="mean.every_500ms",
    seed=BENCH_SEED,
)


def test_ablation_checkpointing(benchmark):
    result = run_grid_bench(benchmark, GRID, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        assert row["every_500ms"] <= 1.06 * row["no_checkpoints"], row
