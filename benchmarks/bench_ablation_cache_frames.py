"""Ablation: cache-frame sensitivity (the anticipatory-reading argument).

The paper leans on cache-frame availability twice: "more cache frames were
available for anticipatory paging than the disks could feed" (Section
4.1.1, why logging's blocked pages are harmless) and "availability of
fewer cache frames severely affects the performance of the parallel-access
disks" (Section 4.1.2, why the Table 3 log bottleneck cascades).  This
ablation sweeps the frame count directly.  Expected shape: the
parallel-sequential machine collapses when frames are scarce (its cylinder
batches shrink), while conventional-random barely notices.
"""

from typing import Any, Dict

from benchmarks._harness import (
    BENCH_SEED,
    BENCH_SETTINGS,
    run_grid_bench,
)
from repro.bench import Grid
from repro.experiments import CONFIGURATIONS
from repro.experiments.sweeps import sweep_machine

FRAME_COUNTS = (40, 70, 100, 150)


def cache_frames_cell(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    rows = sweep_machine(
        CONFIGURATIONS[params["configuration"]],
        field="cache_frames",
        values=[params["cache_frames"]],
        settings=BENCH_SETTINGS.with_overrides(seed=seed),
    )
    return {"exec_ms_per_page": float(rows[0]["exec_ms_per_page"])}


GRID = Grid(
    name="ablation_cache_frames",
    title="Ablation: execution time per page vs cache frames",
    seed=BENCH_SEED,
    runner=cache_frames_cell,
    parameters={
        "configuration": ["conventional-random", "parallel-sequential"],
        "cache_frames": list(FRAME_COUNTS),
    },
    primary_metric="exec_ms_per_page",
)


def test_ablation_cache_frames(benchmark):
    result = run_grid_bench(
        benchmark,
        GRID,
        "Paper (Sections 4.1.1-4.1.2):\n"
        "  'more cache frames were available for anticipatory paging than\n"
        "   the disks could feed' (baseline machine)\n"
        "  'availability of fewer cache frames severely affects the\n"
        "   performance of the parallel-access disks'",
    )

    def exec_ms(config, frames):
        return result.metric(configuration=config, cache_frames=frames)

    assert exec_ms("parallel-sequential", FRAME_COUNTS[0]) > 1.2 * exec_ms(
        "parallel-sequential", FRAME_COUNTS[-1]
    )
    values = [exec_ms("conventional-random", n) for n in FRAME_COUNTS]
    assert max(values) < 1.10 * min(values)
