"""Benchmark: the open-system offered-load sweep and its collapse knee.

The paper drives every architecture with a closed batch, so overload is
invisible: the multiprogramming level caps the work in flight and the
machine simply takes longer.  The loadtest harness offers load on an
open arrival schedule instead; this benchmark sweeps two architectures —
parallel logging (the paper's headline) and shadow paging (its
structural opposite) — with the mirror-health toggle ablated (off =
mirrored-degraded state), and records where goodput (commits within the
SLO per second) peaks and where it collapses.  Expected shape: goodput
tracks offered load up to roughly calibrated capacity, then the
admission queue saturates, sojourn times blow through the SLO, and
goodput drops ≥20 % below its peak — the knee.  The full sweep detail
lands in ``BENCH_loadtest.json``.
"""

from typing import Any, Dict, Tuple

from benchmarks._harness import BENCH_SEED, run_grid_bench
from repro.bench import ComponentToggle, Grid
from repro.loadgen import run_loadtest

N_PER_CELL = 24


def loadtest_cell(
    params: Dict[str, Any], seed: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    state = "healthy" if params["mirror"] else "mirrored-degraded"
    report = run_loadtest(
        params["architecture"], seed=seed, n_per_cell=N_PER_CELL, state=state
    )
    peak = report.peak
    knee = report.knee()
    metrics = {
        "capacity_tps": round(report.calibration.capacity_tps, 6),
        "peak_goodput_tps": round(peak.run.goodput_tps, 6),
        "peak_multiplier": peak.multiplier,
        "knee_goodput_tps": round(knee.run.goodput_tps, 6) if knee else 0.0,
        "knee_multiplier": knee.multiplier if knee else 0.0,
        "oracles_ok": report.ok,
        "violations": len(report.violations),
    }
    return metrics, report.to_dict()


GRID = Grid(
    name="loadtest",
    title="Open-system loadtest: goodput peak and collapse knee",
    seed=BENCH_SEED,
    runner=loadtest_cell,
    parameters={"architecture": ["wal", "shadow"]},
    toggles=(ComponentToggle("mirror", "both mirror sides healthy"),),
    primary_metric="peak_goodput_tps",
    higher_is_better=True,
)


def test_bench_loadtest(benchmark):
    result = run_grid_bench(
        benchmark,
        GRID,
        "Paper (Section 4):\n"
        "  the paper's closed batch caps work in flight at the MPL;\n"
        "  an open system must instead survive offered load above\n"
        "  capacity — bounded admission turns overload into rejections\n"
        "  instead of collapse, and the knee prices where that starts.",
    )
    for cell in result.cells:
        assert cell.metric("oracles_ok"), cell.cell
        assert cell.metric("knee_multiplier") > 0, (cell.cell, "no collapse knee")
