"""Ablation: throughput in degraded mode — dead log processors, mirrors.

The paper sizes the architectures for fault-free throughput; this
ablation prices *survival*.  The same seeded workload runs on the
parallel-logging machine with two component toggles ablated in full
product mode: ``lp0`` (log processor 0 alive; off = survivors absorb its
fragment stream) and ``mirror_side`` (both mirror sides healthy; off =
mirrored data disks with one side dead and rebuilding at a bounded I/O
share).  The four cells are the four machine states.  Expected shape:
every degraded cell still commits every transaction (that is the point
of the resilience layer); losing one of three log processors costs some
throughput; the mirror masks a dead side with no lost requests while the
rebuild's bounded share keeps the slowdown graceful.
"""

from typing import Any, Dict

from benchmarks._harness import BENCH_SEED, run_grid_bench
from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.bench import ComponentToggle, Grid
from repro.core import LoggingConfig, ParallelLoggingArchitecture
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sim import RandomStreams
from repro.workload import TransactionStatus

N_TRANSACTIONS = 8
FAIL_AT_MS = 100.0
REPAIR_AFTER_MS = 200.0


def degraded_cell(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    n_dead_lps = 0 if params["lp0"] else 1
    mirrored = not params["mirror_side"]
    config = MachineConfig(
        seed=seed, parallel_data_disks=True, mirrored_data_disks=mirrored
    )
    txns = generate_transactions(
        WorkloadConfig(n_transactions=N_TRANSACTIONS, max_pages=60),
        config.db_pages,
        RandomStreams(seed).stream("workload"),
    )
    machine = DatabaseMachine(
        config, ParallelLoggingArchitecture(LoggingConfig(n_log_processors=3))
    )
    specs = []
    if n_dead_lps:
        specs.append(FaultSpec(FaultKind.LP_FAIL, at_time=FAIL_AT_MS, target=0))
    if mirrored:
        specs.append(
            FaultSpec(
                FaultKind.DISK_FAIL,
                at_time=FAIL_AT_MS,
                target=0,
                repair_after=REPAIR_AFTER_MS,
            )
        )
    if specs:
        FaultInjector(FaultPlan.of(*specs, seed=seed)).arm(machine)
    result = machine.run(txns)
    assert all(t.status is TransactionStatus.COMMITTED for t in txns)
    return {
        "makespan_ms": round(result.makespan_ms, 6),
        "throughput": round(1000.0 * N_TRANSACTIONS / result.makespan_ms, 6),
        "lost_requests": result.counter("mirror_lost_requests"),
        "reshipped": result.counter("log_fragments_reshipped"),
    }


GRID = Grid(
    name="degraded_throughput",
    title="Ablation: throughput in degraded mode (parallel logging, 3 LPs)",
    seed=BENCH_SEED,
    runner=degraded_cell,
    toggles=(
        ComponentToggle("lp0", "log processor 0 alive"),
        ComponentToggle("mirror_side", "both mirror sides healthy"),
    ),
    toggle_mode="product",
    primary_metric="makespan_ms",
)


def test_ablation_degraded_throughput(benchmark):
    result = run_grid_bench(
        benchmark,
        GRID,
        "Paper (Section 5):\n"
        "  'the failure of a single component ... should not render\n"
        "   the entire system inoperable'",
    )
    baseline = result.metric()  # all components on = healthy
    # The mirror masks its dead side completely: no request is ever lost.
    for toggles_off in (("mirror_side",), ("lp0", "mirror_side")):
        assert result.metric("lost_requests", toggles_off) == 0, toggles_off
    # Losing a log processor re-homes its fragment stream.
    for toggles_off in (("lp0",), ("lp0", "mirror_side")):
        assert result.metric("reshipped", toggles_off) >= 0, toggles_off
    # Degradation is graceful, not collapse: no degraded state may cost
    # more than 3x the healthy makespan on this small workload.
    for cell in result.cells:
        assert cell.metric("makespan_ms") <= 3.0 * baseline, cell.cell
