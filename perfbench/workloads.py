"""The three workloads, each a list of items run one after another.

An item is the smallest unit whose simulated output is checked on its own:
a Table 12 cell, one open-load run, one manager's crash/recover history.
Every item returns an :class:`Outcome`; the runner times items, repeats
them until the run's time is up and checks each repeat against the first.
``repro`` receives only inputs generated here from the seed.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import integrity
from repro.experiments import tables
from repro.experiments.fidelity import CellComparison
from repro.experiments.paper import PAPER
from repro.experiments.runner import ExperimentSettings, run_configuration
from repro.hardware.disk import Disk
from repro.hardware.interconnect import Interconnect
from repro.loadgen import ArrivalConfig, generate_arrivals
from repro.loadgen.runner import score_open_run, sim_architecture
from repro.machine.cache import DiskCache
from repro.machine.config import MachineConfig
from repro.machine.locks import LockManager
from repro.machine.machine import DatabaseMachine
from repro.machine.processors import ProcessorPool
from repro.metrics.collectors import RunResult
from repro.registry import ARCHITECTURES, machine_overrides
from repro.sim.core import Environment, Process, Timeout
from repro.sim.resources import Request
from repro.sim.rng import RandomStreams
from repro.trace import Tracer
from repro.workload.generator import WorkloadConfig, generate_transactions
from repro.workload.transaction import TransactionStatus

from perfbench.measure import digest, percentile

#: The functional managers, in registry order (crash_recover's items and
#: the ``storage.<a>.*`` metric names).
MANAGERS = tuple(ARCHITECTURES)


@dataclass
class Outcome:
    """What one item did and whether it was right."""

    label: str
    seconds: float = 0.0
    #: Transactions completed (committed, or aborted by the script).
    transactions: int = 0
    attempted: int = 1
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Hash of every simulated statistic, or ``None`` if the item raised.
    digest: Optional[str] = None
    #: Workload-specific payload the summaries read.
    data: Any = None


# ------------------------------------------------------------ table12_closed
@dataclass(frozen=True)
class Cell:
    label: str
    configuration: Any
    factory: Callable


def plan_table12() -> List[Cell]:
    """The cells of ``table12_comparison``, in the order it runs them.

    The grid is read from the program's own definition by calling it with
    ``run_configuration`` swapped for a recorder, so the benchmark follows
    any change to the table without a copy of its architecture list.
    """
    planned: List[Tuple[Any, Callable]] = []

    def record(configuration, architecture=None, settings=None, **_kwargs):
        planned.append((configuration, architecture))
        return RunResult(
            architecture="planned", makespan_ms=0.0, pages_processed=0,
            mean_completion_ms=0.0,
        )

    saved = tables.run_configuration
    tables.run_configuration = record
    try:
        grid = tables.table12_comparison(ExperimentSettings())
    finally:
        tables.run_configuration = saved
    columns = [name for name in grid["rows"][0] if name != "configuration"]
    return [
        Cell(f"{config.name}/{columns[i % len(columns)]}", config, factory)
        for i, (config, factory) in enumerate(planned)
    ]


class Table12Closed:
    """The paper's Table 12 grid, one closed-batch simulation per cell.

    The seed is the machine seed of ``ExperimentSettings`` (disk service
    draws and the like); the transactions are the table's own, so every
    seed runs the same amount of work and seed 1985 is ``repro table 12``.
    """

    name = "table12_closed"

    def __init__(self, seed: int):
        self.settings = ExperimentSettings(seed=seed)
        self.items = plan_table12()

    def build(self, cell: Cell):
        """The machine and transactions ``run_configuration`` builds."""
        config = self.settings.machine.with_overrides(
            parallel_data_disks=cell.configuration.parallel_disks,
            seed=self.settings.seed,
        )
        transactions = generate_transactions(
            WorkloadConfig(
                n_transactions=self.settings.n_transactions,
                sequential=cell.configuration.sequential,
            ),
            config.db_pages,
            RandomStreams(self.settings.workload_seed).stream("workload"),
        )
        return DatabaseMachine(config, cell.factory()), transactions

    def run(self, cell: Cell) -> Outcome:
        result = run_configuration(cell.configuration, cell.factory, self.settings)
        outcome = Outcome(cell.label, transactions=result.n_transactions, data=result)
        if (
            result.n_transactions != self.settings.n_transactions
            or result.pages_processed <= 0
            or not 0.0 < result.makespan_ms < math.inf
        ):
            outcome.failed = 1
            outcome.problems.append(
                f"{cell.label}: {result.n_transactions} transactions, "
                f"{result.pages_processed} pages, makespan {result.makespan_ms}"
            )
        outcome.digest = digest(result)
        return outcome

    @staticmethod
    def result_of(outcome: Outcome) -> Optional[RunResult]:
        return outcome.data

    def layer_metrics(self, outcomes: List[Outcome]) -> Dict[str, float]:
        return {}

    def summary(self, outcomes: List[Outcome]) -> Dict[str, Tuple[float, str]]:
        results: List[RunResult] = [o.data for o in outcomes]
        pages = sum(r.pages_processed for r in results)
        txns = sum(r.n_transactions for r in results)
        comparisons = []
        for outcome in outcomes:
            config, column = outcome.label.split("/")
            paper = PAPER["table12"].get(config, {}).get(column)
            if paper is not None:
                measured = round(outcome.data.execution_time_per_page, 2)
                comparisons.append(CellComparison("table12", outcome.label, measured, paper))
        return {
            "sim_ms_per_page": (sum(r.makespan_ms for r in results) / pages, "ms"),
            "sim_completion_ms": (
                sum(r.mean_completion_ms * r.n_transactions for r in results) / txns,
                "ms",
            ),
            "paper_rel_err": (
                sum(c.relative_error for c in comparisons) / len(comparisons),
                "frac",
            ),
        }


# --------------------------------------------------------------- open_traced
#: Closed-batch capacity (tps) and mean completion time (ms) of each
#: registered architecture on the loadgen workload, measured once with
#: ``repro.loadgen.calibrate(arch, seed=1985, n_transactions=40)`` and
#: fixed here so no calibration runs inside a timed run.
CALIBRATION = {
    "wal": (1.702, 1732.4),
    "shadow": (1.433, 976.3),
    "versions": (1.484, 1971.5),
    "overwrite": (1.491, 1967.4),
    "differential": (1.732, 1680.8),
    "command": (1.703, 1711.4),
    "redo": (1.607, 1824.0),
}
#: (arrival process, offered load as a multiple of capacity): one schedule
#: the machine keeps up with, one that overloads admission.
SCHEDULES = (("poisson", 0.7), ("bursty", 2.0))
N_ARRIVALS = 200
#: The loadgen's short transactions, their seed and its default SLO rule.
MAX_PAGES = 60
LOADGEN_WORKLOAD_SEED = 7
SLO_FACTOR = 2.5


@dataclass(frozen=True)
class LoadRun:
    label: str
    arch: str
    process: str
    multiplier: float


class OpenTraced:
    """``run_open_load`` for every registered architecture, traced.

    Built from the public pieces ``run_open_load`` is made of, because it
    takes no tracer: the arrival schedule, the loadgen's short
    transactions, a machine with a :class:`repro.trace.Tracer` attached,
    ``run_open`` and ``score_open_run`` (whose oracles are checked).  As
    in ``run_open_load``, the seed drives the arrivals and the machine and
    the transactions come from the loadgen's fixed workload seed.
    """

    name = "open_traced"

    def __init__(self, seed: int):
        self.seed = seed
        self.items = [
            LoadRun(f"{arch}/{process}", arch, process, multiplier)
            for arch in MANAGERS
            for process, multiplier in SCHEDULES
        ]

    def build(self, item: LoadRun):
        capacity, _completion = CALIBRATION[item.arch]
        schedule = generate_arrivals(
            ArrivalConfig(
                process=item.process,
                rate_tps=item.multiplier * capacity,
                n_arrivals=N_ARRIVALS,
            ),
            RandomStreams(self.seed).fork("arrivals"),
        )
        config = MachineConfig().with_overrides(
            seed=self.seed, parallel_data_disks=True, **machine_overrides(item.arch)
        )
        transactions = generate_transactions(
            WorkloadConfig(n_transactions=schedule.offered, max_pages=MAX_PAGES),
            config.db_pages,
            RandomStreams(LOADGEN_WORKLOAD_SEED).stream("workload"),
        )
        machine = DatabaseMachine(config, sim_architecture(item.arch), tracer=Tracer())
        return schedule, transactions, machine

    def run(self, item: LoadRun) -> Outcome:
        schedule, transactions, machine = self.build(item)
        result = machine.run_open(
            transactions, schedule.times_ms, spike_times_ms=schedule.spike_starts_ms
        )
        slo_ms = SLO_FACTOR * CALIBRATION[item.arch][1]
        scored = score_open_run(item.arch, "healthy", schedule, transactions, result, slo_ms)
        sojourns = [
            txn.finish_time - arrival
            for txn, arrival in zip(transactions, schedule.times_ms)
            if txn.status is TransactionStatus.COMMITTED
        ]
        outcome = Outcome(item.label, transactions=scored.committed, data=(scored, sojourns))
        if scored.oracle_violations:
            outcome.failed = 1
            outcome.problems.extend(f"{item.label}: {v}" for v in scored.oracle_violations)
        outcome.digest = digest({"open": scored.to_dict(), "result": asdict(result)})
        return outcome

    @staticmethod
    def result_of(outcome: Outcome) -> Optional[RunResult]:
        return outcome.data[0].result if outcome.data is not None else None

    def layer_metrics(self, outcomes: List[Outcome]) -> Dict[str, float]:
        return {}

    def summary(self, outcomes: List[Outcome]) -> Dict[str, Tuple[float, str]]:
        runs = [o.data[0] for o in outcomes]
        sojourns = [s for o in outcomes for s in o.data[1]]
        makespan_s = sum(r.result.makespan_ms for r in runs) / 1000.0
        return {
            "sim_goodput_tps": (sum(r.within_slo for r in runs) / makespan_s, "tps"),
            "sim_sojourn_ms_p99": (percentile(sojourns, 99), "ms"),
        }


# ------------------------------------------------------------- crash_recover
#: The history every manager replays: its length is part of the workload
#: (the differential and shadow managers re-read a growing share of it).
N_TRANSACTIONS = 200
N_PAGES = 128
MAX_CONCURRENT = 3
#: Chance that the next op opens a transaction while others are open.
BEGIN_PROBABILITY = 0.3
#: Pages read per transaction; a fifth of them are then written.
READ_PAGES = 10
WRITE_FRACTION = 0.2
PAGE_BYTES = 4096
ABORT_FRACTION = 0.1
#: Crash and recover after every this many resolved transactions ...
CRASH_EVERY = 12
#: ... and take a checkpoint after every this many.
CHECKPOINT_EVERY = 20


def make_script(seed: int) -> List[tuple]:
    """A seeded op script interleaving up to three transactions.

    Ops: ``("begin", slot)``, ``("read", slot, page)``, ``("write", slot,
    page, image)``, ``("commit", slot)``, ``("abort", slot)``,
    ``("checkpoint",)`` and ``("crash",)`` (crash, recover, verify; the
    transactions still open are lost).  Concurrent transactions touch
    disjoint pages, so page locks never conflict.  The script ends with a
    crash so every history finishes with a verified recovery.
    """
    rng = random.Random(seed)
    ops: List[tuple] = []
    open_txns: Dict[int, Tuple[List[tuple], List[int]]] = {}
    free = set(range(N_PAGES))
    started = resolved = value = 0
    while started < N_TRANSACTIONS or open_txns:
        can_begin = started < N_TRANSACTIONS and len(open_txns) < MAX_CONCURRENT
        if can_begin and (not open_txns or rng.random() < BEGIN_PROBABILITY):
            slot = started
            pages = rng.sample(sorted(free), READ_PAGES)
            free.difference_update(pages)
            plan = [("read", slot, page) for page in pages]
            for page in rng.sample(pages, round(len(pages) * WRITE_FRACTION)):
                value += 1
                image = value.to_bytes(8, "big") * (PAGE_BYTES // 8)
                plan.append(("write", slot, page, image))
            end = "abort" if rng.random() < ABORT_FRACTION else "commit"
            plan.append((end, slot))
            ops.append(("begin", slot))
            open_txns[slot] = (plan, pages)
            started += 1
            continue
        slot = rng.choice(sorted(open_txns))
        plan, pages = open_txns[slot]
        ops.append(plan.pop(0))
        if plan:
            continue
        del open_txns[slot]
        free.update(pages)
        resolved += 1
        if resolved % CHECKPOINT_EVERY == 0:
            ops.append(("checkpoint",))
        if resolved % CRASH_EVERY == 0:
            ops.append(("crash",))
            for _plan, lost in open_txns.values():
                free.update(lost)
            open_txns.clear()
    ops.append(("crash",))
    return ops


@dataclass
class History:
    """Host timings of one manager's history."""

    txn_ms: List[float] = field(default_factory=list)
    recover_ms: List[float] = field(default_factory=list)
    #: Host seconds inside the manager's transaction calls.
    txn_s: float = 0.0
    checkpoint_s: float = 0.0
    checkpoints: int = 0
    skipped: int = 0
    records_read: int = 0
    records_appended: int = 0


class CrashRecover:
    """Every functional manager replays one seeded crash/recover script.

    After each recovery every page's ``read_committed`` must equal the
    committed-prefix model, and every transactional read must return the
    committed value.
    """

    name = "crash_recover"

    def __init__(self, seed: int):
        self.script = make_script(seed)
        self.items = list(MANAGERS)

    def build(self, arch: str):
        return ARCHITECTURES[arch]()

    def run(self, arch: str) -> Outcome:
        manager = self.build(arch)
        history = History()
        outcome = Outcome(arch, attempted=0, data=history)
        tids: Dict[int, int] = {}
        began: Dict[int, float] = {}
        pending: Dict[int, Dict[int, bytes]] = {}
        committed: Dict[int, bytes] = {}
        clock = time.perf_counter

        def fail(problem: str) -> None:
            outcome.failed += 1
            if len(outcome.problems) < 5:
                outcome.problems.append(f"{arch}: {problem}")

        for op in self.script:
            kind = op[0]
            if kind == "crash":
                start = clock()
                manager.crash()
                manager.recover()
                history.recover_ms.append((clock() - start) * 1000.0)
                outcome.attempted += 1
                tids.clear()
                began.clear()
                pending.clear()
                wrong = [
                    page for page in range(N_PAGES)
                    if manager.read_committed(page) != committed.get(page, b"")
                ]
                if wrong:
                    fail(
                        f"recovery {len(history.recover_ms)} lost the committed "
                        f"prefix on pages {wrong[:5]}"
                    )
                continue
            if kind == "checkpoint":
                start = clock()
                stats = manager.take_checkpoint()
                history.checkpoint_s += clock() - start
                history.checkpoints += 1
                history.skipped += bool(stats.skipped)
                continue
            slot = op[1]
            start = clock()
            if kind == "begin":
                tids[slot] = manager.begin()
                began[slot] = start
                pending[slot] = {}
            elif kind == "read":
                got = manager.read(tids[slot], op[2])
                if got != committed.get(op[2], b""):
                    fail(f"read of page {op[2]} returned an uncommitted value")
            elif kind == "write":
                manager.write(tids[slot], op[2], op[3])
                pending[slot][op[2]] = op[3]
            else:
                if kind == "commit":
                    manager.commit(tids[slot])
                    committed.update(pending[slot])
                else:
                    manager.abort(tids[slot])
                end = clock()
                history.txn_ms.append((end - began.pop(slot)) * 1000.0)
                outcome.attempted += 1
                outcome.transactions += 1
                del tids[slot], pending[slot]
            history.txn_s += clock() - start
        history.records_read = manager.stable.records_read
        history.records_appended = manager.stable.records_appended
        outcome.digest = digest(
            [
                history.records_read, history.records_appended,
                manager.stable.page_reads, manager.stable.page_writes,
                history.checkpoints, history.skipped, outcome.transactions,
            ]
        )
        return outcome

    @staticmethod
    def result_of(outcome: Outcome) -> Optional[RunResult]:
        return None

    def layer_metrics(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """Per-manager host cost and the checkpoint layer, from one pass."""
        histories = [(o.label, o.data) for o in outcomes if o.data is not None]
        takes = sum(h.checkpoints for _, h in histories)
        metrics = {
            "checkpoint.takes": takes,
            "checkpoint.s": sum(h.checkpoint_s for _, h in histories),
            "checkpoint.skipped_frac": (
                sum(h.skipped for _, h in histories) / takes if takes else 0.0
            ),
        }
        for arch, h in histories:
            metrics[f"storage.{arch}.txn_s"] = h.txn_s
            metrics[f"storage.{arch}.recover_s"] = sum(h.recover_ms) / 1000.0
            metrics[f"storage.{arch}.records_read_per_append"] = (
                h.records_read / h.records_appended if h.records_appended else 0.0
            )
        return metrics

    def summary(self, outcomes: List[Outcome]) -> Dict[str, Tuple[float, str]]:
        txn_ms = [ms for o in outcomes for ms in o.data.txn_ms]
        recover_ms = [ms for o in outcomes for ms in o.data.recover_ms]
        return {
            "txn_ms_p50": (percentile(txn_ms, 50), "ms"),
            "txn_ms_p99": (percentile(txn_ms, 99), "ms"),
            "recover_ms_p50": (percentile(recover_ms, 50), "ms"),
            "recover_ms_p90": (percentile(recover_ms, 90), "ms"),
        }


WORKLOADS = {w.name: w for w in (Table12Closed, OpenTraced, CrashRecover)}

#: Calls counted in traced passes, as (owner, attribute): plain functions
#: only, because the profiler counts every resumption of a generator as a
#: call (processor acquisition is a generator, so its paired ``release``
#: is counted instead).
COUNTED: Dict[str, Tuple[Tuple[Any, str], ...]] = {
    "sim.events": ((Environment, "step"),),
    "sim.processes": ((Process, "__init__"),),
    "sim.timeouts": ((Timeout, "__init__"),),
    "sim.resource_requests": ((Request, "__init__"),),
    "machine.lock_acquires": ((LockManager, "acquire"),),
    "machine.cache_acquires": ((DiskCache, "acquire"),),
    "machine.qp_acquires": ((ProcessorPool, "release"),),
    "hardware.disk_requests": ((Disk, "submit"),),
    "hardware.link_transfers": ((Interconnect, "transfer"),),
    "core.writebacks": ((DatabaseMachine, "spawn_writeback"),),
    "trace.spans": ((Tracer, "begin"),),
    "trace.instants": ((Tracer, "instant"),),
    "integrity.checksums": ((integrity, "page_checksum"), (integrity, "record_checksum")),
}


def counted_functions(name: str) -> Tuple[Callable, ...]:
    return tuple(getattr(owner, attribute) for owner, attribute in COUNTED[name])


class CallCounter:
    """Counts calls into the :data:`COUNTED` functions while active.

    Every reference to each function is swapped for a counting wrapper: the
    class attribute of a method, and for a module function every loaded
    module that imported it by name.  ``Disk.submit`` also sums the pages
    each request carries.
    """

    def __init__(self) -> None:
        self.counts = dict.fromkeys(COUNTED, 0)
        self.disk_pages = 0
        self._undo: List[Tuple[Any, str, Callable]] = []

    def __enter__(self) -> "CallCounter":
        for name, targets in COUNTED.items():
            for owner, attribute in targets:
                original = getattr(owner, attribute)
                holders = [owner] if isinstance(owner, type) else [
                    module for module in list(sys.modules.values())
                    if getattr(module, "__dict__", {}).get(attribute) is original
                ]
                wrapper = self._wrapper(name, original)
                for holder in holders:
                    setattr(holder, attribute, wrapper)
                    self._undo.append((holder, attribute, original))
        return self

    def _wrapper(self, name: str, original: Callable) -> Callable:
        counts = self.counts
        if name == "hardware.disk_requests":
            def submit(disk, kind, addresses, tag=""):
                counts[name] += 1
                self.disk_pages += len(addresses)
                return original(disk, kind, addresses, tag)
            return submit

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    def __exit__(self, *exc) -> None:
        for holder, attribute, original in reversed(self._undo):
            setattr(holder, attribute, original)
        self._undo.clear()
