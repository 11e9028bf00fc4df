"""The paper's experiments, declared once.

:data:`CATALOGUE` is the one place an experiment is declared: the twelve
paper tables and the six ablations the text describes, in report order.
Each :class:`Experiment` gives its key and table number, title and
one-line description, the function that prices it, its ``PAPER``
reference and the columns the fidelity scorer compares.  ``repro
tables``/``table``/``ablation``/``report``/``fidelity``,
:func:`repro.experiments.report.generate_report` and the benchmark
harness all read it; adding an experiment means adding one entry here.

Each function prices its rows through :func:`_row` and returns a dict
with a ``"title"``, a ``"rows"`` list (one dict per table row, measured
values) and the ``"paper"`` reference.  ``render(result)`` on any of them
produces an aligned plain-text table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter, methodcaller
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.bare import BareArchitecture
from repro.core.differential import DifferentialConfig, DifferentialFileArchitecture
from repro.core.modern import CommandLoggingArchitecture, RedoOnlyWalArchitecture
from repro.core.logging import (
    FragmentRouting,
    LoggingConfig,
    LogMode,
    ParallelLoggingArchitecture,
    SelectionPolicy,
)
from repro.core.shadow import (
    OverwritingArchitecture,
    OverwritingMode,
    PageTableShadowArchitecture,
    ShadowConfig,
    VersionSelectionArchitecture,
)
from repro.experiments.paper import CONFIG_NAMES, PAPER
from repro.experiments.runner import (
    CONFIGURATIONS,
    ExperimentSettings,
    run_configuration,
)
from repro.metrics.collectors import RunResult
from repro.metrics.report import format_table

__all__ = [
    "ABLATIONS",
    "CATALOGUE",
    "Experiment",
    "TABLES",
    "ablation_checkpointing",
    "ablation_disk_scheduling",
    "ablation_hotspot",
    "ablation_interconnect",
    "ablation_overwriting_variants",
    "ablation_version_selection",
    "paper_rows",
    "render",
    "table1_logging_impact",
    "table2_log_utilization",
    "table3_parallel_logging",
    "table4_shadow_impact",
    "table5_shadow_utilization",
    "table6_pt_buffer",
    "table7_sequential_shadow",
    "table8_random_overwriting",
    "table9_differential_impact",
    "table10_output_fraction",
    "table11_differential_size",
    "table12_comparison",
]

#: Table 3 testbed: 75 QPs, 2 parallel-access data disks, 150 cache frames.
TABLE3_MACHINE = {
    "n_query_processors": 75,
    "cache_frames": 150,
    "prefetch_window": 48,
}

#: A run of a row: ``(architecture builder or None, its options, machine
#: overrides)``; see :func:`_run`.
Run = Tuple[Optional[Callable[..., Any]], Dict[str, Any], Dict[str, Any]]
#: A column of a row: ``(run name, measure of that run's RunResult)``.
Column = Tuple[str, Callable[[RunResult], Any]]


@dataclass(frozen=True)
class Experiment:
    """One paper table or ablation: what it is, how to price and score it."""

    key: str
    #: The paper's table number; ``None`` for an ablation.
    number: Optional[int]
    title: str
    description: str
    #: ``run(settings) -> {"title", "rows", "paper"}``.
    run: Callable[..., Dict]
    paper: Optional[Dict] = None
    #: Columns the fidelity scorer pairs with ``paper``, row by row.
    scored: Tuple[str, ...] = ()
    #: The row field naming each row (the ``paper`` reference's keys).
    label_field: str = "configuration"


def render(result: Dict) -> str:
    """Render any table-function result as aligned text."""
    rows = result["rows"]
    headers = list(rows[0].keys())
    return format_table(
        headers,
        [[row[h] for h in headers] for row in rows],
        title=result.get("title"),
    )


def paper_rows(entry: Experiment) -> List[Dict]:
    """``entry``'s paper reference as rows shaped like its measured rows."""
    return [
        {entry.label_field: label, **columns}
        for label, columns in (entry.paper or {}).items()
    ]


# ------------------------------------------------------------------ row helper
def _logging(**options) -> ParallelLoggingArchitecture:
    return ParallelLoggingArchitecture(LoggingConfig(**options))


def _shadow(**options) -> PageTableShadowArchitecture:
    return PageTableShadowArchitecture(ShadowConfig(**options))


def _differential(**options) -> DifferentialFileArchitecture:
    return DifferentialFileArchitecture(DifferentialConfig(**options))


def _run(build: Optional[Callable[..., Any]] = None, machine=None, **options) -> Run:
    """A run: ``build(**options)`` (``None``: the bare machine), optionally
    on a machine with ``machine`` overrides."""
    return build, options, machine or {}


def _exec(result: RunResult) -> float:
    return round(result.execution_time_per_page, 2)


def _completion(result: RunResult) -> float:
    return round(result.mean_completion_ms, 1)


def _utilization(resource: str, digits: int, result: RunResult) -> float:
    return round(result.utilization(resource), digits)


def _exec_and_completion(runs: Mapping[str, Run]) -> Dict[str, Column]:
    """``exec_<run>`` for every run, then ``completion_<run>``."""
    return {
        f"{prefix}_{name}": (name, measure)
        for prefix, measure in (("exec", _exec), ("completion", _completion))
        for name in runs
    }


def _row(
    settings: Optional[ExperimentSettings],
    label: Any,
    runs: Mapping[str, Run],
    columns: Optional[Mapping[str, Column]] = None,
    *,
    configuration: Optional[str] = None,
    label_field: str = "configuration",
    machine_overrides: Optional[dict] = None,
    workload_overrides: Optional[dict] = None,
) -> Dict:
    """Price one table row: one simulation per run, one value per column.

    Every run is a zero-argument ``functools.partial`` of its builder,
    bound here, so a recorded factory builds its own cell's architecture.
    ``configuration`` (default: the row label) names the machine/workload
    configuration of every run.  ``columns`` maps each column to ``(run,
    measure)``; by default each run is one column of execution time per
    page.
    """
    config = CONFIGURATIONS[configuration or label]
    results = {}
    for name, (build, options, machine) in runs.items():
        results[name] = run_configuration(
            config,
            None if build is None else partial(build, **options),
            settings,
            machine_overrides={**(machine_overrides or {}), **machine},
            workload_overrides=workload_overrides,
        )
    columns = columns or {name: (name, _exec) for name in runs}
    row = {label_field: label}
    for column, (name, measure) in columns.items():
        row[column] = measure(results[name])
    return row


def _result(key: str, rows: List[Dict]) -> Dict:
    entry = CATALOGUE[key]
    return {"title": entry.title, "rows": rows, "paper": entry.paper}


_PT_PROCESSORS = {
    "bare": _run(),
    "1ptp": _run(_shadow, n_pt_processors=1),
    "2ptp": _run(_shadow, n_pt_processors=2),
}


# ---------------------------------------------------------------------- tables
def table1_logging_impact(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Table 1: impact of (logical) logging with one log disk."""
    runs = {"without_log": _run(), "with_log": _run(_logging)}
    columns = _exec_and_completion(runs)
    return _result(
        "table1", [_row(settings, name, runs, columns) for name in CONFIG_NAMES]
    )


def table2_log_utilization(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Table 2: log-disk utilization with one log processor."""
    runs = {"logging": _run(_logging)}
    columns = {"log_disk_utilization": ("logging", partial(_utilization, "log_disks", 3))}
    return _result(
        "table2",
        [
            {
                **_row(settings, name, runs, columns),
                "paper": PAPER["table2"][name]["log_disk_utilization"],
            }
            for name in CONFIG_NAMES
        ],
    )


def table3_parallel_logging(
    settings: Optional[ExperimentSettings] = None,
    n_log_disks=(1, 2, 3, 4, 5),
) -> Dict:
    """Table 3: physical logging, 1-5 log disks x 4 selection policies.

    Testbed: 75 query processors, 2 parallel-access data disks, 150 cache
    frames, sequential transactions.
    """
    policies = (
        SelectionPolicy.CYCLIC,
        SelectionPolicy.RANDOM,
        SelectionPolicy.QP_MOD,
        SelectionPolicy.TXN_MOD,
    )
    columns = {
        f"{prefix}_{policy.value}": (policy.value, measure)
        for policy in policies
        for prefix, measure in (("exec", _exec), ("compl", _completion))
    }
    testbed = {
        "configuration": "parallel-sequential",
        "label_field": "n_log_disks",
        "machine_overrides": TABLE3_MACHINE,
    }
    rows = [
        _row(
            settings,
            n,
            {
                policy.value: _run(
                    _logging, n_log_processors=n, mode=LogMode.PHYSICAL, selection=policy
                )
                for policy in policies
            },
            columns,
            **testbed,
        )
        for n in n_log_disks
    ]
    bare = {column: ("bare", measure) for column, (_, measure) in columns.items()}
    rows.append(_row(settings, "w/o logging", {"bare": _run()}, bare, **testbed))
    return _result("table3", rows)


def table4_shadow_impact(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Table 4: impact of the shadow mechanism, 1 vs 2 PT processors."""
    columns = _exec_and_completion(_PT_PROCESSORS)
    return _result(
        "table4",
        [_row(settings, name, _PT_PROCESSORS, columns) for name in CONFIG_NAMES],
    )


def table5_shadow_utilization(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Table 5: average utilization of data and page-table disks."""
    data = partial(_utilization, "data_disks", 2)
    pt = partial(_utilization, "pt_disks", 2)
    columns = {
        "bare_data": ("bare", data),
        "1ptp_data": ("1ptp", data),
        "1ptp_pt": ("1ptp", pt),
        "2ptp_data": ("2ptp", data),
        "2ptp_pt": ("2ptp", pt),
    }
    return _result(
        "table5",
        [_row(settings, name, _PT_PROCESSORS, columns) for name in CONFIG_NAMES],
    )


def table6_pt_buffer(
    settings: Optional[ExperimentSettings] = None, buffer_sizes=(10, 25, 50)
) -> Dict:
    """Table 6: page-table buffer size, 1 PT processor, random txns."""
    runs = {"bare": _run()}
    for size in buffer_sizes:
        runs[f"buffer_{size}"] = _run(_shadow, pt_buffer_pages=size)
    return _result(
        "table6",
        [_row(settings, name, runs) for name in ("conventional-random", "parallel-random")],
    )


def table7_sequential_shadow(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Table 7: sequential txns — clustered / scrambled / overwriting."""
    runs = {
        "bare": _run(),
        "clustered": _run(_shadow, clustered=True),
        "scrambled": _run(_shadow, clustered=False),
        "overwriting": _run(OverwritingArchitecture),
    }
    return _result(
        "table7",
        [
            _row(settings, name, runs)
            for name in ("conventional-sequential", "parallel-sequential")
        ],
    )


def table8_random_overwriting(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Table 8: random txns — thru page-table vs overwriting."""
    runs = {
        "bare": _run(),
        "thru_pt": _run(_shadow),
        "overwriting": _run(OverwritingArchitecture),
    }
    return _result(
        "table8",
        [_row(settings, name, runs) for name in ("conventional-random", "parallel-random")],
    )


def table9_differential_impact(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Table 9: differential files, basic vs optimal query processing."""
    runs = {
        "bare": _run(),
        "basic": _run(_differential, optimal=False),
        "optimal": _run(_differential, optimal=True),
    }
    columns = _exec_and_completion(runs)
    return _result(
        "table9", [_row(settings, name, runs, columns) for name in CONFIG_NAMES]
    )


def table10_output_fraction(
    settings: Optional[ExperimentSettings] = None, fractions=(0.10, 0.20, 0.50)
) -> Dict:
    """Table 10: effect of the output fraction (optimal strategy)."""
    runs = {"bare": _run()}
    for fraction in fractions:
        runs[f"output_{round(fraction * 100)}pct"] = _run(
            _differential, output_fraction=fraction
        )
    return _result("table10", [_row(settings, name, runs) for name in CONFIG_NAMES])


def table11_differential_size(
    settings: Optional[ExperimentSettings] = None, sizes=(0.10, 0.15, 0.20)
) -> Dict:
    """Table 11: effect of differential-file size (nonlinear degradation)."""
    runs = {"bare": _run()}
    for size in sizes:
        runs[f"size_{round(size * 100)}pct"] = _run(_differential, size_fraction=size)
    return _result("table11", [_row(settings, name, runs) for name in CONFIG_NAMES])


def table12_comparison(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Table 12: grand comparison of all recovery architectures."""
    runs = {
        "bare": _run(BareArchitecture),
        "logging": _run(_logging),
        "shadow_b10": _run(_shadow, pt_buffer_pages=10),
        "shadow_b50": _run(_shadow, pt_buffer_pages=50),
        "shadow_2ptp": _run(_shadow, n_pt_processors=2),
        "scrambled": _run(_shadow, clustered=False),
        "overwriting": _run(OverwritingArchitecture),
        "differential": _run(_differential),
        "command_logging": _run(CommandLoggingArchitecture),
        "redo_wal": _run(RedoOnlyWalArchitecture),
    }
    return _result("table12", [_row(settings, name, runs) for name in CONFIG_NAMES])


# ------------------------------------------------------------------- ablations
def ablation_interconnect(
    settings: Optional[ExperimentSettings] = None,
    bandwidths=(1.0, 0.1, 0.01),
) -> Dict:
    """Section 4.1.3: logging is insensitive to the QP<->LP medium."""
    runs = {}
    for bandwidth in bandwidths:
        runs[f"link_{bandwidth}MBs"] = _run(
            _logging, routing=FragmentRouting.LINK, link_bandwidth_mb_s=bandwidth
        )
    runs["through_cache"] = _run(_logging, routing=FragmentRouting.CACHE)
    return _result(
        "interconnect",
        [
            _row(settings, name, runs)
            for name in ("conventional-random", "parallel-sequential")
        ],
    )


def ablation_version_selection(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Section 4.2.5: version selection vs thru page-table.

    Version selection doubles disk space, so the database is halved to fit
    the same drives — the comparison keeps both architectures on the
    shrunken database.
    """
    runs = {
        "bare": _run(),
        "thru_pt": _run(_shadow),
        "version_selection": _run(VersionSelectionArchitecture),
    }
    return _result(
        "version-selection",
        [
            _row(settings, name, runs, machine_overrides={"db_pages": 60_000})
            for name in CONFIG_NAMES
        ],
    )


def ablation_overwriting_variants(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Section 3.2.2.2: the no-undo vs the no-redo overwriting variant."""
    runs = {
        "no_undo": _run(OverwritingArchitecture, mode=OverwritingMode.NO_UNDO),
        "no_redo": _run(OverwritingArchitecture, mode=OverwritingMode.NO_REDO),
    }
    return _result(
        "overwriting-variants", [_row(settings, name, runs) for name in CONFIG_NAMES]
    )


def ablation_disk_scheduling(settings: Optional[ExperimentSettings] = None) -> Dict:
    """Extension: FCFS vs SSTF data-disk scheduling on the bare machine.

    The paper's controllers serve requests in arrival order; this ablation
    quantifies what a shortest-seek-time-first queue would have bought the
    conventional configurations (parallel-access drives already coalesce
    whole cylinders, so they are omitted).
    """
    runs = {
        policy: _run(machine={"disk_scheduling": policy}) for policy in ("fcfs", "sstf")
    }
    return _result(
        "disk-scheduling",
        [
            _row(settings, name, runs)
            for name in ("conventional-random", "conventional-sequential")
        ],
    )


def ablation_checkpointing(
    settings: Optional[ExperimentSettings] = None,
    intervals=(None, 2000.0, 500.0),
) -> Dict:
    """Section 3.1's claim: parallel checkpointing costs ~nothing.

    Background checkpoints force every log processor's partial page and
    write one checkpoint page per log disk, fully overlapped with data
    processing — throughput should not move even at aggressive intervals.
    """
    runs = {}
    for interval in intervals:
        label = "no_checkpoints" if interval is None else f"every_{int(interval)}ms"
        runs[label] = _run(_logging, checkpoint_interval_ms=interval)
    return _result(
        "checkpointing",
        [
            _row(settings, name, runs)
            for name in ("conventional-random", "parallel-sequential")
        ],
    )


def ablation_hotspot(
    settings: Optional[ExperimentSettings] = None,
    hotspots=(None, 0.1, 0.005),
) -> Dict:
    """Extension: skewed (hotspot) reference strings under logging.

    The paper's workload is uniform; this ablation adds b/c-rule skew to
    show the architecture's performance is driven by I/O patterns, not by
    lock contention, until the hot set becomes pathologically small.
    """
    runs = {"logging": _run(_logging)}
    columns = {
        "exec_ms_per_page": ("logging", _exec),
        "lock_blocks": ("logging", methodcaller("counter", "lock_blocks")),
        "restarts": ("logging", attrgetter("n_restarts")),
    }
    return _result(
        "hotspot",
        [
            _row(
                settings,
                "uniform" if hotspot is None else f"hot_{hotspot:g}",
                runs,
                columns,
                configuration="conventional-random",
                label_field="workload",
                workload_overrides={
                    "hotspot_fraction": hotspot,
                    "hotspot_probability": 0.8,
                },
            )
            for hotspot in hotspots
        ],
    )


# ------------------------------------------------------------------- catalogue
#: Every experiment, in report order: the paper's tables, then the ablations.
CATALOGUE: Dict[str, Experiment] = {
    entry.key: entry
    for entry in (
        Experiment(
            "table1", 1, "Table 1. Impact of Logging",
            "impact of logging (logical, one log disk)",
            table1_logging_impact, PAPER["table1"],
            scored=("exec_without_log", "exec_with_log"),
        ),
        Experiment(
            "table2", 2, "Table 2. Log Characteristics (one log processor)",
            "log-disk utilization, one log processor",
            table2_log_utilization, PAPER["table2"],
            scored=("log_disk_utilization",),
        ),
        Experiment(
            "table3", 3,
            "Table 3. Parallel Logging and Selection Algorithms "
            "(75 QPs, 2 parallel-access disks, 150 frames)",
            "physical logging, 1-5 log disks x 4 policies",
            table3_parallel_logging, PAPER["table3"], label_field="n_log_disks",
        ),
        Experiment(
            "table4", 4, "Table 4. Impact of the Shadow Mechanism",
            "shadow mechanism, 1 vs 2 PT processors",
            table4_shadow_impact, PAPER["table4"],
            scored=("exec_bare", "exec_1ptp", "exec_2ptp"),
        ),
        Experiment(
            "table5", 5, "Table 5. Average Utilization of Data and Page-Table Disks",
            "data / page-table disk utilizations",
            table5_shadow_utilization, PAPER["table5"],
        ),
        Experiment(
            "table6", 6, "Table 6. Execution Time per Page (1 Page-Table Processor)",
            "page-table buffer size",
            table6_pt_buffer, PAPER["table6"],
            scored=("bare", "buffer_10", "buffer_25", "buffer_50"),
        ),
        Experiment(
            "table7", 7, "Table 7. Execution Time per Page (Sequential Transactions)",
            "sequential: clustered/scrambled/overwriting",
            table7_sequential_shadow, PAPER["table7"],
            scored=("bare", "clustered", "scrambled", "overwriting"),
        ),
        Experiment(
            "table8", 8, "Table 8. Execution Time per Page (Random Transactions)",
            "random: thru-PT vs overwriting",
            table8_random_overwriting, PAPER["table8"],
            scored=("bare", "thru_pt", "overwriting"),
        ),
        Experiment(
            "table9", 9, "Table 9. Impact of the Differential File Mechanism",
            "differential files, basic vs optimal",
            table9_differential_impact, PAPER["table9"],
            scored=("exec_bare", "exec_basic", "exec_optimal"),
        ),
        Experiment(
            "table10", 10,
            "Table 10. Effect of Output Fraction on Execution Time per Page",
            "output fraction",
            table10_output_fraction, PAPER["table10"],
            scored=("bare", "output_10pct", "output_20pct", "output_50pct"),
        ),
        Experiment(
            "table11", 11, "Table 11. Effect of Size of Differential Files",
            "differential-file size",
            table11_differential_size, PAPER["table11"],
            scored=("bare", "size_10pct", "size_15pct", "size_20pct"),
        ),
        Experiment(
            "table12", 12, "Table 12. Average Execution Time per Page (in ms)",
            "grand comparison of all architectures",
            table12_comparison, PAPER["table12"],
            scored=(
                "bare", "logging", "shadow_b10", "shadow_b50",
                "shadow_2ptp", "scrambled", "overwriting", "differential",
            ),
        ),
        Experiment(
            "interconnect", None,
            "Ablation (Sec 4.1.3): QP-LP interconnect bandwidth and routing",
            "logging is insensitive to the QP<->LP medium (Sec 4.1.3)",
            ablation_interconnect,
        ),
        Experiment(
            "version-selection", None,
            "Ablation (Sec 4.2.5): version selection vs thru page-table",
            "version selection vs thru page-table (Sec 4.2.5)",
            ablation_version_selection,
        ),
        Experiment(
            "overwriting-variants", None,
            "Ablation (Sec 3.2.2.2): overwriting no-undo vs no-redo",
            "the no-undo vs the no-redo overwriting variant (Sec 3.2.2.2)",
            ablation_overwriting_variants,
        ),
        Experiment(
            "checkpointing", None,
            "Ablation (Sec 3.1): checkpointing in parallel with processing",
            "parallel checkpointing costs ~nothing (Sec 3.1)",
            ablation_checkpointing,
        ),
        Experiment(
            "disk-scheduling", None,
            "Ablation (extension): FCFS vs SSTF disk scheduling",
            "FCFS vs SSTF data-disk scheduling on the bare machine (extension)",
            ablation_disk_scheduling,
        ),
        Experiment(
            "hotspot", None,
            "Ablation (extension): hotspot skew under parallel logging",
            "skewed (hotspot) reference strings under logging (extension)",
            ablation_hotspot, label_field="workload",
        ),
    )
}

#: The paper's tables and the ablations, each in catalogue order.
TABLES: Tuple[Experiment, ...] = tuple(
    e for e in CATALOGUE.values() if e.number is not None
)
ABLATIONS: Tuple[Experiment, ...] = tuple(
    e for e in CATALOGUE.values() if e.number is None
)
