"""The paper's published numbers, table by table.

Used by the report, the fidelity scorer and the benchmark harness to put
measured rows next to the paper's, and by tests that check the
reproduction preserves the paper's *shape* (orderings, ratios,
crossovers).  Every table reads ``{row label: {column: value}}`` with the
same row labels and column names as the measured rows of
:mod:`repro.experiments.tables`; execution times are ms/page, completion
times ms.
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["PAPER", "CONFIG_NAMES"]

CONFIG_NAMES = (
    "conventional-random",
    "parallel-random",
    "conventional-sequential",
    "parallel-sequential",
)

_RANDOM = CONFIG_NAMES[:2]
_SEQUENTIAL = CONFIG_NAMES[2:]
_POLICIES = ("cyclic", "random", "qp_mod", "txn_mod")


def _table(labels: Sequence, columns: Sequence[str], values: Sequence[Sequence[float]]) -> Dict:
    """``{label: {column: value}}``, one row of ``values`` per label."""
    return {label: dict(zip(columns, row)) for label, row in zip(labels, values)}


def _table3_row(execs: Sequence[float], completions: Sequence[float]) -> Dict:
    """One Table 3 row: exec and completion per selection policy."""
    return {
        f"{measure}_{policy}": value
        for policy, e, c in zip(_POLICIES, execs, completions)
        for measure, value in (("exec", e), ("compl", c))
    }


PAPER = {
    # Table 1: impact of (logical) logging, one log disk.
    "table1": _table(
        CONFIG_NAMES,
        ("exec_without_log", "exec_with_log", "completion_without_log", "completion_with_log"),
        [
            (18.0, 17.9, 7398.4, 7543.2),
            (16.6, 16.5, 6476.0, 6649.9),
            (11.0, 11.4, 4016.5, 4333.5),
            (1.9, 2.0, 758.1, 862.2),
        ],
    ),
    # Table 2: log-disk utilization with one log processor.
    "table2": _table(
        CONFIG_NAMES, ("log_disk_utilization",), [(0.02,), (0.02,), (0.02,), (0.13,)]
    ),
    # Table 3: physical logging, 75 QPs, 2 parallel-access disks, 150 frames;
    # rows are log-disk counts, plus the no-logging floor (one value, shown
    # under every policy as the measured table does).
    "table3": {
        1: _table3_row((5.1, 5.1, 5.1, 5.1), (4518.1, 4518.1, 4518.1, 4518.1)),
        2: _table3_row((2.5, 2.6, 2.6, 2.7), (1999.5, 2104.3, 2232.0, 2165.4)),
        3: _table3_row((1.7, 1.8, 1.8, 2.1), (1078.9, 1137.2, 1135.7, 1381.8)),
        4: _table3_row((1.5, 1.5, 1.5, 2.0), (830.7, 854.6, 837.8, 1137.5)),
        5: _table3_row((1.3, 1.4, 1.3, 2.0), (716.3, 741.7, 714.1, 1128.4)),
        "w/o logging": _table3_row((0.9,) * 4, (430.6,) * 4),
    },
    # Table 4: impact of the shadow mechanism (PT buffer = 10).
    "table4": _table(
        CONFIG_NAMES,
        (
            "exec_bare", "exec_1ptp", "exec_2ptp",
            "completion_bare", "completion_1ptp", "completion_2ptp",
        ),
        [
            (18.00, 20.51, 17.99, 7398.41, 8367.19, 7758.92),
            (16.62, 20.49, 16.69, 6476.04, 8352.91, 6962.23),
            (11.01, 10.98, 10.99, 4016.46, 4066.86, 4061.19),
            (1.92, 1.94, 1.93, 758.06, 829.34, 816.29),
        ],
    ),
    # Table 5: average utilization of data and page-table disks.
    "table5": _table(
        CONFIG_NAMES,
        ("bare_data", "1ptp_data", "1ptp_pt", "2ptp_pt"),
        [
            (0.99, 0.86, 1.00, 0.60),
            (1.00, 0.85, 1.00, 0.64),
            (0.75, 0.75, 0.06, 0.03),
            (0.92, 0.90, 0.34, 0.16),
        ],
    ),
    # Table 6: execution time/page, 1 PT processor, random transactions.
    "table6": _table(
        _RANDOM,
        ("bare", "buffer_10", "buffer_25", "buffer_50"),
        [(18.00, 20.51, 18.02, 18.01), (16.62, 20.49, 17.18, 16.70)],
    ),
    # Table 7: execution time/page, sequential transactions.
    "table7": _table(
        _SEQUENTIAL,
        ("bare", "clustered", "scrambled", "overwriting"),
        [(11.01, 10.98, 20.74, 24.08), (1.92, 1.94, 18.54, 2.31)],
    ),
    # Table 8: execution time/page, random transactions.
    "table8": _table(
        _RANDOM,
        ("bare", "thru_pt", "overwriting"),
        [(18.00, 20.51, 26.94), (16.62, 20.49, 21.65)],
    ),
    # Table 9: impact of the differential-file mechanism.
    "table9": _table(
        CONFIG_NAMES,
        ("exec_bare", "exec_basic", "exec_optimal", "completion_basic", "completion_optimal"),
        [
            (18.0, 37.8, 19.2, 11589.8, 6634.3),
            (16.6, 37.7, 18.0, 11565.1, 6207.6),
            (11.0, 37.6, 17.8, 11443.7, 5795.5),
            (1.9, 37.6, 13.9, 11368.8, 4573.5),
        ],
    ),
    # Table 10: effect of the output fraction (optimal strategy).
    "table10": _table(
        CONFIG_NAMES,
        ("bare", "output_10pct", "output_20pct", "output_50pct"),
        [
            (18.0, 19.2, 19.2, 20.3),
            (16.6, 18.0, 18.0, 18.9),
            (11.0, 17.8, 17.9, 17.8),
            (1.9, 13.9, 13.9, 13.6),
        ],
    ),
    # Table 11: effect of the size of the differential files.
    "table11": _table(
        CONFIG_NAMES,
        ("bare", "size_10pct", "size_15pct", "size_20pct"),
        [
            (18.0, 19.2, 24.8, 37.0),
            (16.6, 18.0, 24.4, 37.0),
            (11.0, 17.8, 25.8, 39.6),
            (1.9, 13.9, 23.5, 36.4),
        ],
    ),
    # Table 12: grand comparison, execution time per page.
    "table12": _table(
        CONFIG_NAMES,
        (
            "bare", "logging", "shadow_b10", "shadow_b50",
            "shadow_2ptp", "scrambled", "overwriting", "differential",
        ),
        [
            (18.0, 17.9, 20.5, 18.0, 18.0, 20.5, 26.9, 19.2),
            (16.6, 16.5, 20.5, 16.7, 16.7, 20.5, 21.6, 18.0),
            (11.0, 11.4, 11.0, 11.0, 11.0, 20.7, 24.1, 17.8),
            (1.9, 2.0, 1.9, 1.9, 1.9, 18.5, 2.3, 13.9),
        ],
    ),
}
