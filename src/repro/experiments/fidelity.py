"""Fidelity scoring: how close is the reproduction to the paper, overall?

``fidelity_summary`` runs a set of paper tables, pairs every measured cell
with its published counterpart, and reports per-table and overall mean
absolute relative error — a single number tracking whether model changes
move the reproduction toward or away from the paper.  Exposed as
``python -m repro fidelity``.

Each table in :data:`repro.experiments.tables.CATALOGUE` names the
columns it scores; :func:`pair_cells` pairs those cells of every measured
row with the paper's value under the same row label and column name.
Tables 3 and 5 score none, so the summary covers 122 cells across ten
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import ExperimentSettings
from repro.experiments.tables import TABLES, Experiment

__all__ = ["CellComparison", "FidelityReport", "fidelity_summary", "pair_cells"]


@dataclass(frozen=True)
class CellComparison:
    table: str
    cell: str
    measured: float
    paper: float

    @property
    def relative_error(self) -> float:
        if self.paper == 0:
            return 0.0 if self.measured == 0 else 1.0
        return abs(self.measured - self.paper) / abs(self.paper)


@dataclass
class FidelityReport:
    cells: List[CellComparison]

    @property
    def mean_relative_error(self) -> float:
        if not self.cells:
            return 0.0
        return sum(cell.relative_error for cell in self.cells) / len(self.cells)

    def by_table(self) -> Dict[str, float]:
        groups: Dict[str, List[float]] = {}
        for cell in self.cells:
            groups.setdefault(cell.table, []).append(cell.relative_error)
        return {
            table: sum(errors) / len(errors) for table, errors in sorted(groups.items())
        }

    def worst(self, n: int = 5) -> List[CellComparison]:
        return sorted(self.cells, key=lambda c: -c.relative_error)[:n]

    def render(self) -> str:
        lines = [
            f"fidelity over {len(self.cells)} paper cells: "
            f"mean |relative error| = {self.mean_relative_error:.1%}",
            "",
            "per table:",
        ]
        for table, error in self.by_table().items():
            lines.append(f"  {table:<8} {error:.1%}")
        lines.append("")
        lines.append("worst cells:")
        for cell in self.worst():
            lines.append(
                f"  {cell.table} {cell.cell}: measured {cell.measured:.2f} "
                f"vs paper {cell.paper:.2f} ({cell.relative_error:.0%})"
            )
        return "\n".join(lines)


def pair_cells(entry: Experiment, rows: List[Dict]) -> List[CellComparison]:
    """Pair every scored cell of ``rows`` with ``entry``'s paper value."""
    cells = []
    for row in rows:
        label = row[entry.label_field]
        for column in entry.scored:
            cells.append(
                CellComparison(
                    entry.key, f"{label}/{column}", row[column], entry.paper[label][column]
                )
            )
    return cells


def fidelity_summary(
    settings: Optional[ExperimentSettings] = None,
    tables: Optional[Tuple[str, ...]] = None,
) -> FidelityReport:
    """Run the pairable tables and score measured vs paper cell by cell."""
    settings = settings or ExperimentSettings()
    cells: List[CellComparison] = []
    for entry in TABLES:
        if entry.scored and (tables is None or entry.key in tables):
            cells += pair_cells(entry, entry.run(settings)["rows"])
    return FidelityReport(cells)
