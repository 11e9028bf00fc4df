"""Shared plumbing for the benchmark harness.

Every ``bench_*`` module declares a :class:`repro.bench.Grid` (directly,
or through :func:`table_grid` for the paper-table benchmarks, which takes
its title, row labels and paper reference from the experiment's
:data:`repro.experiments.tables.CATALOGUE` entry) and runs it through
:func:`run_grid_bench`: the grid executes exactly once under
pytest-benchmark (``pedantic`` with one round — the interesting number is
the *simulated* result, the wall-clock time is a bonus), prints the
measured rows next to the paper's, writes the text to
``benchmarks/output/<name>.txt`` so results survive pytest's capture,
and writes the schema-validated ``BENCH_<name>.json`` trajectory
artifact at the repo root and in ``benchmarks/output/``.

Run the whole harness with::

    pytest benchmarks/ --benchmark-only

or, without pytest, ``python -m repro bench`` (see ``docs/BENCH.md``).
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import (
    Grid,
    GridResult,
    render_grid,
    run_grid,
    write_grid_artifacts,
)
from repro.experiments import ExperimentSettings
from repro.experiments.tables import CATALOGUE, paper_rows, render

#: Master seed for the benchmark harness: every table draws the same
#: transaction streams, so numbers are comparable across runs and machines.
BENCH_SEED = 1985

#: Load size for benchmark runs; large enough for stable shapes.
BENCH_SETTINGS = ExperimentSettings(n_transactions=30, seed=BENCH_SEED)

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

#: Repository root — the committed ``BENCH_<name>.json`` baselines live
#: here so ``repro bench-diff`` can read the perf trajectory out of git.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def flatten_rows(
    rows: Sequence[Dict[str, Any]], label_field: str
) -> Dict[str, float]:
    """Flatten table rows to ``{label}.{field}`` metrics plus means.

    Fields named ``paper*`` are reference numbers from the paper, not
    measurements — they are excluded so the trajectory gate only watches
    what the simulator actually produced.
    """
    metrics: Dict[str, float] = {}
    sums: Dict[str, List[float]] = {}
    for row in rows:
        label = str(row[label_field]).replace(" ", "_")
        for field, value in row.items():
            if field == label_field or field.startswith("paper"):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metrics[f"{label}.{field}"] = float(value)
            sums.setdefault(field, []).append(float(value))
    for field, values in sums.items():
        metrics[f"mean.{field}"] = round(sum(values) / len(values), 9)
    return metrics


def run_table_cell(
    key: str, params: Dict[str, Any], seed: int
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Grid runner for a catalogued experiment (module-level: picklable)."""
    del params  # table grids have no axes; the table is the sweep
    entry = CATALOGUE[key]
    result = entry.run(BENCH_SETTINGS.with_overrides(seed=seed))
    metrics = flatten_rows(result["rows"], entry.label_field)
    detail = {"title": result.get("title", ""), "rows": result["rows"]}
    return metrics, detail


def table_grid(
    name: str,
    key: str,
    *,
    primary_metric: str,
    seed: int,
    tolerance: float = 0.15,
    higher_is_better: bool = False,
) -> Grid:
    """A single-cell grid wrapping the catalogue experiment ``key``."""
    return Grid(
        name=name,
        title=CATALOGUE[key].title,
        seed=seed,
        runner=functools.partial(run_table_cell, key),
        primary_metric=primary_metric,
        tolerance=tolerance,
        higher_is_better=higher_is_better,
    )


def table_text(result: GridResult) -> str:
    """A table grid's cell, then its paper reference, both via ``render``.

    :func:`table_grid` binds the catalogue key as the runner's argument.
    """
    entry = CATALOGUE[result.grid.runner.args[0]]
    text = render(result.cells[0].detail)
    if entry.paper:
        text += "\n\nPaper:\n" + render({"rows": paper_rows(entry)})
    return text


def run_grid_bench(
    benchmark,
    grid: Grid,
    paper_text: Optional[str] = None,
    text_fn: Optional[Callable[[GridResult], str]] = None,
) -> GridResult:
    """Run ``grid`` once under the benchmark fixture and report it."""
    result = benchmark.pedantic(
        lambda: run_grid(grid), rounds=1, iterations=1
    )
    text = (text_fn or render_grid)(result)
    if paper_text:
        text += "\n\n" + paper_text
    print()
    print(text)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, f"{grid.name}.txt"), "w") as handle:
        handle.write(text + "\n")
    write_grid_artifacts(result, OUTPUT_DIR, baseline_dir=REPO_ROOT)
    return result
