"""Per-table experiment configurations and runners.

Every table (1-12) of the paper's evaluation, and every ablation from its
text, is one entry of ``CATALOGUE`` (see :mod:`repro.experiments.tables`)
with a function that runs the simulations and returns structured rows;
the CLI, the report, the fidelity scorer and the benchmark harness under
``benchmarks/`` all read the catalogue.
"""

from repro.experiments.paper import PAPER
from repro.experiments.runner import (
    CONFIGURATIONS,
    Configuration,
    ExperimentSettings,
    run_configuration,
)
from repro.experiments.tables import (
    CATALOGUE,
    Experiment,
    ablation_checkpointing,
    ablation_disk_scheduling,
    ablation_hotspot,
    ablation_interconnect,
    ablation_overwriting_variants,
    ablation_version_selection,
    table1_logging_impact,
    table2_log_utilization,
    table3_parallel_logging,
    table4_shadow_impact,
    table5_shadow_utilization,
    table6_pt_buffer,
    table7_sequential_shadow,
    table8_random_overwriting,
    table9_differential_impact,
    table10_output_fraction,
    table11_differential_size,
    table12_comparison,
)

__all__ = [
    "CATALOGUE",
    "CONFIGURATIONS",
    "Configuration",
    "Experiment",
    "ExperimentSettings",
    "PAPER",
    "ablation_checkpointing",
    "ablation_disk_scheduling",
    "ablation_hotspot",
    "ablation_interconnect",
    "ablation_overwriting_variants",
    "ablation_version_selection",
    "run_configuration",
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
