"""Experiment running, figure/table generation, sweeps and the CLI."""

from .experiments import (
    ExperimentResult,
    PairResult,
    run_experiment,
    run_pair,
    run_paper_matrix,
    run_workload,
)
from .export import export_paper_results, paper_results
from .fuzz import (
    FuzzCase,
    FuzzReport,
    fuzz,
    generate_case,
    render_case,
    run_case,
    shrink_case,
)
from .figures import (
    TABLE4_COMPONENTS,
    fig2_motivating,
    fig3_energy,
    fig4_delay,
    standby_summary,
    table4_wakeups,
)
from .replication import (
    MetricStats,
    ReplicatedPair,
    replicate_matrix,
    replicate_pair,
)
from .timeline import render_timeline
from .tradeoff import TradeoffPoint, pareto_front, tradeoff_frontier
from .validation import CheckResult, render_validation, run_validation
from .report import (
    format_table,
    render_all,
    render_fig2,
    render_fig3,
    render_fig4,
    render_summary,
    render_table4,
)
from .sweep import (
    beta_sweep,
    bucket_sweep,
    classifier_sweep,
    duration_sweep,
    scale_sweep,
    sensitivity_sweep,
)

__all__ = [
    "ExperimentResult",
    "PairResult",
    "run_experiment",
    "run_pair",
    "run_paper_matrix",
    "run_workload",
    "export_paper_results",
    "paper_results",
    "FuzzCase",
    "FuzzReport",
    "fuzz",
    "generate_case",
    "render_case",
    "run_case",
    "shrink_case",
    "TABLE4_COMPONENTS",
    "fig2_motivating",
    "fig3_energy",
    "fig4_delay",
    "standby_summary",
    "table4_wakeups",
    "MetricStats",
    "ReplicatedPair",
    "replicate_matrix",
    "replicate_pair",
    "render_timeline",
    "TradeoffPoint",
    "pareto_front",
    "tradeoff_frontier",
    "CheckResult",
    "render_validation",
    "run_validation",
    "format_table",
    "render_all",
    "render_fig2",
    "render_fig3",
    "render_fig4",
    "render_summary",
    "render_table4",
    "beta_sweep",
    "bucket_sweep",
    "sensitivity_sweep",
    "classifier_sweep",
    "duration_sweep",
    "scale_sweep",
]
