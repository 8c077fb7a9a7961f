"""Experiment drivers: one per table/figure of the paper's evaluation.

Each driver builds a fresh simulated testbed at a chosen
:class:`~repro.experiments.configs.ExperimentScale`, runs the paper's
workload grid, and returns an :class:`~repro.experiments.report.ExperimentReport`
whose rows mirror the paper's table/figure (``report.render()`` prints it).
"""

from repro.experiments.configs import SMALL, TINY, ExperimentScale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed
from repro.experiments.figures import fig2, fig3, fig4, fig5, fig6
from repro.experiments.tables import (
    table1,
    table3,
    table4,
    table5,
    table6,
    table7,
    checkpoint_experiment,
)
from repro.experiments.cache_tiering import cache_tiering
from repro.experiments.cost import cost_analysis
from repro.experiments.explicit import explicit_vs_swap
from repro.experiments.faults import faults
from repro.experiments.lifecycle import ckpt_lifecycle
from repro.experiments.parallel import Orchestrator, RunOutcome, check_identity
from repro.experiments.resultcache import ResultCache
from repro.experiments.slo_traffic import slo_traffic

__all__ = [
    "ExperimentReport",
    "ExperimentScale",
    "Orchestrator",
    "ResultCache",
    "RunOutcome",
    "SMALL",
    "TINY",
    "Testbed",
    "cache_tiering",
    "check_identity",
    "checkpoint_experiment",
    "ckpt_lifecycle",
    "cost_analysis",
    "explicit_vs_swap",
    "faults",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "slo_traffic",
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
]
