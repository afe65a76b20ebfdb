"""Experiment infrastructure.

Every paper table/figure gets one module exposing ``run(lab)`` that
returns an :class:`ExperimentResult`: the regenerated rows, plus
explicit paper-vs-measured :class:`Comparison` entries.  The benchmark
harness and EXPERIMENTS.md generator both iterate the registry.

The reproduction contract (DESIGN.md section 8): absolute numbers are
not expected to match a proprietary testbed, but each comparison
records whether the measured value lands within a stated tolerance of
the paper's, and ordering/shape checks are encoded as comparisons too.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.report import render_table
from repro.lab import Lab
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.guard import (
    ExperimentOutcome,
    GuardConfig,
    run_guarded,
    skipped_outcome,
)


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured check."""

    metric: str
    paper: float
    measured: float
    #: Relative tolerance for `ok` (interpreted against `paper` unless
    #: paper is 0, then absolute).
    rel_tol: float = 0.5

    @property
    def ok(self) -> bool:
        if self.paper == 0:
            return abs(self.measured) <= self.rel_tol
        return abs(self.measured - self.paper) <= self.rel_tol * abs(self.paper)

    def as_row(self) -> List:
        return [
            self.metric,
            f"{self.paper:g}",
            f"{self.measured:g}",
            "ok" if self.ok else "DIVERGES",
        ]


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence]
    comparisons: List[Comparison] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable report: the table plus the comparison block."""
        parts = [
            render_table(
                self.headers, self.rows, title=f"{self.experiment_id}: {self.title}"
            )
        ]
        if self.comparisons:
            parts.append("")
            parts.append(
                render_table(
                    ["metric", "paper", "measured", "verdict"],
                    [c.as_row() for c in self.comparisons],
                    title="paper vs measured",
                )
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    @property
    def all_ok(self) -> bool:
        return all(comparison.ok for comparison in self.comparisons)


#: Registry of experiment ids -> runner callables.
_REGISTRY: Dict[str, Callable[[Lab], ExperimentResult]] = {}

#: Module names under repro.experiments, in paper order.
EXPERIMENT_MODULES = [
    "table1_related",
    "table2_datasets",
    "fig1_api_adoption",
    "fig2_ratio_cdf",
    "fig3_threshold_sensitivity",
    "table3_validation",
    "table4_subnets_by_continent",
    "fig4_asn_distributions",
    "table5_as_filtering",
    "table6_ases_by_continent",
    "fig5_mixed_cdf",
    "fig6_case_studies",
    "fig7_ranked_as_demand",
    "table7_top_ases",
    "fig8_subnet_concentration",
    "fig9_resolver_sharing",
    "fig10_public_dns",
    "table8_continent_demand",
    "fig11_country_demand",
    "fig12_country_scatter",
    "ipv6_deployment",
    "industry_comparison",
    "findings_summary",
    "vantage_point",
    "evolution_churn",
]


def experiment(experiment_id: str):
    """Decorator registering a ``run(lab)`` function under an id."""

    def decorate(func: Callable[[Lab], ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id}")
        _REGISTRY[experiment_id] = func
        return func

    return decorate


def load_all() -> Dict[str, Callable[[Lab], ExperimentResult]]:
    """Import every experiment module and return the filled registry."""
    for module in EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{module}")
    return dict(_REGISTRY)


def get_runner(experiment_id: str) -> Callable[[Lab], ExperimentResult]:
    load_all()
    return _REGISTRY[experiment_id]


def run_all(lab: Lab) -> Dict[str, ExperimentResult]:
    """Run every registered experiment against one lab.

    Strict mode: the first raising experiment propagates.  Batch
    entrypoints that must always complete (``cellspot all``) use
    :func:`run_all_guarded` instead.
    """
    runners = load_all()
    return {
        experiment_id: runner(lab)
        for experiment_id, runner in runners.items()
    }


def run_all_guarded(
    lab: Lab,
    guard: GuardConfig = GuardConfig(),
    checkpoint: Optional[CheckpointStore] = None,
) -> Dict[str, ExperimentOutcome]:
    """Run every experiment under fault isolation.

    One experiment raising, hanging past the guard's timeout, or
    flaking transiently no longer kills the batch: each gets an
    explicit :class:`~repro.runtime.guard.ExperimentOutcome` and the
    rest still run.  With ``checkpoint``, completed experiments are
    marked done as the run goes, and experiments already marked done
    come back as ``skipped`` -- the crash-then-resume path of
    ``cellspot all --checkpoint``.  Each call passes the
    ``experiment.<id>`` fault site inside the guard, so a fault plan
    can force one experiment to fail.
    """
    # Imported on use, so ``import repro.cli`` stays as light as before.
    from repro.runtime.faults import fault_point

    runners = load_all()
    outcomes: Dict[str, ExperimentOutcome] = {}
    for experiment_id, runner in runners.items():
        if checkpoint is not None and checkpoint.is_done(experiment_id):
            outcomes[experiment_id] = skipped_outcome(
                experiment_id, "completed in a previous run"
            )
            continue

        def invoke(runner=runner, experiment_id=experiment_id):
            fault_point(f"experiment.{experiment_id}")
            return runner(lab)

        outcome = run_guarded(experiment_id, invoke, guard)
        outcomes[experiment_id] = outcome
        if checkpoint is not None and outcome.ok:
            checkpoint.mark_done(
                experiment_id,
                status=outcome.status.value,
                duration_s=outcome.duration_s,
            )
    return outcomes
