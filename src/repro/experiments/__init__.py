"""One module per paper table and figure.

``run_all(lab)`` regenerates every result; ``run_all_guarded(lab)``
does the same under fault isolation (per-experiment timeout, retry,
checkpoint/resume) and reports
:class:`~repro.runtime.guard.ExperimentOutcome` objects instead of
letting one failure kill the batch.  Each module also exposes a
standalone ``run(lab)``.  See DESIGN.md's per-experiment index for the
mapping from paper artifact to module, and EXPERIMENTS.md for the
recorded paper-vs-measured values.
"""

from repro.experiments.base import (
    Comparison,
    ExperimentResult,
    EXPERIMENT_MODULES,
    get_runner,
    load_all,
    run_all,
    run_all_guarded,
)

__all__ = [
    "Comparison",
    "EXPERIMENT_MODULES",
    "ExperimentResult",
    "get_runner",
    "load_all",
    "run_all",
    "run_all_guarded",
]
