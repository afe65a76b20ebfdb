"""The ``census`` workload: one ``cellspot all`` batch job.

Untraced, it runs the CLI exactly as a researcher would (default
serial, uncached path) and reads wall time, CPU and peak RSS from
``wait4``.  Traced, it runs the same CLI job, then the same census
in-process with every census layer wrapped (``layers.Tracer``), and
checks that the two renderings are byte-equal.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BenchError,
    log,
    median,
    program_env,
    timed_run,
)

SCALE = 0.005
SETUP_LAUNCHES = 5
JOB_TIMEOUT_S = 150.0
_SUMMARY_ROW = re.compile(r"^(\S+)\s+\| (\S+)\s+\|")

#: Census layers, traced in-process; memory marks the stages whose
#: VmHWM rise becomes ``mem.<stage>_mb``.
CENSUS_LAYERS = [
    ("world.build", "world"),
    ("cdn.beacons", "cdn"),
    ("cdn.demand", "cdn"),
    ("core.ratios", "core"),
    ("core.classify", "core"),
    ("core.as_ident", "core"),
    ("core.operators", "core"),
    ("dns.affinity", "dns"),
]


def measure_setup(env: Dict[str, str]) -> Tuple[float, List[float]]:
    """Interpreter start + ``import repro.cli``, median of launches."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        run = timed_run(
            [sys.executable, "-c", "import repro.cli"], env,
            subprocess.DEVNULL, 60.0,
        )
        if run["code"] != 0:
            raise BenchError(f"import repro.cli failed: {run['stderr'][-400:]}")
        samples.append(run["wall_s"])
    return median(samples), samples


def run_cli(seed: int, env: Dict[str, str], workdir: Path) -> Dict:
    """``cellspot all`` once; returns timings, exit code and stdout."""
    out_path = workdir / "census.out"
    with open(out_path, "wb") as stdout:
        run = timed_run(
            [sys.executable, "-m", "repro.cli", "all",
             "--scale", str(SCALE), "--seed", str(seed)],
            env, stdout, JOB_TIMEOUT_S,
        )
    run["stdout"] = out_path.read_text()
    return run


def split_report(stdout: str) -> Tuple[str, Dict[str, str]]:
    """CLI stdout -> (experiment renderings, {experiment: status})."""
    marker = stdout.rfind("run summary\n")
    if marker < 0:
        return stdout, {}
    statuses = {}
    for line in stdout[marker:].splitlines():
        match = _SUMMARY_ROW.match(line)
        if match and match.group(1) != "experiment":
            statuses[match.group(1)] = match.group(2)
    return stdout[:marker], statuses


def experiment_ids() -> List[str]:
    from repro.experiments.base import load_all

    return list(load_all())


def check_cli(run: Dict, expected_ids: List[str]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) for one CLI census run."""
    _renderings, statuses = split_report(run["stdout"])
    problems = []
    if run["code"] != 0:
        problems.append(f"cellspot all exited {run['code']}")
    failed = 0
    for experiment_id in expected_ids:
        status = statuses.get(experiment_id)
        if status != "ok":
            failed += 1
            problems.append(f"{experiment_id}: {status or 'missing'}")
    return len(expected_ids), failed, problems


def traced_census(seed: int) -> Tuple[str, Dict, float]:
    """The census in-process with every layer wrapped.

    Returns (rendering, per-layer metrics, traced wall seconds).
    """
    import layers
    from repro.experiments import base
    from repro.lab import Lab
    from repro.runtime.guard import GuardConfig, OutcomeStatus

    # Import every experiment first, so their by-name imports of layer
    # functions get wrapped too; `run_all_guarded` asks `load_all` for
    # the runners.
    originals = base.load_all()
    tracer = layers.Tracer()
    beacon_hits = []
    for name, _stage in CENSUS_LAYERS:
        on_result = (
            (lambda dataset: beacon_hits.append(dataset.total_hits))
            if name == "cdn.beacons" else None
        )
        tracer.trace(name, on_result=on_result, memory=True)
    traced_runners = {
        experiment_id: tracer.wrap_callable(
            f"exp.{experiment_id}", runner, memory=True)
        for experiment_id, runner in originals.items()
    }
    real_load_all = base.load_all
    base.load_all = lambda: dict(traced_runners)
    try:
        started = time.perf_counter()
        lab = Lab.create(scale=SCALE, seed=seed)
        # The same guard `cellspot all` builds from its defaults.
        outcomes = base.run_all_guarded(
            lab, GuardConfig(timeout_s=None, retries=1)
        )
        parts = []
        for outcome in outcomes.values():
            if outcome.ok:
                parts.append(outcome.result.render() + "\n\n")
            elif outcome.status is not OutcomeStatus.SKIPPED:
                parts.append(f"[{outcome.experiment_id}] "
                             f"{outcome.status.value}: {outcome.error}\n\n")
        rendering = "".join(parts)
        traced_wall = time.perf_counter() - started
    finally:
        base.load_all = real_load_all
        tracer.remove()

    metrics: Dict[str, tuple] = {}
    for name, _stage in CENSUS_LAYERS:
        metrics[f"{name}_s"] = (
            tracer.self_s.get(name, 0.0), "s")
    metrics["cdn.beacon_hits"] = (float(sum(beacon_hits)), "count")
    for experiment_id in originals:
        metrics[f"exp.{experiment_id}_s"] = (
            tracer.self_s.get(f"exp.{experiment_id}", 0.0), "s")
    stage_rise: Dict[str, float] = {}
    for name, stage in CENSUS_LAYERS:
        stage_rise[stage] = stage_rise.get(stage, 0.0) + tracer.hwm_rise_mb[name]
    # An experiment's rise includes the layers it triggered; subtract
    # them so each MiB is charged to one stage.
    exp_rise = sum(
        tracer.hwm_rise_mb[f"exp.{experiment_id}"] for experiment_id in originals
    )
    nested = sum(stage_rise.values()) - stage_rise["world"]
    stage_rise["exp"] = max(0.0, exp_rise - nested)
    for stage, rise in stage_rise.items():
        metrics[f"mem.{stage}_mb"] = (rise, "MB")
    metrics["census.traced_s"] = (traced_wall, "s")
    metrics["census.unattributed_s"] = (
        traced_wall - tracer.attributed_s(), "s")
    return rendering, metrics, traced_wall


def run(seed: int, trace: bool, delay: Optional[str], workdir: Path) -> Dict:
    env = program_env(delay)
    expected_ids = experiment_ids()
    result: Dict = {"metrics": {}, "report": {}}
    if not trace:
        setup_s, setup_samples = measure_setup(env)
        result["report"]["setup_samples_s"] = setup_samples
    log(f"census: cellspot all --scale {SCALE} --seed {seed}")
    cli = run_cli(seed, env, workdir)
    attempted, failed, problems = check_cli(cli, expected_ids)
    report = result["report"]
    report.update({
        "census_s": cli["wall_s"],
        "census_cpu_s": cli["cpu_s"],
        "peak_rss_mb": cli["rss_mb"],
        "experiments": attempted,
        "experiments_failed": failed,
    })
    if trace:
        log("census: traced in-process run")
        rendering, layer_metrics, traced_wall = traced_census(seed)
        cli_rendering, _statuses = split_report(cli["stdout"])
        attempted += 1  # the byte-equality check
        if rendering != cli_rendering:
            failed += 1
            problems.append("CLI report differs from the in-process rendering")
        layer_metrics["trace.overhead"] = (traced_wall / cli["wall_s"], "ratio")
        report["traced_s"] = traced_wall
        report["tracing_overhead"] = traced_wall / cli["wall_s"]
        result["metrics"].update(layer_metrics)
    else:
        result["metrics"].update({
            "setup_s": (setup_s, "s"),
            "job_s": (cli["wall_s"], "s"),
            "peak_rss_mb": (cli["rss_mb"], "MB"),
        })
    report["problems"] = problems
    result.update(attempted=attempted, failed=failed)
    return result
