"""Sensitivity self-check: slow one layer, see it flagged there only.

Run from the repository root (about 27 minutes on a 2-core host)::

    python3 perfbench/selfcheck.py --seed 3

For each case a fixed delay is spun before every call of one layer's
public function, in every process of the program (``run.py --delay``,
via ``inject/sitecustomize.py``).  The case passes when, against an
undelayed baseline on the same seed,

- the layer's own per-layer metric rises by more than 25% and the
  predicted end-to-end metric by more than its ``BENCHMARK.json``
  bound;
- no other per-layer metric of that workload moves the wrong way (up
  if lower is better, down if higher is better, as ``BENCHMARK.json``
  says) by more than 25% plus a small absolute floor per unit, except
  the totals that contain the delayed call;
- the end-to-end metrics of the workloads that never call the layer
  stay within their bounds.  ``setup_s`` is left out of this last
  test: the injected fault itself imports the delayed layer's module
  at every interpreter start (``inject/sitecustomize.py``), which is
  start-up work the undelayed program does not do.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: name -> (delay, workload, per-layer metric, per-layer totals that
#: contain the call, predicted end-to-end metric, workloads that never
#: call the layer)
CASES = {
    "dns": ("dns.affinity:8.0", "census", "dns.affinity_s",
            ["census.traced_s"], "job_s", ["lookup", "lookup_ingest"]),
    "query": ("serve.query:0.00004", "lookup", "serve.query_us",
              ["scale.worker_line1_us", "scale.worker_line32_us",
               "load.p50_ms", "load.p90_ms", "load.p99_ms"],
              "job_s", ["census"]),
    # The spin burns the builder's CPU, which the workers share, so the
    # read-side tail may move with it.
    "ratio_table": ("stream.ratio_table:0.2", "lookup_ingest",
                    "stream.ratio_table_s",
                    ["load.p50_ms", "load.p90_ms", "load.p99_ms"],
                    "job_s", ["census", "lookup"]),
}
FLAG_SHARE = 0.25
#: Absolute slack per unit on top of ``FLAG_SHARE``, so that a metric
#: near zero is not flagged for noise.
FLOOR = {"s": 0.1, "us": 5.0, "ms": 1.0, "MB": 5.0, "1/s": 1000.0,
         "count": 2.0, "ratio": 0.05}
#: Whether each run of a comparison is delayed.  Each side keeps each
#: metric's best value over its two runs, so a burst of host noise in
#: one run cannot fake or hide a move, and the sides alternate, so a
#: drift in the host's speed over minutes falls on both alike.
ORDER = (False, True, True, False)


def run(workload: str, seed: int, trace: int,
        delay: Optional[str]) -> Dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "10", "--trace", str(trace)]
    if delay:
        argv += ["--delay", delay]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{argv} failed: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{argv}: outputs failed their checks")
    label = f"{workload} trace={trace} delay={delay}"
    print(f"  ran {label}", file=sys.stderr, flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def change(base: float, new: float) -> float:
    return (new - base) / base if base else float("inf")


def worse(base: float, new: float, higher: bool, floor: float) -> bool:
    """Did a metric move the wrong way past ``FLAG_SHARE`` and ``floor``?"""
    if higher:
        return new < base * (1 - FLAG_SHARE) - floor
    return new > base * (1 + FLAG_SHARE) + floor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"]: m["better"] == "higher"
              for m in spec["end_to_end"] + spec["per_layer"]}
    floors = {m["name"]: FLOOR[m["unit"]] for m in spec["per_layer"]}

    def best(runs: List[Dict]) -> Dict:
        return {name: (max if higher[name] else min)(r[name] for r in runs)
                for name in runs[0]}

    def paired(workload: str, trace: int, delay: str) -> Tuple[Dict, Dict]:
        """Best undelayed and best delayed metrics, runs alternating."""
        base, slow = [], []
        for delayed in ORDER:
            (slow if delayed else base).append(
                run(workload, args.seed, trace, delay if delayed else None))
        return best(base), best(slow)

    ok = True
    print(f"seed {args.seed}", flush=True)
    lines: List[str] = []
    for case in CASES:
        delay, workload, layer, contains, predicted, bystanders = CASES[case]
        base_layers, slow_layers = paired(workload, 1, delay)
        base_e2e, slow_e2e = paired(workload, 0, delay)
        layer_rise = change(base_layers[layer], slow_layers[layer])
        e2e_rise = change(base_e2e[predicted], slow_e2e[predicted])
        flagged = [
            name for name, value in slow_layers.items()
            if name not in contains
            and worse(base_layers[name], value, higher[name], floors[name])
        ]
        hit = layer_rise > FLAG_SHARE and e2e_rise > bounds[predicted]
        alone = flagged == [layer]
        lines.append(
            f"{case}: --delay {delay} on {workload}: {layer} "
            f"{base_layers[layer]:.4g} -> {slow_layers[layer]:.4g} "
            f"({layer_rise:+.0%}); {predicted} {base_e2e[predicted]:.4g} -> "
            f"{slow_e2e[predicted]:.4g} ({e2e_rise:+.0%}, bound "
            f"{bounds[predicted]:.0%}); layers flagged: {flagged}")
        case_ok = hit and alone
        for other in bystanders:
            base, slow = paired(other, 0, delay)
            moved = {name: change(base[name], slow[name]) for name in bounds
                     if name != "setup_s"
                     and change(base[name], slow[name]) > bounds[name]}
            lines.append(f"  {other}: "
                         + (f"MOVED {moved}" if moved else "within bounds"))
            case_ok = case_ok and not moved
        lines.append(f"  -> {'PASS' if case_ok else 'FAIL'}")
        print("\n".join(lines), flush=True)
        lines = []
        ok = ok and case_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
