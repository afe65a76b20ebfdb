"""The repository's benchmark: ``census``, ``lookup``, ``lookup_ingest``.

Run from the repository root::

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

``--trace 0`` drives the program through its real entry points with
nothing wrapped and prints the end-to-end metrics; ``--trace 1`` runs
the same workload and then times each layer's public calls from
outside (``layers.py``) and prints the per-layer metrics.  Both print
a ``report`` line with every figure (sample counts, rates, input
sizes, tracing overhead) and then the result line: one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--delay LAYER:SECONDS`` slows one layer's public call in every
process of the program (the sensitivity self-check, ``selfcheck.py``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402 -- after the path tweak
    BenchError,
    become_subreaper,
    benchmark_spec,
    checkout_root,
    emit,
    log,
    make_workdir,
    remove_workdir,
)

WORKLOADS = ("census", "lookup", "lookup_ingest")


def _args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay", default=None, metavar="LAYER:SECONDS")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    try:
        root = checkout_root()
        sys.path.insert(0, str(root / "src"))
        spec = benchmark_spec()
        if args.delay:
            from layers import parse_delay

            parse_delay(args.delay)  # reject a bad spec before any work
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    become_subreaper()
    workdir = make_workdir(args.workload)
    started = time.perf_counter()
    # The delay applies in this process too, so traced in-process
    # timings see it like the program's own processes do.
    from layers import install_delay

    undo_delay = install_delay(args.delay)
    try:
        if args.workload == "census":
            import census

            outcome = census.run(args.seed, bool(args.trace), args.delay, workdir)
        else:
            import lookup

            runner = (lookup.run_lookup if args.workload == "lookup"
                      else lookup.run_ingest)
            outcome = runner(args.seed, args.seconds, bool(args.trace),
                             args.delay, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        undo_delay()
        remove_workdir(workdir)
    metrics = outcome["metrics"]
    if args.trace:
        # A layer this workload never calls did no work in it.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in names:
            metrics.setdefault(name, (0.0, units[name]))
    report = outcome["report"]
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  delay=args.delay, run_s=time.perf_counter() - started)
    correct = outcome.get("valid", True) and outcome["failed"] == 0
    log(f"perfbench: {args.workload} seed {args.seed} done in "
        f"{report['run_s']:.1f}s, {outcome['failed']} of "
        f"{outcome['attempted']} failed")
    emit(correct, outcome["attempted"], outcome["failed"], metrics, names,
         report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
