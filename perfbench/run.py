#!/usr/bin/env python3
"""RIM benchmark: one command for the batch, live-fleet and wire workloads.

Run from the repository root::

    python3 perfbench/run.py --workload batch_office --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with ``repro.obs`` off.
``--trace 1`` runs the workload twice, untraced and then traced, and
reports the per-layer metrics and the tracing overhead between the two.
A human-readable report goes to standard output; its last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every served output matched its oracle.

Inputs are simulated once and cached, digest-checked, under
``.perfbench_cache/`` in the repository root.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
WORKLOAD_NAMES = ("batch_office", "live_fleet", "wire_replay")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # Everything the run writes stays inside the checkout: the native DP
    # kernel's build cache included.
    os.environ["RIM_DP_CACHE_DIR"] = str(CACHE / "dptrack")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from rimbench.stats import BLAS_THREAD_VARS

    # One BLAS thread per process: the fleet's workers and the generator
    # share the host's cores, and spinning BLAS threads would oversubscribe
    # them.  Set before NumPy loads; recorded in the host fingerprint.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from rimbench import inputs, layers, report, stats, workloads

    work_dir = CACHE / "run" / f"{args.workload}-{os.getpid()}"
    ctx = workloads.Context(
        root=ROOT,
        cache=inputs.InputCache(CACHE),
        seed=args.seed,
        seconds=args.seconds,
        work_dir=work_dir,
    )
    run = workloads.WORKLOADS[args.workload]
    try:
        workloads.prepare_inputs(ctx)
        host = stats.host_fingerprint()
        if args.trace:
            untraced = run(ctx, traced=False)
            traced = run(ctx, traced=True)
            outcomes = [untraced, traced]
            metrics, missing = report.layer_metrics(
                args.workload, untraced, traced, str(host["mp_start_method"])
            )
            units = dict(layers.LAYER_UNITS)
        else:
            outcome = run(ctx, traced=False)
            outcomes = [outcome]
            metrics = {name: outcome.metrics[name] for name, _ in report.END_TO_END}
            missing = []
            units = dict(report.END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if ctx.cache.generated:
        print(f"generated inputs: {', '.join(ctx.cache.generated)}")
    for line in report.render(
        args.workload, args.seed, args.seconds, host, outcomes, metrics, units, missing
    ):
        print(line)
    print(report.result_line(outcomes, metrics, units), flush=True)
    return 0 if all(o.failed == 0 for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
