"""One fresh interpreter: import ``repro``, then measured passes of one
workload until the time budget is used.

``run.py`` starts this file once per repeat: a second in-process build
inherits the first one's heap (measured: an n = 10^5 population built
4x slower the second time), ``ru_maxrss`` is per process, and each
interpreter draws its own memory layout.  Prints one JSON object on the
last line of stdout.  ``repro`` comes from ``PYTHONPATH``, which
``run.py`` sets.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
IMPORT_REFERENCE_S = 0.2
WARM_UP_SCALE = 0.1


def main() -> int:
    born = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--extra", choices=("pool_speedup",))
    args = parser.parse_args()

    # One core for all threads of this interpreter: the GIL lets one of
    # them run at a time anyway, and handing it from core to core made
    # the live cluster's rounds flip between 18 and 45 ms for minutes
    # at a time (README, "How a value is made").
    if args.extra is None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    started = perf_counter()
    import repro  # noqa: F401  (timed: what a user's first import pays)
    import_s = perf_counter() - started

    import workloads
    from spans import Reference

    if args.extra == "pool_speedup":
        print(json.dumps({"pool_speedup_jobs2":
                          workloads.pool_speedup_jobs2(args.seed, args.scale)}))
        return 0

    # The speed of the machine right after the import.
    import_reference = Reference(every_s=0.0)
    until = perf_counter() + IMPORT_REFERENCE_S
    while perf_counter() < until:
        import_reference.sample()

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Lazy imports and first-call set-up are paid once per process, not
    # per run: a small unmeasured pass takes them out of the first
    # measured one.
    workloads.run_pass(
        args.workload, args.seed, WARM_UP_SCALE * args.scale, False, workdir)
    # A traced repeat alternates untraced and traced passes, so both
    # kinds see the same machine and their run_s difference is the
    # tracing overhead.
    kinds = (False, True) if args.trace else (False,)
    passes = []
    deadline = born + args.seconds
    while True:
        cycle_started = perf_counter()
        for traced in kinds:
            gc.collect()
            one = workloads.run_pass(
                args.workload, args.seed, args.scale, traced, workdir)
            one["traced"] = traced
            passes.append(one)
        now = perf_counter()
        # Start another cycle only if at least half of it fits, so the
        # measured time averages the budget instead of overshooting it.
        if deadline - now < (now - cycle_started) / 2:
            break
    print(json.dumps({
        "import_s": import_s,
        "import_reference_s": import_reference.mean_s(),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
