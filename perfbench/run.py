"""Campaign benchmark: serial sweep campaigns, timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lossy_scan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: five cold
set-ups, one warm-up point, then back-to-back campaigns of the workload
until ``--seconds`` of campaign wall time have passed.  ``--trace 1``
measures the per-layer split instead: it runs campaigns untraced for half
of ``--seconds``, then runs the same campaigns again with every layer
entry point wrapped in a span, and reports each layer's self time, the
layer counts read from the point records, and the tracing overhead.

Both modes check every campaign's outputs (see ``campaign.py``), print a
human-readable summary, and end with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import List, Optional

from workloads import WORKLOADS  # this script's directory leads sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: scratch space for campaign files; each run's directory is removed.
WORK_ROOT = os.path.join(HERE, "_work")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bench import Bench, timed_run, traced_run

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, workdir)
        result = traced_run(bench) if args.trace else timed_run(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
