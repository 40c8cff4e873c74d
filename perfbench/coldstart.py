"""A cold process's campaign set-up: the body of the ``setup_s`` metric.

Run as ``python3 perfbench/coldstart.py SPEC.json``.  It imports
``repro``, loads the sweep spec, expands its grid and runs the first
point once — the warm-up that fills process-wide caches such as the
shared rule automaton.  The caller times the whole process, interpreter
start included.  Exits non-zero if the warm-up point does not finish ok.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.runner import SweepSpec  # noqa: E402
from repro.runner.worker import run_point  # noqa: E402


def main(spec_path: str) -> int:
    points = SweepSpec.load(spec_path).points()
    record = run_point(points[0].as_dict(), in_process=True)
    return 0 if record["status"] == "ok" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
