"""Benchmark of the PPR reproduction: cold, warm and sharded-sweep runs.

Run from the repository root::

    python3 perfbench/run.py --workload quick_cold --seed 2007 --seconds 20 --trace 0

``--trace 0`` times whole passes of the workload with nothing wrapped
and prints the end-to-end metrics; ``--trace 1`` runs one untraced and
one traced pass and prints the per-layer metrics, with the tracing
overhead as the ratio of the two.  Either way every output is checked,
and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

Workloads (see ``workloads.py`` and ``README.md`` beside this file):
``quick_cold``, ``quick_warm``, ``load_sweep``.  The program is
imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("quick_cold", "quick_warm", "load_sweep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sim-duration",
        type=float,
        default=15.0,
        help="simulated seconds per point (default: the runner's --quick, "
        "15); the self-test shrinks it",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # exit through the finally blocks, which stop and reap every child
    # process (subprocess.run kills its child when interrupted)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import harness

    harness.WORK.mkdir(exist_ok=True)
    run = harness.Run(args.workload, args.seed, args.seconds, args.sim_duration)
    try:
        metrics = run.trace() if args.trace else run.measure()
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
