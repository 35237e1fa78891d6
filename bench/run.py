"""trinogen benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload scan-box --seed 1 --seconds 20 --trace 0

The program is driven in-process through ``trinogen.cli.main`` with ``src``
on ``sys.path``; no installation is needed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Workloads are listed in
``bench/workloads.py`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _interrupt(signum, frame):
    # Unwinds like Ctrl-C, so a running pass is stopped and waited for.
    raise KeyboardInterrupt


def main() -> int:
    signal.signal(signal.SIGTERM, _interrupt)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "trinogen" / "cli.py").is_file():
        print(f"error: no trinogen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # needs trinogen on the path
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
