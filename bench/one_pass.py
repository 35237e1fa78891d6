"""One timed pass of a workload, in the interpreter this script starts.

    python3 bench/one_pass.py <workload> <seed> <out-file>

The harness runs every timed pass this way, so nothing the program caches
survives from one pass to the next.  The pass is the whole scan box, or each
input of the workload's seeded batch once.  Its result (``harness.ScanPass``
or a list of ``harness.Call``) is pickled to ``out-file``.
"""

from __future__ import annotations

import pickle
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _interrupt(signum, frame):
    # KeyboardInterrupt passes the handlers in harness._invoke and makes the
    # scan shut its pool down on the way out.
    raise KeyboardInterrupt


def main() -> None:
    signal.signal(signal.SIGTERM, _interrupt)
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    w = WORKLOADS[name]
    harness.warm_up()
    items = None if w.is_scan else harness.batch(w, seed)
    if w.is_scan:
        result = harness.scan_pass(w.jobs)
    else:
        result = [harness.analyze_call(item) for item in items]
    out.write_bytes(pickle.dumps(result))


if __name__ == "__main__":
    main()
