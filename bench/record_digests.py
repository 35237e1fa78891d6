"""Record the reference output digests in bench/digests.json.

Run from the repository root after a change that means to alter the output:

    python3 bench/record_digests.py

Scan digests cover the box's rows without ``runtime_micros``; analyze
digests cover the first ``digest_items`` reports of each seed in SEEDS.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from workloads import WORKLOADS, item_stream  # noqa: E402

SEEDS = range(32)


def main() -> None:
    harness.warm_up()
    table: dict = {"scan-box": harness.scan_pass(1).digest}
    for name, w in WORKLOADS.items():
        if w.is_scan:
            continue
        table[name] = {}
        for seed in SEEDS:
            items = itertools.islice(item_stream(name, seed), w.digest_items)
            table[name][str(seed)] = harness.analyze_digest([harness.analyze_call(i) for i in items])
    harness.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
