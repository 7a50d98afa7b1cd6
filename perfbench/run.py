"""Run one workload of the ssdb benchmark and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from a checkout: the cluster is started from the checkout's own
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. A run record with the machine, the seed and the sample
counts goes to ``.bench_runs/``. Exit status: 0 when every operation
succeeded with the right answer, 1 when any failed or was wrong, 2 when
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "select_point", "select_scan_degraded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout_source() -> None:
    """Import ssdb from this checkout's src/, or fail."""
    if not (SRC / "ssdb" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no ssdb package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ssdb

    if Path(ssdb.__file__).resolve().parent != SRC / "ssdb":
        raise SystemExit(f"run.py: imported ssdb from {ssdb.__file__}, not from {SRC}")


def print_outcome(outcome) -> None:
    for name, (value, unit) in outcome.metrics.items():
        note = f"  (absent: {outcome.absent[name]})" if name in outcome.absent else ""
        print(f"{name:<40} {value:>14.4f} {unit}{note}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    use_checkout_source()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up as on ^C
    import bench

    outcome = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_outcome(outcome)
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
