"""End-to-end benchmark of the serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mm_gradient --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
tracing off; ``--trace 1`` is the separate traced run that prints the
per-layer metrics.  Either way the correctness gate checks every response
and the command exits non-zero when any check fails.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Where the full result and, for traced runs, the span dump are written.
OUT_DIR = ROOT / ".perfbench-out"
#: The baseline seed (NOTES.md names the second seed claims are confirmed on).
DEFAULT_SEED = 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    from measure import run

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     root=ROOT, out_dir=OUT_DIR)
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _stop_resource_tracker() -> None:
    """Spawning the shard starts multiprocessing's resource-tracker helper
    process; stop it and wait for it, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
