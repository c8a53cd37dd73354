"""The repository's benchmark: one seeded workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oltp_wire --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around each layer and prints the per-layer
metrics instead. Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and a failed
correctness check makes the exit code 1. See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("oltp_wire", "adhoc_inproc", "tpch_audit")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_source()
    common.RUN_DIR.mkdir(exist_ok=True)
    if arguments.workload == "oltp_wire":
        import oltp_wire as workload
    elif arguments.workload == "adhoc_inproc":
        import adhoc_inproc as workload
    else:
        import tpch_audit as workload
    return workload.run(
        arguments.seed, arguments.seconds, bool(arguments.trace)
    )


if __name__ == "__main__":
    sys.exit(main())
