"""``python -m repro.faults``: run the seeded crash-simulation matrix.

Runs every scenario of :func:`repro.faults.crashsim.build_matrix` in a
temporary (or given) working directory and reports how many recovered
byte-identically. Exit code 0 iff every scenario passed.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.faults.crashsim import run, save_json, summarize


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run the seeded fault-injection / crash-recovery matrix.",
    )
    parser.add_argument(
        "--seed", type=int, default=20260806, help="matrix seed"
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="working directory (default: a temporary one, removed after)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full scenario report as JSON",
    )
    args = parser.parse_args(argv)

    if args.workdir:
        summary = run(args.workdir, seed=args.seed)
    else:
        with tempfile.TemporaryDirectory(prefix="crashsim-") as workdir:
            summary = run(workdir, seed=args.seed)
    print(summarize(summary))
    if args.json:
        save_json(summary, args.json)
        print(f"[wrote {args.json}]")
    return 0 if summary["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
