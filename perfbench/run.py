"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oneshot-small --seed 1 --seconds 20 --trace 0

Workloads: ``oneshot-small``, ``oneshot-large``, ``adi-2d``,
``service-small`` (see ``perfbench/workloads.py``).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` prints the per-layer
metrics and the per-layer self-time table, and writes every span to
``.bench_out/<workload>-seed<seed>-trace.json``.  The last line of
standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the host fingerprint, seed and sample counts.

The library is imported from ``src/`` next to this directory; the
command exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Cap BLAS threads at the usable CPU count (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [str(src), str(ROOT)]

    t0 = time.perf_counter()
    import repro

    import_s = time.perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from perfbench.bench import report_lines, run, write_export
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              import_s=import_s, root=ROOT)
    for line in report_lines(out):
        print(line)
    if args.trace:
        write_export(
            out, ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace.json"
        )
    details = {k: v for k, v in out["details"].items() if k != "self_time"}
    print(json.dumps(details, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
