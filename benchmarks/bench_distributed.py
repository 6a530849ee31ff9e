#!/usr/bin/env python
"""N-partition benchmark: device-model crossover and correctness.

A ``ranks=P`` solve splits one huge-``N`` system batch across ``P``
ranks; each rank eliminates its slab with the two-sweep modified Thomas
algorithm (17 values moved per slab row vs the 9 of a monolithic
Thomas sweep), and the ranks meet only at the ``2P``-row reduced
interface system.  Per-device traffic is therefore ``17·N/P`` values
against the baseline's ``9·N``, while the interface exchange is
``O(M)`` — constant in ``N`` — so a crossover system size exists
beyond which partitioning wins.

This benchmark locates that crossover **on the device model** (the
:mod:`repro.kernels.comm_kernel` ledgers: ``P`` concurrent devices, a
latency/bandwidth interconnect) and verifies the numerics of the
``ranks=`` route on this host:

* **crossover** — for P in {2, 4}, sweep N and record the first size
  where the predicted partitioned time beats the predicted single-
  device solve.  Gated: both crossovers must exist within the sweep.
* **correctness** — gated: ``solve_batch(..., ranks=P)`` is bitwise
  identical to the in-process partition reference at every tested P,
  and elementwise close (1e-10) to the engine's ``k = 0`` solve.

The crossover is a prediction for ``P`` devices; the in-process route
runs the ranks one after another on the host, so its wall-clock is not
recorded here.

Results land in ``BENCH_distributed.json``.

Run:   python benchmarks/bench_distributed.py
Smoke: python benchmarks/bench_distributed.py --smoke   (correctness
       only, writes no JSON)
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import repro
from repro.distributed import partitioned_solve_reference
from repro.gpusim.timing import GpuTimingModel
from repro.gpusim.device import GTX480
from repro.kernels.comm_kernel import distributed_plan
from repro.kernels.pthomas_kernel import pthomas_counters

M = 64  # systems per batch for the crossover sweep
RANKS = (2, 4)
#: rank counts the correctness gate solves at (crossovers use RANKS)
CHECK_RANKS = (2, 3, 4, 8)
SWEEP_N = (16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 4096)


def predicted_crossover(m: int, ranks: int, dtype_bytes: int = 8) -> dict:
    """First N in the sweep where the P-rank plan beats one device."""
    model = GpuTimingModel(GTX480)
    points = []
    crossover_n = None
    for n in SWEEP_N:
        if n < 2 * ranks:
            continue
        base_us = (
            model.time(pthomas_counters(m, n, dtype_bytes), dtype_bytes)
            .total_s * 1e6
        )
        dist_us = sum(
            us for _, us in distributed_plan(m, n, ranks, dtype_bytes)
        )
        points.append({
            "n": n,
            "baseline_us": base_us,
            "distributed_us": dist_us,
            "speedup": base_us / dist_us,
        })
        if crossover_n is None and dist_us < base_us:
            crossover_n = n
    return {"ranks": ranks, "crossover_n": crossover_n, "sweep": points}


def correctness(n: int, m: int = 4) -> dict:
    """Bitwise vs the partition reference, elementwise vs the engine."""
    from repro.workloads.generators import huge_system_batch

    a, b, c, d = huge_system_batch(n, m=m, seed=42)
    engine_ref = repro.solve_batch(a, b, c, d, backend="engine", k=0)
    results = []
    for p in CHECK_RANKS:
        x = repro.solve_batch(a, b, c, d, ranks=p)
        ref = partitioned_solve_reference(a, b, c, d, p)
        results.append({
            "ranks": p,
            "bitwise_vs_reference": bool(np.array_equal(x, ref)),
            "max_abs_err_vs_engine": float(np.max(np.abs(x - engine_ref))),
        })
    ok = all(
        r["bitwise_vs_reference"] and r["max_abs_err_vs_engine"] < 1e-10
        for r in results
    )
    return {"n": n, "m": m, "results": results, "ok": ok}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="correctness only, small shapes, no JSON",
    )
    parser.add_argument(
        "--out", type=Path,
        default=(
            Path(__file__).resolve().parent.parent
            / "BENCH_distributed.json"
        ),
        help="output JSON path (ignored with --smoke)",
    )
    args = parser.parse_args()

    if args.smoke:
        report = correctness(257)
        if not report["ok"]:
            raise SystemExit(f"smoke correctness failed: {report}")
        print("smoke: ranks= route correctness ok "
              f"(N={report['n']}, ranks {'/'.join(map(str, CHECK_RANKS))})")
        return

    crossovers = [predicted_crossover(M, p) for p in RANKS]
    corr = correctness(4097)

    crossover_met = all(c["crossover_n"] is not None for c in crossovers)
    payload = {
        "benchmark": "N-partition ranks= route",
        "device_model": GTX480.name,
        "crossover": crossovers,
        "correctness": corr,
        "acceptance": {
            "target": (
                "a crossover N exists for every tested P (device model) "
                "and ranks= results are bitwise identical to the "
                "partition reference, <= 1e-10 vs the engine at k=0"
            ),
            "crossover_n": {
                str(c["ranks"]): c["crossover_n"] for c in crossovers
            },
            "correctness_ok": corr["ok"],
            "met": bool(crossover_met and corr["ok"]),
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not payload["acceptance"]["met"]:
        raise SystemExit(f"acceptance missed: {payload['acceptance']}")
    summary = ", ".join(
        f"P={c['ranks']}: N>={c['crossover_n']}" for c in crossovers
    )
    print(f"acceptance met: crossover {summary}; correctness ok")


if __name__ == "__main__":
    main()
