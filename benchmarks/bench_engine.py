#!/usr/bin/env python
"""Cold vs warm solve-plan engine benchmark.

Measures three ways of running the same repeated batch solve:

* **seed** — the pre-engine public path: validate + build a
  :class:`HybridSolver`, recompute the transition and reallocate every
  buffer on each call (what ``repro.solve_batch`` did before the
  engine existed);
* **cold** — the engine with its plan cache cleared before every call:
  each solve re-plans and re-allocates workspaces;
* **warm** — the steady state: cached plan, pooled workspaces; each
  solve allocates only its result.

All three produce bitwise-identical solutions (verified here).

Timing uses **paired-warmup interleaved** measurement: per iteration
every variant runs twice back to back — once untimed (absorbing CPU
frequency drift and whatever cache state the previous variant left
behind) and once timed — and the headline figure is the minimum over
iterations (the least-interrupted run; the median is recorded too).
A sequential design (all seed iterations, then all cold, then all
warm) hands whichever variant runs last the thermally throttled clock
and calls it a regression; interleaving spreads drift evenly and the
min shrugs off scheduler spikes.

The headline case (M = 1024, N = 1024, 50 iterations — the paper's
large-M regime where the hybrid runs pure Thomas) is expected to show
``warm`` at least 2x faster than ``seed``; results land in
``BENCH_engine.json``.

Run:   python benchmarks/bench_engine.py
Smoke: python benchmarks/bench_engine.py --smoke   (few iterations,
       asserts warm is not slower than seed or cold on every case;
       writes no JSON)
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.backends import reference_solver
from repro.core.transition import GTX480_HEURISTIC
from repro.core.validation import check_batch_arrays
from repro.engine import ExecutionEngine

#: warm may lose this much to seed/cold before smoke calls it a
#: regression — pure timer/scheduler noise allowance on small cases
SMOKE_TOLERANCE = 1.10


def make_batch(m: int, n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    return a, b, c, d


def seed_solve(a, b, c, d, **kwargs):
    """The pre-engine ``repro.solve_batch`` path, reproduced verbatim."""
    a, b, c, d = check_batch_arrays(a, b, c, d)
    return reference_solver(**kwargs).solve_batch(a, b, c, d, check=False)


def time_interleaved(variants, iters: int) -> dict:
    """Paired-warmup interleaved timing: ``name -> median s/call``.

    ``variants`` is an ordered list of ``(name, fn)``.  Per iteration,
    each variant runs once untimed then once timed, in round-robin
    order — so every timed call starts from the same freshly-warmed
    state and slow clock drift lands on all variants alike.
    """
    times = {name: [] for name, _ in variants}
    for _ in range(iters):
        for name, fn in variants:
            fn()  # untimed pair-warmup
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {
        name: {"min": float(np.min(ts)), "median": float(np.median(ts))}
        for name, ts in times.items()
    }


def bench_case(name: str, m: int, n: int, iters: int, **solver_kwargs):
    a, b, c, d = make_batch(m, n, seed=m + n)
    # separate engines so run_cold's cache clearing cannot touch warm state
    engine_cold = ExecutionEngine()
    engine_warm = ExecutionEngine()

    x_seed = seed_solve(a, b, c, d, **solver_kwargs)
    x_cold = engine_cold.solve_batch(a, b, c, d, **solver_kwargs)
    bitwise = bool(np.array_equal(x_seed, x_cold))

    def run_seed():
        seed_solve(a, b, c, d, **solver_kwargs)

    def run_cold():
        engine_cold.clear()
        engine_cold.solve_batch(a, b, c, d, **solver_kwargs)

    def run_warm():
        engine_warm.solve_batch(a, b, c, d, **solver_kwargs)

    run_warm()  # prime plan + workspace pool before timing warm
    t = time_interleaved(
        [("seed", run_seed), ("cold", run_cold), ("warm", run_warm)], iters
    )

    k = engine_warm.last_report.k
    result = {
        "case": name,
        "m": m,
        "n": n,
        "k": k,
        "iters": iters,
        "timing": "paired-warmup interleaved; min (headline) + median",
        "solver_kwargs": {k_: str(v) for k_, v in solver_kwargs.items()},
        "seed_s_per_iter": t["seed"]["min"],
        "cold_s_per_iter": t["cold"]["min"],
        "warm_s_per_iter": t["warm"]["min"],
        "median": {name: t[name]["median"] for name in ("seed", "cold", "warm")},
        "speedup_warm_vs_seed": t["seed"]["min"] / t["warm"]["min"],
        "speedup_warm_vs_cold": t["cold"]["min"] / t["warm"]["min"],
        "bitwise_identical_to_seed": bitwise,
    }
    print(
        f"{name:28s} M={m:5d} N={n:5d} k={k}  "
        f"seed {t['seed']['min'] * 1e3:9.3f} ms  "
        f"cold {t['cold']['min'] * 1e3:9.3f} ms  "
        f"warm {t['warm']['min'] * 1e3:9.3f} ms  "
        f"warm/seed {result['speedup_warm_vs_seed']:5.2f}x  "
        f"bitwise={'ok' if bitwise else 'FAIL'}"
    )
    return result


CASES = (
    # the acceptance case: paper's large-M regime (k = 0 -> Thomas)
    ("large-M thomas", 1024, 1024, 50, {}),
    # small-M regime: tiled-PCR front-end + p-Thomas back-end (the
    # explicit table pins the paper's route; unpinned small-M solves
    # take the host LAPACK route).  The per-call margin here is a few
    # hundred microseconds on a ~10 ms solve, so the min statistic
    # needs more samples than the heavy large-M case to converge below
    # scheduler jitter.
    ("small-M hybrid", 16, 2048, 80, {"heuristic": GTX480_HEURISTIC}),
    # fused back-end
    ("small-M fused", 32, 1024, 80, {"fuse": True}),
)


def run_case_isolated(name: str, iters_scale: float) -> dict:
    """Run one case in a fresh interpreter; return its result dict.

    The large-M case churns hundreds of MB through the allocator;
    pooled workspaces a later small case allocates from that recycled
    arena measure differently (and noisily) from a clean heap.  Process
    isolation gives every case the allocator state a real user's
    process would have, and makes the small-margin cases reproducible.
    Falls back to in-process execution if the child fails for an
    environmental reason.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--one-case", name, "--iters-scale", str(iters_scale),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode == 0:
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
            print(result.pop("_line"))
            return result
        except (ValueError, IndexError):
            pass
    sys.stderr.write(proc.stderr)
    for case_name, m, n, iters, kw in CASES:
        if case_name == name:
            return bench_case(name, m, n, max(3, int(iters * iters_scale)), **kw)
    raise SystemExit(f"unknown case {name!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="few iterations, assert warm is not slower than seed or "
        "cold on every case, no JSON",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
        help="output JSON path (ignored with --smoke)",
    )
    parser.add_argument("--one-case", help=argparse.SUPPRESS)
    parser.add_argument(
        "--iters-scale", type=float, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args()

    iters_scale = args.iters_scale
    if iters_scale is None:
        iters_scale = 0.2 if args.smoke else 1.0

    if args.one_case:
        # child mode: run exactly one case, emit its JSON on stdout
        import contextlib
        import io

        for name, m, n, iters, kw in CASES:
            if name == args.one_case:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    result = bench_case(
                        name, m, n, max(3, int(iters * iters_scale)), **kw
                    )
                result["_line"] = buf.getvalue().rstrip("\n")
                print(json.dumps(result))
                return
        raise SystemExit(f"unknown case {args.one_case!r}")

    results = [
        run_case_isolated(name, iters_scale) for name, *_ in CASES
    ]

    for r in results:
        assert r["bitwise_identical_to_seed"], (
            f"engine diverged from seed on {r['case']}"
        )

    if args.smoke:
        # the engine's whole point: steady state must never lose to
        # re-planning every call — on ANY case, not just the headline
        for r in results:
            assert r["warm_s_per_iter"] <= r["cold_s_per_iter"] * SMOKE_TOLERANCE, (
                f"warm slower than cold on {r['case']}: {r}"
            )
            assert r["warm_s_per_iter"] <= r["seed_s_per_iter"] * SMOKE_TOLERANCE, (
                f"warm slower than seed on {r['case']}: {r}"
            )
        print("smoke OK: warm <= seed and warm <= cold on every case, "
              "bitwise identical")
        return

    headline = results[0]
    payload = {
        "benchmark": "bench_engine",
        "description": (
            "seed (pre-engine solve_batch) vs cold (plan cache cleared "
            "every call) vs warm (cached plan + pooled workspaces); "
            "paired-warmup interleaved timing, min seconds per solve "
            "(median also recorded)"
        ),
        "acceptance": {
            "target": "warm >= 2x over seed at M=1024 N=1024 x50",
            "speedup_warm_vs_seed": headline["speedup_warm_vs_seed"],
            "met": headline["speedup_warm_vs_seed"] >= 2.0,
        },
        "results": results,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
    if not payload["acceptance"]["met"]:
        raise SystemExit("acceptance target missed: warm < 2x over seed")
    print(
        f"acceptance met: warm plan is "
        f"{headline['speedup_warm_vs_seed']:.2f}x over the seed path"
    )


if __name__ == "__main__":
    main()
