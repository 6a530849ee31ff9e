"""Benchmark driver: set-up, measured phases, metrics and the trace report.

``run(workload, seed, seconds, trace)`` returns the result object the
command prints.  Without tracing, one phase measures for ``seconds``
and yields the end-to-end metrics.  With tracing, an untraced phase
and a traced phase of ``seconds / 2`` each run the same inputs: the
traced phase replays the untraced one op for op, its outputs must be
bitwise equal, and the gap between the two throughputs is the tracing
overhead.  The per-layer metrics come from the traced phase's spans.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from perfbench.trace import Tracer, self_times
from perfbench.workloads import WORKLOADS

__all__ = ["END_TO_END", "PER_LAYER", "block_tail", "host_fingerprint", "run", "tail"]

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 9
#: the one-shot shapes named in per-shape metrics
SHAPES = ("1x65536", "8x1024", "128x1024", "1024x1024")
#: transition points the Table III heuristic picks at these shapes
ROUTE_KS = (0, 5, 6, 7, 8)
#: stages that are not elimination work (the rest count as sweep)
NON_SWEEP = ("prepare", "fingerprint")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import_s": "s",
    "trace.overhead_frac": "fraction",
    "backends.request_build_ms": "ms",
    "backends.resolve_us": "us",
    "backends.bind_ms": "ms",
    **{f"backends.route_share.k{k}": "count" for k in ROUTE_KS},
    "backends.route_share.other": "count",
    **{f"engine.execute_ms.{s}": "ms" for s in SHAPES},
    "engine.stage.prepare_ms": "ms",
    "engine.stage.fingerprint_ms": "ms",
    **{f"engine.stage.sweep_ms.{s}": "ms" for s in SHAPES},
    "engine.unattributed_ms": "ms",
    "engine.plan_hit_ratio": "ratio",
    "engine.fact_hit_ratio": "ratio",
    "engine.factorization_bytes": "bytes",
    "engine.session.step_t_ms": "ms",
    "engine.sweep_gbps_computed": "GB/s",
    "workloads.adi.explicit_ms": "ms",
    "service.dispatch_ms": "ms",
    "service.queue_ms": "ms",
    "service.rows_per_dispatch": "rows",
    "service.shed_frac": "fraction",
    "service.failed": "count",
    **{f"baselines.lapack_ms.{s}": "ms" for s in SHAPES},
    **{f"vs_lapack.{s}": "x" for s in SHAPES},
}


def tail(latencies) -> tuple:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it (the median when there are too few samples)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def block_tail(latencies, block: int) -> tuple:
    """``(value, percentile, blocks)``: the median over consecutive
    blocks of ``block`` ops of each block's :func:`tail`.

    A fixed block size fixes the percentile (p90 for 100 ops, p99 for
    1000) however fast the program runs, and one host stall moves the
    tail of one block only.  Leftover ops join the last block; a run
    shorter than one block is a single block.
    """
    n = len(latencies)
    cuts = list(range(0, n - block + 1, block))[1:] if n >= 2 * block else []
    edges = [0, *cuts, n]
    tails = [tail(latencies[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    value = statistics.median(v for v, _ in tails)
    pct = statistics.median(p for _, p in tails)
    return value, pct, len(tails)


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def host_fingerprint(root: Path) -> dict:
    """Host, toolchain and source identity recorded with every result."""
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` (``"unknown"`` outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup(wl, rep: int) -> float:
    warm = wl.warmup_inputs(rep)
    t0 = time.perf_counter()
    wl.setup(rep, warm)
    return time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        import_s: float = 0.0, setup_repeats: int = SETUP_REPEATS,
        root: Path | None = None) -> dict:
    """One benchmark run; returns ``{"result", "details", "spans"}``."""
    wl = WORKLOADS[workload](seed)
    details = {"workload": workload, "seed": seed, "seconds": seconds}
    spans = []
    try:
        setups = [_setup(wl, rep) for rep in range(setup_repeats if not trace else 1)]
        if not trace:
            res = wl.measure(seconds)
            metrics = _end_to_end(res, setups, wl.tail_block)
            _, pct, blocks = block_tail(res.latencies, wl.tail_block)
            details["tail_percentile"] = round(pct, 3)
            details["tail_blocks"] = blocks
            details["samples"] = res.attempted
            phases = [res]
        else:
            untraced = wl.measure(seconds / 2, keep_digests=True)
            tracer = Tracer()
            tracer.install()
            try:
                warm = wl.warmup_inputs(setup_repeats)
                tracer.phase, tracer.active = "setup", True
                with tracer.span("setup"):
                    wl.setup(setup_repeats, warm)
                tracer.phase, tracer.active = "measure", False
                traced = wl.measure(
                    seconds / 2, tracer=tracer, expect=untraced.digests
                )
            finally:
                tracer.uninstall()
            spans = tracer.spans
            metrics = _per_layer(wl, untraced, traced, tracer, import_s)
            details["samples"] = {"untraced": untraced.attempted,
                                  "traced": traced.attempted}
            details["bitwise_mismatches"] = traced.mismatches
            details["rhs_only_steps"] = tracer.rhs_only_steps
            details["self_time"] = {
                name: {"count": c, "total_ms": t * 1e3, "self_ms": s * 1e3}
                for name, (c, t, s) in sorted(
                    self_times([sp for sp in spans if sp.phase == "measure"]).items()
                )
            }
            phases = [untraced, traced]
        details["engine"] = vars(wl.engine.stats).copy()
        sim = getattr(wl, "sim", None)
        if sim is not None:
            details["steps"] = sim.steps
    finally:
        wl.close()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    details["errors"] = [e for p in phases for e in p.errors][:5]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": (END_TO_END | PER_LAYER)[name]}
            for name, value in metrics.items()
        },
    }
    if root is not None:
        details["host"] = host_fingerprint(root)
    return {"result": result, "details": details, "spans": spans}


def _end_to_end(res, setups, block: int) -> dict:
    value, _, _ = block_tail(res.latencies, block)
    return {
        "ops_per_s": res.attempted / res.wall,
        "latency_ms_p50": statistics.median(res.latencies) * 1e3,
        "latency_ms_tail": value * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _rate(res, n: int) -> float:
    """Throughput over the first ``n`` ops of a phase."""
    done, wall = 0, 0.0
    for ops, w in res.units:
        if done >= n:
            break
        done, wall = done + ops, wall + w
    return done / wall


def _dims(shape: str) -> tuple:
    rows, cols = shape.split("x")
    return int(rows), int(cols)


def _per_layer(wl, untraced, traced, tracer, import_s: float) -> dict:
    """Per-layer metrics from the traced phase's spans.

    Span timings are medians over the measured ops; the ``EngineStats``
    ratios cover the traced engine's whole life (set-up and measured
    ops).  Metrics of layers the workload does not exercise stay 0.
    """
    spans = [s for s in tracer.spans if s.phase == "measure"]
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def ms(name, pred=lambda s: True):
        return _median([s.seconds * 1e3 for s in by_name.get(name, []) if pred(s)])

    m = {name: 0.0 for name in PER_LAYER}
    m["import_s"] = import_s
    n = min(untraced.attempted, traced.attempted)
    m["trace.overhead_frac"] = 1.0 - _rate(traced, n) / _rate(untraced, n)
    m["backends.request_build_ms"] = ms("backends.request_build")
    m["backends.resolve_us"] = ms("backends.resolve") * 1e3
    m["backends.bind_ms"] = _median(
        [s.seconds * 1e3 for s in tracer.spans if s.name == "backends.bind"]
    )

    executes = by_name.get("backends.execute", [])
    fingerprint, prepare, unattributed = [], [], []
    sweep = {}
    sweep_bytes = sweep_s = 0.0
    for ex in executes:
        k = ex.attrs.get("k")
        key = f"backends.route_share.k{k}" if k in ROUTE_KS else "backends.route_share.other"
        m[key] += 1
        stages = {c.name[len("engine.stage."):]: c.seconds
                  for c in children.get(ex.id, []) if c.name.startswith("engine.stage.")}
        if "fingerprint" in stages:
            fingerprint.append(stages["fingerprint"])
        if "prepare" in stages:
            prepare.append(stages["prepare"])
        swept = sum(v for name, v in stages.items() if name not in NON_SWEEP)
        sweep.setdefault(ex.attrs["shape"], []).append(swept)
        unattributed.append(ex.seconds - sum(stages.values()))
        rows, cols = _dims(ex.attrs["shape"])
        sweep_bytes += 5 * rows * cols * 8  # a, b, c, d in; x out
        sweep_s += swept
    m["engine.stage.fingerprint_ms"] = _median(fingerprint) * 1e3
    m["engine.stage.prepare_ms"] = _median(prepare) * 1e3
    m["engine.unattributed_ms"] = _median(unattributed) * 1e3
    for shape in SHAPES:
        m[f"engine.execute_ms.{shape}"] = ms(
            "backends.execute", lambda s: s.attrs["shape"] == shape
        )
        m[f"engine.stage.sweep_ms.{shape}"] = _median(sweep.get(shape, [])) * 1e3

    stats = wl.engine.stats
    m["engine.plan_hit_ratio"] = stats.plan_hits / max(stats.plan_requests, 1)
    lookups = stats.fingerprint_hits + stats.fingerprint_misses
    m["engine.fact_hit_ratio"] = stats.fingerprint_hits / max(lookups, 1)
    m["engine.factorization_bytes"] = stats.factorization_bytes

    steps = by_name.get("engine.session.step_t", [])
    m["engine.session.step_t_ms"] = ms("engine.session.step_t")
    if steps:
        # RHS-only sweep: three factor arrays and the right-hand side in, x out
        sweep_bytes = sum(5 * 8 * np.prod(_dims(s.attrs["shape"])) for s in steps)
        sweep_s = sum(s.seconds for s in steps)
    if sweep_s > 0:
        m["engine.sweep_gbps_computed"] = sweep_bytes / sweep_s / 1e9
    if wl.name == "adi-2d":
        m["workloads.adi.explicit_ms"] = _median([
            (op.seconds - sum(c.seconds for c in children.get(op.id, [])
                              if c.name == "engine.session.step_t")) * 1e3
            for op in by_name.get("op", [])
        ])

    if wl.name == "service-small":
        m["service.dispatch_ms"] = ms("backends.execute")
        m["service.queue_ms"] = _median(_queue_waits(by_name)) * 1e3
        m["service.rows_per_dispatch"] = _median(
            [_dims(s.attrs["shape"])[0] for s in executes]
        )
        m["service.shed_frac"] = traced.shed / max(traced.attempted, 1)
        m["service.failed"] = sum(t.failed for t in wl.service.stats.tenants())

    for shape in SHAPES:
        lapack = ms("baselines.lapack", lambda s: s.attrs["shape"] == shape)
        m[f"baselines.lapack_ms.{shape}"] = lapack
        own = [t for t, lab in zip(untraced.latencies, untraced.labels) if lab == shape]
        if lapack > 0 and own:
            m[f"vs_lapack.{shape}"] = statistics.median(own) * 1e3 / lapack
    return m


def _queue_waits(by_name) -> list:
    """Per request: dispatch start minus submit (coalesce + executor wait).

    Requests are matched to the dispatch that carried them by the first
    right-hand-side entry of each fragment, which the traced dispatch
    records for every row it solved.
    """
    dispatch_of = {}
    for ex in by_name.get("backends.execute", []):
        for key in ex.attrs["row_keys"]:
            dispatch_of[float(key)] = ex
    waits = []
    for req in by_name.get("service.request", []):
        ex = dispatch_of.get(req.attrs.get("key"))
        if ex is not None:
            waits.append(ex.start - req.start)
    return waits


#: what the self time of a span with children means
SELF_TIME_LABELS = {
    "op": "op (unattributed remainder)",
    "backends.execute": "backends.execute (engine unattributed)",
    "service.request": "service.request (waiting + unattributed)",
}


def report_lines(out: dict) -> list:
    """Human-readable per-layer self-time table of a traced run."""
    table = out["details"].get("self_time")
    if not table:
        return []
    lines = [f"{'span':44s} {'count':>7s} {'total ms':>11s} {'self ms':>11s}"]
    for name, row in table.items():
        label = SELF_TIME_LABELS.get(name, name)
        lines.append(
            f"{label:44s} {row['count']:7d} {row['total_ms']:11.2f} {row['self_ms']:11.2f}"
        )
    return lines


def write_export(out: dict, dest: Path) -> None:
    """Write the run's details and spans as one JSON document."""
    dest.parent.mkdir(parents=True, exist_ok=True)
    doc = {**out["details"], "result": out["result"],
           "spans": [s.export() for s in out["spans"]]}
    dest.write_text(json.dumps(doc, default=str))
    print(f"trace written to {dest}", file=sys.stderr)
