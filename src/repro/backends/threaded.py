"""Batch-axis sharding as an orthogonal backend layer.

PR 1 buried ``workers=`` inside the engine's ``solve_batch``; this
module folds that parallel composition out into its own layer:

* :func:`execute_sharded` is the one sharded-execution routine in the
  repo.  It runs a frozen plan over contiguous row shards — one engine
  workspace and one counter ledger per shard, every worker writing
  straight into one shared output — on the engine's persistent thread
  pool.  Both :meth:`ExecutionEngine.solve_sharded
  <repro.engine.engine.ExecutionEngine.solve_sharded>` (the legacy
  ``workers=`` path) and :class:`ThreadedBackend` delegate here.
* :class:`ThreadedBackend` exposes sharding through the backend
  protocol.  The router sends ``workers > 1`` solves to it; the inner
  per-shard execution is the engine's, so results stay bitwise
  identical to every other backend.

Bitwise safety is inherited from the engine (see
:mod:`repro.engine.executor`): every solver operation is elementwise
along the batch axis and the transition ``k`` is frozen from the *full*
batch before sharding, so results are independent of ``workers``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.backends.base import BackendBase, Capabilities
from repro.backends.request import SolveOutcome, SolveRequest
from repro.core.tiled_pcr import TilingCounters
from repro.engine.executor import execute_plan
from repro.util.pools import executor_cap

__all__ = ["ThreadedBackend", "execute_sharded", "merge_shard_stage_times"]


def execute_sharded(
    engine,
    plan,
    shards,
    a,
    b,
    c,
    d,
    *,
    counters: TilingCounters | None = None,
    out: np.ndarray | None = None,
    stage_times: list | None = None,
    check: bool = True,
) -> np.ndarray:
    """Run ``plan`` split along the batch axis, one thread per shard.

    Each shard gets a sub-plan with ``k`` *fixed* to the full-batch
    decision (the transition must not re-resolve against the smaller
    shard ``M``) and its kernel family inherited, its own pooled
    workspace, and its own counters; shard results are written directly
    into the shared ``out`` batch.

    ``stage_times`` receives the per-shard pipeline stages aggregated
    across workers: shards run the same stage sequence concurrently, so
    each stage contributes its **max-over-shards** wall time (the
    critical-path view) under a ``[w shards]``-suffixed name.  Workers
    previously timed into thread-local state the caller never saw; now
    the inner stage breakdown survives into the parent trace.
    """
    m, n = b.shape
    if out is None:
        out = np.empty((m, n), dtype=b.dtype)
    sub = [
        (
            lo,
            hi,
            engine.plan_for(
                hi - lo,
                n,
                b.dtype,
                k=plan.k,
                fuse=plan.fuse,
                n_windows=plan.n_windows,
                subtile_scale=plan.subtile_scale,
                algorithm=plan.algorithm,
            ),
            TilingCounters(),
            [] if stage_times is not None else None,
        )
        for lo, hi in shards
    ]

    def run(job):
        lo, hi, subplan, ctr, times = job
        ws = engine.checkout(subplan)
        try:
            execute_plan(
                subplan,
                ws,
                a[lo:hi],
                b[lo:hi],
                c[lo:hi],
                d[lo:hi],
                counters=ctr,
                out=out[lo:hi],
                stage_times=times,
                check=check,
                first_system=lo,
            )
        finally:
            engine.checkin(subplan, ws)

    pool = engine.thread_pool(len(sub))
    list(pool.map(run, sub))
    if counters is not None:
        for _, _, _, ctr, _ in sub:
            counters.merge(ctr)
    if stage_times is not None:
        stage_times.extend(merge_shard_stage_times([s[4] for s in sub]))
    return out


def merge_shard_stage_times(per_shard: list) -> list:
    """Aggregate per-shard ``(name, seconds)`` lists for a parent trace.

    Every shard runs the identical stage sequence; since shards execute
    concurrently, the parent's view of one stage is its slowest shard.
    Returns ``(f"{name} [w shards]", max seconds)`` pairs in stage
    order.
    """
    lists = [st for st in per_shard if st]
    if not lists:
        return []
    w = len(lists)
    merged = []
    for i, (name, secs) in enumerate(lists[0]):
        worst = secs
        for other in lists[1:]:
            if i < len(other) and other[i][0] == name:
                worst = max(worst, other[i][1])
        merged.append((f"{name} [{w} shards]", worst))
    return merged


class ThreadedBackend(BackendBase):
    """Registry adapter for thread-sharded batch execution.

    Parameters
    ----------
    engine:
        The engine whose plans, workspace pools, and thread pool the
        shards run on (default: the process-wide engine).
    default_workers:
        Worker count when the request does not carry one
        (default: ``min(4, cpu count)``).
    """

    name = "threaded"
    priority = 60

    def __init__(self, engine=None, default_workers: int | None = None):
        super().__init__()
        self._engine = engine
        if default_workers is not None and default_workers < 1:
            raise ValueError(
                f"default_workers must be >= 1, got {default_workers}"
            )
        self.default_workers = default_workers

    @property
    def engine(self):
        if self._engine is not None:
            return self._engine
        from repro.engine import default_engine

        return default_engine()

    def _workers_for(self, request: SolveRequest) -> int:
        if request.workers is not None:
            return max(1, request.workers)
        if self.default_workers is not None:
            return self.default_workers
        return min(4, os.cpu_count() or 1)

    def capabilities(self) -> Capabilities:
        # memoized: Capabilities is frozen and this sits on every
        # dispatch (and router admissibility) hot path
        caps = getattr(self, "_caps", None)
        if caps is None:
            # max_workers is the accepted limit, not the core count —
            # sharding stays functional (and bitwise-safe) on any
            # machine — but it is a *cap*, proportional to the host:
            # the old max(32, cpus) floor pinned >= 32 threads onto
            # 2-core machines.
            caps = self._caps = Capabilities(
                max_workers=executor_cap(),
                prepared=True,
                systems=("tridiagonal", "pentadiagonal", "block"),
                description=(
                    "batch-axis sharding over the engine's thread pool — "
                    "bitwise independent of the worker count; prepared "
                    "solves shard the RHS-only sweep"
                ),
            )
        return caps

    def execute(self, request: SolveRequest) -> SolveOutcome:
        """Run the request on the engine spine with sharding resolved.

        The request's ``workers`` is defaulted to this backend's shard
        count when unset; everything else — plan cache, fingerprint
        seam, periodic pipeline, prepared handles — is the engine's
        :meth:`~repro.engine.engine.ExecutionEngine.run`, so results
        stay bitwise identical to every other engine-family backend.
        """
        outcome = self.engine.run(
            request.replace(
                workers=self._workers_for(request),
                label=request.label or self.name,
            )
        )
        self._set_trace(outcome.trace)
        return outcome

    def bind(self, request: SolveRequest):
        """Native session with the shard count resolved at bind time.

        The engine's :class:`~repro.engine.session.BoundSolve` computes
        shard bounds once; every ``step`` then reuses the same shard
        geometry across the engine's persistent thread pool.
        """
        return self.engine.bind(
            request.replace(
                workers=self._workers_for(request),
                label=request.label or self.name,
            )
        )
