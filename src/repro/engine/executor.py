"""Plan execution: zero-allocation kernels behind a frozen plan.

:func:`execute_plan` runs one ``(M, N)`` batch through a
:class:`~repro.engine.plan.SolvePlan` using a matching
:class:`~repro.engine.workspace.PlanWorkspace`.  All intermediate state
lives in the workspace; the only allocation per call is the result
array (and even that can be supplied via ``out=``, which is how the
sharded executor writes worker results straight into one shared batch).

Every path is held **bitwise identical** to the reference
:class:`~repro.core.hybrid.HybridSolver`:

* ``k > 0`` plans run the same :class:`~repro.core.tiled_pcr.TiledPCR`
  sweep and p-Thomas back-end, just against plan-owned workspaces,
  and the same breakdown screen as ``k = 0`` on their solution.
* ``k = 0`` plans run the Thomas recurrence in a *transposed* ``(N,
  M)`` layout — one contiguous ``M``-vector per recurrence step —
  between cache-blocked copies (:func:`repro.core.layout.transpose_into`).
  The kernel pair :func:`factor_t` / :func:`solve_t`, shared by every
  prepared and session ``k = 0`` sweep, runs in place in the operation
  order of :func:`repro.core.thomas.thomas_solve_batch`, so results
  match it bit for bit;
  :func:`~repro.core.validation.sweep_breakdown` types non-finite
  systems.  The kernels take *row sequences*: a 2-D array, or the list
  of its row views that :func:`row_views` builds once for a long-lived
  buffer, so a sweep over bound lists creates no view objects.
* ``"lapack"`` plans (the host route for Table III's ``k > 0`` cells)
  hand the whole batch to one flattened ``?gtsv`` call
  (:func:`repro.core.gtsv.gtsv_batch`); they need no workspace.

Sharding along the batch axis is bitwise-safe for the same reason:
every solver operation is elementwise along ``M``, so solving rows
``[lo, hi)`` in a worker produces the exact bits the full-batch solve
would.  The one global decision — the transition ``k`` — is frozen in
the plan *before* sharding, from the full ``M``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.gtsv import gtsv_batch
from repro.core.hybrid import _FusedPThomas
from repro.core.layout import transpose_into
from repro.core.pthomas import pthomas_solve_interleaved
from repro.core.tiled_pcr import TiledPCR, TilingCounters
from repro.core.validation import sweep_breakdown

__all__ = [
    "ROW_VIEW_MIN_BYTES",
    "execute_plan",
    "factor_t",
    "row_views",
    "shard_bounds",
    "solve_t",
]

#: Smallest row (in bytes) whose view is worth binding: a view is a
#: ~120-byte object, so a bound row must carry at least 4x that in data
#: (``M >= 64`` for float64).  Narrower rows would hold more header than
#: data — a pinned ``k = 0`` at 1x65536 would bind ~7.5 MB of views per
#: list against 0.5 MB of data.
ROW_VIEW_MIN_BYTES = 512


def shard_bounds(m: int, workers: int) -> list:
    """Split ``m`` batch rows into at most ``workers`` contiguous shards."""
    workers = max(1, min(int(workers), m))
    bounds = np.linspace(0, m, workers + 1).astype(int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(workers)
        if bounds[i + 1] > bounds[i]
    ]


def row_views(arr):
    """The row views of the 2-D ``arr``, built once, as a list.

    Row sequences are what :func:`factor_t` / :func:`solve_t` iterate:
    handing them a bound list instead of the array skips the view
    object a ``zip`` over the array would create for every row of every
    operand on every sweep.  Returns ``arr`` itself when its rows are
    narrower than :data:`ROW_VIEW_MIN_BYTES` (the kernels accept either).
    """
    if arr.shape[1] * arr.itemsize < ROW_VIEW_MIN_BYTES:
        return arr
    return list(arr)


def factor_t(ta, tb, tc, cp, denom, t1) -> None:
    """``denom_i = b_i − c'_{i−1}·a_i``, ``c'_i = c_i / denom_i`` per ``(N, M)`` row.

    Every operand is a row sequence (an ``(N, M)`` array or its
    :func:`row_views`).  ``denom`` may alias ``tb`` and ``cp`` may alias
    ``tc``; ``t1`` is an ``M``-vector scratch.
    """
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    np.copyto(denom[0], tb[0])
    divide(tc[0], denom[0], cp[0])
    for a_i, b_i, c_i, cp_prev, cp_i, den_i in zip(
        ta[1:], tb[1:], tc[1:], cp, cp[1:], denom[1:]
    ):
        multiply(cp_prev, a_i, t1)
        subtract(b_i, t1, den_i)
        divide(c_i, den_i, cp_i)


def solve_t(ta, cp, denom, dt, dp, xt, t1, t2) -> None:
    """``d'_i = (d_i − d'_{i−1}·a_i) / denom_i``, ``x_i = d'_i − c'_i·x_{i+1}``.

    Eqs. 3-4 over the ``(N, M)`` rows :func:`factor_t` left, every
    operand a row sequence; ``dp`` and ``xt`` may alias ``dt`` and each
    other.
    """
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    divide(dt[0], denom[0], dp[0])
    for a_i, d_i, den_i, dp_prev, dp_i in zip(ta[1:], dt[1:], denom[1:], dp, dp[1:]):
        multiply(dp_prev, a_i, t2)
        subtract(d_i, t2, t2)
        divide(t2, den_i, dp_i)
    np.copyto(xt[-1], dp[-1])
    for cp_i, dp_i, x_next, x_i in zip(cp[-2::-1], dp[-2::-1], xt[::-1], xt[-2::-1]):
        multiply(cp_i, x_next, t1)
        subtract(dp_i, t1, x_i)


def execute_plan(
    plan,
    ws,
    a,
    b,
    c,
    d,
    *,
    counters: TilingCounters | None = None,
    out: np.ndarray | None = None,
    stage_times: list | None = None,
    check: bool = True,
    first_system: int = 0,
) -> np.ndarray:
    """Execute ``plan`` on coerced ``(M, N)`` diagonals using ``ws``.

    Inputs must already be contiguous arrays of ``plan.dtype`` and shape
    ``(plan.m, plan.n)`` (the engine guarantees this).  ``counters``, if
    given, accumulates the sweep's :class:`TilingCounters`.  ``out``, if
    given, receives the solution (shard writes).  ``stage_times``, if
    given, receives ``(stage name, seconds)`` pairs — the per-stage
    wall-time hook behind :class:`~repro.backends.trace.SolveTrace`.
    ``check`` / ``first_system`` set the breakdown policy — the
    singular-system policy of ``"lapack"`` plans, the
    :func:`~repro.core.validation.sweep_breakdown` guard of ``k = 0``
    and hybrid plans — and the batch-row numbering it reports (a shard
    passes its first row).
    """
    if not ws.fits(plan):
        raise ValueError("workspace was built for a different plan")
    if plan.algorithm == "lapack":
        t0 = time.perf_counter()
        x = gtsv_batch(
            a, b, c, d, out=out, check=check, first_system=first_system
        )
        if stage_times is not None:
            stage_times.append(("lapack gtsv", time.perf_counter() - t0))
        return x
    if plan.uses_thomas:
        # in place: c' over c, pivots over b, d' and x over d
        t0 = time.perf_counter()
        for dst, src in ((ws.ta, a), (ws.tb, b), (ws.tc, c), (ws.td, d)):
            transpose_into(dst, src)
        ta, tb, tc, td = ws.rows
        factor_t(ta, tb, tc, tc, tb, ws.t1)
        solve_t(ta, tc, tb, td, td, td, ws.t1, ws.t2)
        sweep_breakdown(
            "Thomas elimination", ws.td, ws.tb, check=check,
            first_system=first_system,
        )
        x = transpose_into(
            np.empty(b.shape, b.dtype) if out is None else out, ws.td
        )
        if stage_times is not None:
            stage_times.append(
                ("thomas (transposed)", time.perf_counter() - t0)
            )
        return x

    tiler = TiledPCR(
        k=plan.k, c=plan.subtile_scale, n_windows=plan.n_windows
    )
    if counters is not None:
        tiler.counters = counters
    if plan.fuse:
        fused = _FusedPThomas(
            plan.m, plan.n, plan.k, plan.dtype, workspace=ws.pthomas
        )
        t0 = time.perf_counter()
        tiler.sweep(
            a, b, c, d, check=False, emit=fused.consume, workspace=ws.tiled
        )
        t1 = time.perf_counter()
        x = fused.backward(out=out)
        sweep_breakdown(
            "hybrid elimination", x.T, None, check=check,
            first_system=first_system,
        )
        if stage_times is not None:
            stage_times.append(("tiled-pcr + fused forward", t1 - t0))
            stage_times.append(
                ("p-thomas backward", time.perf_counter() - t1)
            )
        return x

    red = ws.reduced

    def emit_into_reduced(e0, e1, quad):
        for o, sarr in zip(red, quad):
            o[:, e0:e1] = sarr

    t0 = time.perf_counter()
    tiler.sweep(
        a, b, c, d, check=False, emit=emit_into_reduced, workspace=ws.tiled
    )
    t1 = time.perf_counter()
    x = pthomas_solve_interleaved(
        red[0], red[1], red[2], red[3], plan.k,
        workspace=ws.pthomas, out=out,
    )
    sweep_breakdown(
        "hybrid elimination", x.T, None, check=check,
        first_system=first_system,
    )
    if stage_times is not None:
        stage_times.append(("tiled-pcr sweep", t1 - t0))
        stage_times.append(("p-thomas", time.perf_counter() - t1))
    return x
