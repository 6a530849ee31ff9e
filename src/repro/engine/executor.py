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
  sweep and p-Thomas back-end, just against plan-owned workspaces.
* ``k = 0`` plans run the Thomas recurrence in a *transposed* ``(N,
  M)`` layout — one contiguous ``M``-vector per recurrence step —
  between cache-blocked copies (:func:`repro.core.layout.transpose_into`).
  The kernel pair :func:`factor_t` / :func:`solve_t`, shared by every
  prepared and session ``k = 0`` sweep, runs in place in the operation
  order of :func:`repro.core.thomas.thomas_solve_batch`, so results
  match it bit for bit; :func:`thomas_breakdown` types non-finite
  systems.
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
import warnings

import numpy as np

from repro.core.gtsv import gtsv_batch
from repro.core.hybrid import _FusedPThomas
from repro.core.layout import transpose_into
from repro.core.pthomas import pthomas_solve_interleaved
from repro.core.tiled_pcr import TiledPCR, TilingCounters
from repro.core.validation import SingularSystemError, describe_rows

__all__ = ["execute_plan", "factor_t", "shard_bounds", "solve_t", "thomas_breakdown"]


def shard_bounds(m: int, workers: int) -> list:
    """Split ``m`` batch rows into at most ``workers`` contiguous shards."""
    workers = max(1, min(int(workers), m))
    bounds = np.linspace(0, m, workers + 1).astype(int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(workers)
        if bounds[i + 1] > bounds[i]
    ]


def factor_t(ta, tb, tc, cp, denom, t1) -> None:
    """``denom_i = b_i − c'_{i−1}·a_i``, ``c'_i = c_i / denom_i`` per ``(N, M)`` row.

    ``denom`` may alias ``tb`` and ``cp`` may alias ``tc``; ``t1`` is an
    ``M``-vector scratch.
    """
    denom[0] = tb[0]
    np.divide(tc[0], denom[0], out=cp[0])
    for a_i, b_i, c_i, cp_prev, cp_i, den_i in zip(
        ta[1:], tb[1:], tc[1:], cp, cp[1:], denom[1:]
    ):
        np.multiply(cp_prev, a_i, out=t1)
        np.subtract(b_i, t1, out=den_i)
        np.divide(c_i, den_i, out=cp_i)


def solve_t(ta, cp, denom, dt, dp, xt, t1, t2) -> None:
    """``d'_i = (d_i − d'_{i−1}·a_i) / denom_i``, ``x_i = d'_i − c'_i·x_{i+1}``.

    Eqs. 3-4 over the ``(N, M)`` rows :func:`factor_t` left; ``dp`` and
    ``xt`` may alias ``dt`` and each other.
    """
    np.divide(dt[0], denom[0], out=dp[0])
    for a_i, d_i, den_i, dp_prev, dp_i in zip(ta[1:], dt[1:], denom[1:], dp, dp[1:]):
        np.multiply(dp_prev, a_i, out=t2)
        np.subtract(d_i, t2, out=t2)
        np.divide(t2, den_i, out=dp_i)
    xt[-1] = dp[-1]
    for cp_i, dp_i, x_next, x_i in zip(cp[-2::-1], dp[-2::-1], xt[::-1], xt[-2::-1]):
        np.multiply(cp_i, x_next, out=t1)
        np.subtract(dp_i, t1, out=x_i)


def thomas_breakdown(xt, denom, *, check: bool, first_system: int = 0) -> None:
    """Raise or warn if the ``(N, M)`` solution ``xt`` has non-finite systems.

    One axis-0 sum screens all systems; the exact check runs only when
    it is non-finite.  Same policy as :func:`repro.core.gtsv.singular_policy`:
    ``check=True`` raises :class:`SingularSystemError` naming the first
    bad system and its first zero or non-finite pivot in ``denom``,
    ``check=False`` warns and leaves the rows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(xt.sum(axis=0)).all():
            return
    bad = np.flatnonzero(~np.isfinite(xt).all(axis=0))
    if bad.size == 0:  # only the checksum overflowed
        return
    systems = bad + first_system
    if not check:
        warnings.warn(
            f"Thomas elimination broke down in system(s) {describe_rows(systems)}; "
            "their rows are left non-finite", RuntimeWarning, stacklevel=3,
        )
        return
    pivots = denom[:, bad[0]]
    rows = np.flatnonzero((pivots == 0) | ~np.isfinite(pivots))
    row = int(rows[0]) if rows.size else None  # None: overflow, no bad pivot
    raise SingularSystemError(
        f"Thomas elimination broke down in batch system {systems[0]}, row {row} "
        f"(non-finite systems {describe_rows(systems)}): zero or non-finite pivot, and "
        "the k = 0 route does not pivot (pass check=False for non-finite output instead)",
        systems=systems, row=row,
    )


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
    :func:`thomas_breakdown` guard of ``k = 0`` plans — and the
    batch-row numbering it reports (a shard passes its first row).
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
        ta, tb, tc, td = ws.ta, ws.tb, ws.tc, ws.td
        for dst, src in ((ta, a), (tb, b), (tc, c), (td, d)):
            transpose_into(dst, src)
        factor_t(ta, tb, tc, tc, tb, ws.t1)
        solve_t(ta, tc, tb, td, td, td, ws.t1, ws.t2)
        thomas_breakdown(td, tb, check=check, first_system=first_system)
        x = transpose_into(np.empty(b.shape, b.dtype) if out is None else out, td)
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
    if stage_times is not None:
        stage_times.append(("tiled-pcr sweep", t1 - t0))
        stage_times.append(("p-thomas", time.perf_counter() - t1))
    return x
