"""Prepared solves: factor once, stream right-hand sides.

The paper's motivating workloads (ADI, Crank–Nicolson, multigrid
smoothing) solve the *same* matrix against a fresh right-hand side
every time step.  This module wires the factor/solve split through the
engine:

* :func:`coefficient_fingerprint` — a cheap content hash over the
  coefficient views.  The engine fingerprints incoming coefficients
  (opt-out via ``fingerprint=False``) and keys a factorization cache on
  the digest, so a time-stepping loop written as plain repeated
  ``solve_batch`` calls silently stops re-eliminating after its first
  few steps.
* **One factorization protocol.**  Every stored kind —
  :class:`ThomasRhsFactorization` (``k = 0``),
  :class:`~repro.core.gtsv.GttrfFactorization` (``"lapack"``),
  :class:`~repro.core.factorize.HybridFactorization` (``k > 0``),
  :class:`CyclicRhsFactorization` (periodic, around any of those
  three), :class:`~repro.core.pentadiag.PentaFactorization` and
  :class:`~repro.core.blocktridiag.BlockThomasFactorization` — offers
  ``solve_shard(ws, d, out, lo, hi)`` (the RHS-only sweep of batch rows
  ``[lo, hi)`` against a pooled
  :class:`~repro.engine.workspace.PreparedWorkspace`, which kinds that
  need no scratch ignore), ``nbytes`` (the engine's factorization
  ledger) and ``breakdown(ws, x, *, check)``: called with ``x=None``
  before a sweep it enforces the factor-time state (LAPACK zero pivots,
  cyclic singular corrections); called with the swept solution it
  types non-finite systems.  :func:`rhs_only_sweep` is the one checked
  sweep; session ``step`` runs the bare shards.
* Exactness: the Thomas kind stores the *denominators* and sweeps with
  the executor's own ``factor_t`` / ``solve_t`` kernels, ``?gttrs``
  replays ``?gtsv``, and the penta and block cold paths are literally
  factor + sweep, so those kinds (and cyclic ones around the first two)
  reproduce unprepared solves bit for bit — which is why their plans
  auto-engage the fingerprint fast path.  Hybrid factorizations
  reuse stored reciprocals and are "only" allclose, so they require an
  explicit opt-in (``fingerprint=True``, an ``rtol`` license or a
  :class:`PreparedPlan` handle).
* :class:`PreparedPlan` — the explicit handle (``repro.prepare(a, b,
  c)``, ``periodic=True`` for cyclic systems) for callers who know
  their matrix is fixed: a thin wrapper over bound sessions.

Sharding the RHS-only phase is bitwise-safe for the same reason full
solves are (:mod:`repro.engine.executor`): every operation is
elementwise along the batch axis, and the one global decision — ``k``
— is frozen in the plan before any shard runs.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.core.factorize import HybridFactorization
from repro.core.gtsv import GttrfFactorization
from repro.core.periodic import (
    apply_cyclic_correction,
    correction_denominator,
    correction_scale,
    cyclic_reduce,
    refuse_singular_correction,
    singular_rows,
)
from repro.core.validation import (
    check_batch_arrays,
    check_cyclic_batch_arrays,
    coerce_batch_arrays,
    coerce_cyclic_batch_arrays,
    sweep_breakdown,
)
from repro.core.layout import transpose_into
from repro.engine.executor import factor_t, solve_t

__all__ = [
    "CyclicRhsFactorization",
    "FINGERPRINT_RTOL_FLOOR",
    "PreparedPlan",
    "ThomasRhsFactorization",
    "build_cyclic_factorization",
    "coefficient_fingerprint",
    "prepare",
    "rhs_only_sweep",
    "rtol_permits_hybrid_reuse",
]

#: Per-dtype drift floor for the ``rtol=`` accuracy contract: hybrid
#: (``k > 0``) RHS-only sweeps reuse stored reciprocals and agree with
#: the unprepared solve only to rounding (allclose grade, empirically a
#: few hundred ulps on dominant systems).  A request whose ``rtol`` is
#: at or above this floor has declared it tolerates that drift, so the
#: fingerprint auto tier may engage on ``k > 0`` plans too.
FINGERPRINT_RTOL_FLOOR = {
    "float64": 1e-12,
    "float32": 1e-5,
}


def rtol_permits_hybrid_reuse(rtol, dtype) -> bool:
    """Does this accuracy contract license hybrid factorization reuse?

    ``rtol=None`` means bitwise (never); otherwise the tolerance must
    clear the dtype's :data:`FINGERPRINT_RTOL_FLOOR`.  Unknown dtypes
    are conservative: only an explicit ``fingerprint=True`` engages.
    """
    if rtol is None:
        return False
    floor = FINGERPRINT_RTOL_FLOOR.get(np.dtype(dtype).name)
    return floor is not None and rtol >= floor

#: Elements sampled per array by the fingerprint (plus the weighted
#: checksums); calibrated so fingerprinting a 1024x1024 float64 batch
#: costs ~1 ms against a ~20 ms RHS-only solve.
FINGERPRINT_SAMPLE = 4096

#: Width of the ``(rows, FINGERPRINT_CHUNK)`` grid the large-array
#: checksums reduce over: one weighted sum per row and one per column.
FINGERPRINT_CHUNK = 1024

#: Seed of the fixed checksum weights.  Fixed, so a digest is stable
#: across calls, engines and processes sharing a disk cache.
FINGERPRINT_SEED = 0x5EED

_sample_idx_cache: dict = {}
_weight_cache: dict = {}


def _sample_indices(size: int) -> np.ndarray:
    idx = _sample_idx_cache.get(size)
    if idx is None:
        idx = np.linspace(0, size - 1, FINGERPRINT_SAMPLE).astype(np.intp)
        if len(_sample_idx_cache) > 64:
            _sample_idx_cache.clear()
        _sample_idx_cache[size] = idx
    return idx


def _weights(length: int) -> np.ndarray:
    """``length`` fixed-seed float64 checksum weights in ``[0.5, 1.5)``."""
    w = _weight_cache.get(length)
    if w is None:
        rng = np.random.default_rng([FINGERPRINT_SEED, length])
        w = 0.5 + rng.random(length)
        if len(_weight_cache) > 64:
            _weight_cache.clear()
        _weight_cache[length] = w
    return w


def coefficient_fingerprint(*arrays) -> str:
    """Content hash of coefficient arrays (hex, 128-bit blake2b).

    Hashes each array's shape, dtype, and content.  Small arrays are
    hashed in full; large ones contribute an evenly-strided
    :data:`FINGERPRINT_SAMPLE`-element sample plus two random-weighted
    checksums: the flat array is viewed as a ``(rows,
    FINGERPRINT_CHUNK)`` grid and both ``grid @ w_col`` (one weighted
    sum per row) and ``w_row @ grid`` (one per column) are hashed,
    with fixed-seed weights, along with any ragged tail verbatim.  The
    sums are taken in float64 whatever the array's dtype.

    Every entry counts with its own weight, so an edit escapes only if
    its weighted changes cancel in every row *and* every column.  Plain
    row and column sums did not have that property: a four-entry
    "rectangle" edit (``+x`` at ``[r1, j1]`` and ``[r2, j2]``, ``−x`` at
    ``[r1, j2]`` and ``[r2, j1]``) kept all of them and served a stale
    factorization.  With generic weights no sparse edit cancels.

    Limit: the checksums are rounded float64 sums, so an off-sample
    edit below their rounding level (about ``2⁻⁵³ · FINGERPRINT_CHUNK``
    relative to a row's magnitude) can still slip through.  That is
    sub-ulp for float64 entries of similar size; a float32 entry's
    smallest edit (one float32 ulp, ``2⁻²⁴`` relative) sits far above
    it.  ``fingerprint=False`` and explicit :func:`prepare` handles are
    the exact paths.  Used to detect *unchanged* coefficients across
    time steps, not to authenticate data.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.dtype.str.encode())
        flat = arr.reshape(-1)
        if flat.size <= FINGERPRINT_SAMPLE:
            h.update(np.ascontiguousarray(flat).tobytes())
        else:
            h.update(flat[_sample_indices(flat.size)].tobytes())
            trunc = flat.size - flat.size % FINGERPRINT_CHUNK
            grid = np.ascontiguousarray(flat[:trunc]).reshape(
                -1, FINGERPRINT_CHUNK
            )
            w_col = _weights(grid.shape[1])
            w_row = _weights(grid.shape[0])
            # einsum without ``optimize`` never calls BLAS, so the sums
            # do not depend on a BLAS thread count
            h.update(np.einsum("ij,j->i", grid, w_col, dtype=np.float64).tobytes())
            h.update(np.einsum("i,ij->j", w_row, grid, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(flat[trunc:]).tobytes())
    return h.hexdigest()


class ThomasRhsFactorization:
    """``k = 0`` factorization in the engine's transposed layout.

    Stores the sub-diagonal, the modified super-diagonal ``c'`` and the
    forward-elimination *denominators* as ``(N, M)`` arrays.  Both
    halves are the one-shot path's kernels (:func:`~repro.engine.executor.factor_t`,
    :func:`~repro.engine.executor.solve_t`), so a prepared solve
    reproduces an unprepared engine solve bit for bit.
    """

    __slots__ = ("ta", "cp", "denom", "nbytes")

    def __init__(self, ta, cp, denom):
        self.ta = ta
        self.cp = cp
        self.denom = denom
        self.nbytes = ta.nbytes + cp.nbytes + denom.nbytes

    @property
    def m(self) -> int:
        return self.ta.shape[1]

    @property
    def n(self) -> int:
        return self.ta.shape[0]

    @classmethod
    def factor(cls, a, b, c) -> "ThomasRhsFactorization":
        """Coefficient-only forward elimination over ``(M, N)`` inputs:
        :func:`~repro.engine.executor.factor_t` in place over blocked
        transposes (the pivots over ``b``'s, ``c'`` over ``c``'s)."""
        m, n = b.shape
        ta, denom, cp = (
            transpose_into(np.empty((n, m), dtype=b.dtype), x) for x in (a, b, c)
        )
        factor_t(ta, denom, cp, cp, denom, np.empty(m, dtype=b.dtype))
        return cls(ta=ta, cp=cp, denom=denom)

    def breakdown(self, ws, x, *, check: bool) -> None:
        """The breakdown hook: nothing to enforce before a sweep
        (``x is None``); after one, a non-finite system of ``x`` raises
        :class:`~repro.core.validation.SingularSystemError` naming its
        first zero or non-finite pivot (warns under ``check=False``)."""
        if x is not None:
            sweep_breakdown("Thomas elimination", x.T, self.denom, check=check)

    def solve_shard(self, ws, d, out, lo: int, hi: int) -> None:
        """RHS-only sweep for batch rows ``[lo, hi)`` of ``d`` into ``out``.

        :meth:`solve_shard_t` in place on columns ``[lo, hi)`` of the
        workspace's ``(N, M)`` buffer (concurrent shards touch disjoint
        columns), between two blocked transposes.
        """
        td = ws.td
        transpose_into(td[:, lo:hi], d[lo:hi])
        self.solve_shard_t(ws, td, td, lo, hi)
        transpose_into(out[lo:hi], td[:, lo:hi])

    def solve_shard_t(self, ws, dt, out_t, lo: int, hi: int) -> None:
        """Transposed-layout RHS sweep: ``(N, M)`` in, ``(N, M)`` out.

        :func:`~repro.engine.executor.solve_t` on columns ``[lo, hi)``
        of the caller's arrays, ``d'`` and ``x`` both held in ``out_t``:
        no staging copies.  This is the ADI fast path — alternating
        sweep directions hand each solve its input in this orientation.
        """
        s = slice(lo, hi)
        x = out_t[:, s]
        solve_t(
            self.ta[:, s], self.cp[:, s], self.denom[:, s], dt[:, s], x, x,
            ws.t1[s], ws.t2[s],
        )


def build_factorization(plan, a, b, c):
    """Factor coefficients for ``plan``'s kernel family."""
    if plan.uses_thomas:
        return ThomasRhsFactorization.factor(a, b, c)
    if plan.algorithm == "lapack":
        return GttrfFactorization.factor(a, b, c)
    return HybridFactorization.factor(a, b, c, k=plan.k, check=False)


def for_shards(engine, shards, fn) -> None:
    """Call ``fn(lo, hi)`` for each ``(lo, hi)`` row shard.

    One shard runs inline; several run concurrently on the engine's
    persistent thread pool (shards write disjoint rows of one output).
    """
    if len(shards) == 1:
        fn(*shards[0])
        return
    pool = engine.thread_pool(len(shards))
    list(pool.map(lambda shard: fn(*shard), shards))


def rhs_only_sweep(engine, plan, fact, d, out, shards, *, check: bool) -> float:
    """The checked RHS-only sweep of ``fact`` into ``out``.

    The kind's breakdown hook on its factor-time state, one
    ``solve_shard`` per ``(lo, hi)`` row shard against a
    :class:`~repro.engine.workspace.PreparedWorkspace` checked out of
    the engine's pool (none for banded plans: the penta and block kinds
    need no scratch), then the hook on the solution.  ``d`` must be a
    contiguous array of the plan's dtype.  Returns the seconds a cyclic
    kind's first shard spent on its rank-one correction (0.0 for the
    other kinds).
    """
    fact.breakdown(None, None, check=check)
    ws = None if plan.system else engine.checkout_prepared(plan)
    try:
        if ws is not None:
            ws.correction_s = 0.0
        for_shards(engine, shards, lambda lo, hi: fact.solve_shard(ws, d, out, lo, hi))
        fact.breakdown(ws, out, check=check)
        return 0.0 if ws is None else ws.correction_s
    finally:
        if ws is not None:
            engine.checkin_prepared(plan, ws)


class CyclicRhsFactorization:
    """Engine-layer cyclic factorization: corner-reduced core + correction.

    The core ``A'`` factorization is any tridiagonal kind
    (:class:`ThomasRhsFactorization` at ``k = 0``,
    :class:`~repro.core.gtsv.GttrfFactorization` on the LAPACK route,
    :class:`~repro.core.factorize.HybridFactorization` above), and the
    Sherman–Morrison state (``q``, ``w = a_0/γ``, the precomputed
    ``1/(1 + vᵀq)`` scale) is stored alongside.  A cyclic solve against
    a cached instance is **one** core RHS-only sweep plus a vectorized
    rank-one update — versus the two full eliminations the unprepared
    path pays.

    ``singular`` records the batch rows whose correction denominator
    vanished at factor time; the breakdown hook refuses them under
    ``check=True``.
    """

    __slots__ = ("core", "q", "w", "scale", "singular", "nbytes")

    def __init__(self, core, q, w, scale, singular):
        self.core = core
        self.q = q
        self.w = w
        self.scale = scale
        self.singular = singular
        self.nbytes = core.nbytes + q.nbytes + w.nbytes + scale.nbytes

    def breakdown(self, ws, x, *, check: bool) -> None:
        """The breakdown hook: before a sweep (``x is None``) the
        singular corrections (under ``check=True``) and the core's
        factor-time state; after one, the core's check on the
        intermediate ``y`` in ``ws``."""
        if x is None:
            if check:
                refuse_singular_correction(self.singular)
            self.core.breakdown(ws, None, check=check)
        else:
            self.core.breakdown(ws, ws.cyclic_y(), check=check)

    def solve_shard(self, ws, d, out, lo: int, hi: int) -> None:
        """Core sweep of rows ``[lo, hi)`` into ``ws.cyclic_y()``, then
        their rank-one correction into ``out``.

        The correction is per row, so a sharded sweep is bitwise the
        whole-batch one.  The first shard times its correction into
        ``ws.correction_s``.
        """
        y = ws.cyclic_y()
        self.core.solve_shard(ws, d, y, lo, hi)
        t0 = time.perf_counter()
        s = slice(lo, hi)
        apply_cyclic_correction(y[s], self.q[s], self.w[s], self.scale[s], out=out[s])
        if lo == 0:
            ws.correction_s = time.perf_counter() - t0


def build_cyclic_factorization(
    engine, plan, a, b, c, *, check: bool = True
) -> CyclicRhsFactorization:
    """Corner-reduce + factor a cyclic coefficient set under ``plan``.

    The correction column ``q`` is solved through the freshly built
    core factorization's own checked RHS-only sweep, so the stored
    ``q`` is bitwise identical to what an unprepared engine solve of
    ``A' q = u`` would produce — which is what keeps the prepared
    cyclic path bitwise-equal to re-elimination at ``k = 0``.
    ``check`` sets the singular-correction policy (raise vs warn+NaN).
    """
    ap, bp, cp, u, w = cyclic_reduce(a, b, c, check=check)
    core = build_factorization(plan, ap, bp, cp)
    q = np.empty((plan.m, plan.n), dtype=plan.dtype)
    rhs_only_sweep(engine, plan, core, u, q, [(0, plan.m)], check=check)
    denom = correction_denominator(q, w)
    scale = correction_scale(denom, plan.n, check=check)
    return CyclicRhsFactorization(
        core=core, q=q, w=w, scale=scale,
        singular=singular_rows(denom, plan.n),
    )


class PreparedPlan:
    """A solve handle bound to one factored coefficient set.

    Returned by :func:`prepare` / :meth:`ExecutionEngine.prepare
    <repro.engine.engine.ExecutionEngine.prepare>`.  Each
    :meth:`solve` runs the RHS-only sweep — no re-elimination, pooled
    workspaces, optional batch-axis sharding — and records a
    :class:`~repro.backends.trace.SolveTrace` with
    ``factorization="handle"``.

    ``k = 0`` Thomas and ``"lapack"`` handles are bitwise identical to
    unprepared engine solves; hybrid ``k > 0`` handles agree to rounding (the stored hybrid
    reciprocals differ from the live p-Thomas divisions in the last
    ulp).
    """

    def __init__(
        self, engine, plan, fact, fingerprint: str, workers=None,
        periodic: bool = False,
    ):
        self.engine = engine
        self.plan = plan
        self.factorization = fact
        self.fingerprint = fingerprint
        self.default_workers = workers
        self.periodic = periodic
        self.solves = 0
        # (workers, check) -> BoundSolve: the handle is a thin wrapper
        # over bound sessions since the bind/execute split — one bind
        # per effective configuration, per-call costs amortized away
        self._sessions: dict = {}

    @property
    def m(self) -> int:
        return self.plan.m

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def k(self) -> int:
        return self.plan.k

    @property
    def dtype(self) -> np.dtype:
        return self.plan.dtype

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored factorization."""
        return self.factorization.nbytes

    def describe(self) -> dict:
        """Plan summary plus factorization provenance."""
        desc = self.plan.describe()
        desc["fingerprint"] = self.fingerprint
        desc["factorization_bytes"] = self.nbytes
        desc["solves"] = self.solves
        desc["periodic"] = self.periodic
        return desc

    def _session(self, workers, check: bool):
        """The bound session for this effective configuration."""
        key = (workers, check)
        session = self._sessions.get(key)
        if session is None:
            from repro.backends.request import SolveRequest

            session = self.engine.bind(
                SolveRequest(
                    a=None,
                    b=None,
                    c=None,
                    d=None,
                    m=self.m,
                    n=self.n,
                    dtype=np.dtype(self.plan.dtype).name,
                    periodic=self.periodic,
                    rhs_only=True,
                    factorization=self.factorization,
                    plan=self.plan,
                    workers=workers,
                    check=check,
                    label="prepared",
                )
            )
            self._sessions[key] = session
        return session

    def bind(self, *, workers: int | None = None, check: bool = True):
        """The handle's :class:`~repro.engine.session.BoundSolve`.

        For callers who want the raw hot loop: ``session.step(d)``
        reuses a session-owned output buffer and skips per-call
        stats/trace entirely.  The session is cached — repeated calls
        with one configuration return the same object.
        """
        if workers is None:
            workers = self.default_workers
        return self._session(workers, check)

    def solve(
        self,
        d,
        *,
        out: np.ndarray | None = None,
        workers: int | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Solve the prepared system against a fresh ``(M, N)`` RHS.

        A thin wrapper over a cached
        :class:`~repro.engine.session.BoundSolve`: the ``rhs_only``
        request carrying the stored factorization is bound once per
        ``(workers, check)`` configuration and each call runs one
        instrumented session step — identical stats, stages and trace
        to the classic per-call dispatch, without re-resolving the plan
        or rebuilding the request every right-hand side.
        """
        d = np.asarray(d)
        if d.shape != (self.m, self.n):
            raise ValueError(
                f"d has shape {d.shape}, prepared for ({self.m}, {self.n})"
            )
        if check and not np.all(np.isfinite(d)):
            raise ValueError("d contains non-finite values")
        dtype = self.plan.dtype
        if d.dtype != dtype or not d.flags.c_contiguous:
            d = np.ascontiguousarray(d, dtype=dtype)
        if workers is None:
            workers = self.default_workers
        from repro.backends.trace import record_trace

        outcome = self._session(workers, check).step_once(d, out=out)
        self.solves += 1
        record_trace(outcome.trace)
        return outcome.x

    def close(self) -> None:
        """Release the handle's bound sessions (workspaces return to
        the engine pool); the handle itself remains usable — the next
        solve simply binds afresh."""
        sessions, self._sessions = self._sessions, {}
        for session in sessions.values():
            session.close()


def prepare(
    a,
    b,
    c,
    *,
    check: bool = True,
    engine=None,
    periodic: bool = False,
    **opts,
) -> PreparedPlan:
    """Factor a coefficient set once; solve many right-hand sides.

    The module-level convenience over
    :meth:`ExecutionEngine.prepare`.  Keywords mirror ``solve_batch``
    (``k``, ``fuse``, ``n_windows``, ``subtile_scale``,
    ``parallelism``, ``heuristic``, ``workers``).

    ``periodic=True`` prepares a *cyclic* (Sherman–Morrison) system:
    the corner entries ``a[:, 0]`` / ``c[:, -1]`` are real couplings
    (never zeroed by validation), and ``handle.solve(d)`` runs one core
    RHS-only sweep plus the precomputed rank-one correction.

    Examples
    --------
    >>> import numpy as np, repro
    >>> from repro.workloads.generators import random_batch
    >>> a, b, c, d = random_batch(8, 64, seed=0)
    >>> handle = repro.prepare(a, b, c)
    >>> x = handle.solve(d)                  # RHS-only: no re-elimination
    >>> bool(np.allclose(x, repro.solve_batch(a, b, c, d)))
    True
    """
    if engine is None:
        from repro.engine.engine import default_engine

        engine = default_engine()
    if periodic:
        # cyclic corners are used — validate without pad zeroing
        d0 = np.zeros_like(np.asarray(b))
        validate = (
            check_cyclic_batch_arrays if check else coerce_cyclic_batch_arrays
        )
        a, b, c, _ = validate(a, b, c, d0)
        if b.shape[1] < 3:
            raise ValueError(
                f"cyclic solver needs N >= 3, got {b.shape[1]}"
            )
        return engine.prepare(a, b, c, periodic=True, check=check, **opts)
    if check:
        d0 = np.zeros_like(np.asarray(b, dtype=float))
        a, b, c, _ = check_batch_arrays(a, b, c, d0)
    else:
        d0 = np.zeros_like(np.asarray(b))
        a, b, c, _ = coerce_batch_arrays(a, b, c, d0)
    return engine.prepare(a, b, c, **opts)
