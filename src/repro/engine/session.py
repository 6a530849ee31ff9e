"""Bound solve sessions: bind once, step many times.

The engine's classic entrypoint, :meth:`ExecutionEngine.run
<repro.engine.engine.ExecutionEngine.run>`, pays its full dispatch cost
on every call — plan lookup, fingerprint phase, stage-list and trace
construction, stats lock traffic.  For one-shot solves that cost is
noise; for a time-stepping loop issuing thousands of right-hand sides
against one fixed matrix it is the dominant overhead (the motivating
workloads — ADI, Crank–Nicolson — are exactly this shape).

:class:`BoundSolve` splits the spine into **bind** and **execute**:

* ``engine.bind(request)`` performs validation-independent setup once —
  plan resolution, the fingerprint/factorization phase, workspace and
  shard-geometry binding, trace-template capture — and returns a
  session.
* :meth:`BoundSolve.step` is the allocation-free per-step hot loop: a
  canonical-input scan, a direct factorization sweep into session-owned
  buffers, no stats, no trace, no stage lists.
* :meth:`BoundSolve.step_once` is the fully-instrumented execution —
  stats, stages, :class:`~repro.backends.trace.SolveTrace` — and is how
  the single-call path is expressed: ``ExecutionEngine.run`` is
  literally ``bind(request, transient=True).step_once()``, so every
  pre-existing dispatch route flows through this module bitwise
  unchanged.

A session that holds a factorization — tridiagonal, cyclic,
pentadiagonal or block, served from the cache, a prepared handle, or
built at bind — sweeps it through the one protocol of
:mod:`repro.engine.prepared` (``solve_shard`` per row shard, the
``breakdown`` hook); what differs between kinds (the stage label,
whether the sweep counts as RHS-only, the trace's system fields) is
data fixed at bind time.  Sessions without one run the full plan.

``transient=True`` reproduces the one-shot lifecycle exactly (the
fingerprint two-sighting ledger, ``force`` only on explicit
``fingerprint=True``).  A persistent bind declares reuse intent: when
the fingerprint gate admits the plan at all, the factorization is
forced at bind time so the first step already runs RHS-only.  Plans the
gate rejects (``k > 0`` without an ``rtol``/``fingerprint=True``
license) execute the full plan every step — the bitwise contract is
never traded for session speed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.hybrid import HybridReport
from repro.core.layout import transpose_into
from repro.core.periodic import (
    apply_cyclic_correction,
    correction_denominator,
    correction_scale,
    cyclic_reduce,
)
from repro.core.tiled_pcr import TilingCounters
from repro.engine.executor import shard_bounds
from repro.engine.prepared import (
    CyclicRhsFactorization,
    ThomasRhsFactorization,
    coefficient_fingerprint,
    for_shards,
    rhs_only_sweep,
    rtol_permits_hybrid_reuse,
)

__all__ = ["BoundSolve"]


class BoundSolve:
    """One bound solve session: frozen plan + factorization + buffers.

    Produced by :meth:`ExecutionEngine.bind
    <repro.engine.engine.ExecutionEngine.bind>`; see the module docs
    for the bind/execute contract.  Sessions are cheap enough to be
    built per call (the transient path) and rich enough to drive a
    multi-thousand-step simulation (the persistent path).

    The session's execution **mode** is resolved at bind time:

    ``"rhs"``
        A stored factorization of any kind — plain, cyclic,
        pentadiagonal or block — swept each step: an explicit prepared
        handle, a fingerprint-cache entry, or (banded systems the cache
        does not serve) one factored at bind.
    ``"full"``
        Plain tridiagonal running the full hybrid plan each step
        (fingerprinting off or not licensed).
    ``"full-cyclic"``
        Periodic tridiagonal running the full plan on the corner-reduced
        core each step, plus the correction; the reduction and the
        correction column ``q`` are computed once, at bind.
    """

    def __init__(self, engine, request, *, transient: bool = False):
        self.engine = engine
        self.request = request
        self.transient = transient
        self.steps = 0
        self.closed = False
        self.bind_stages: list = []
        self._ws = None
        self._out = None
        self._out_t = None
        self._cyc = None
        workers = request.workers
        #: row shards every step runs over (one shard: unsharded)
        self._shards = (
            shard_bounds(request.m, workers)
            if workers is not None and workers > 1
            else [(0, request.m)]
        )
        system = getattr(request, "system", None)
        if system is not None and system.kind != "tridiagonal":
            self._bind_banded(request)
        else:
            self._bind_tridiagonal(request)
        self._dtype = self.plan.dtype
        if self._system == "block":
            self._dshape = (request.m, request.n, request.system.block_size)
        else:
            self._dshape = (request.m, request.n)
        fact = self.fact
        self.mode = (
            "rhs" if fact is not None
            else "full-cyclic" if self._cyc is not None
            else "full"
        )
        #: step_t runs the transposed Thomas sweep without staging copies
        self._transposed = isinstance(fact, ThomasRhsFactorization)
        if fact is not None:
            name = self.plan.system or self.plan.algorithm
            shards = len(self._shards)
            tag = f" [{shards} shards]" if shards > 1 else ""
            sweep = "rhs-only" if self._served else "sweep"
            #: stage names of one instrumented sweep
            self._stages = (f"{sweep} {name}{tag}",)
            if isinstance(fact, CyclicRhsFactorization):
                self._stages += ("cyclic-correction",)

    # ---- bind phase --------------------------------------------------
    def _resolve_plan(self, request, *, system_tag: str = ""):
        """Plan lookup (or the request's frozen plan) + ``prepare`` stage."""
        info: dict = {}
        t0 = time.perf_counter()
        if request.plan is not None:
            plan = request.plan
            cache = "hit"
        elif system_tag:
            plan = self.engine.plan_for(
                request.m,
                request.n,
                np.dtype(request.dtype),
                k=request.k,
                info=info,
                system=system_tag,
            )
            cache = info.get("cache", "miss")
        else:
            plan = self.engine.plan_for(
                request.m,
                request.n,
                np.dtype(request.dtype),
                k=request.k,
                fuse=request.fuse,
                n_windows=request.n_windows,
                subtile_scale=request.subtile_scale,
                parallelism=request.parallelism,
                heuristic=request.heuristic,
                info=info,
            )
            cache = info.get("cache", "miss")
        self.bind_stages.append(("prepare", time.perf_counter() - t0))
        self.plan = plan
        self.cache = cache
        return plan

    def _bind_tridiagonal(self, request) -> None:
        plan = self._resolve_plan(request)
        fingerprint = request.fingerprint
        self._system = "tridiagonal"
        #: the tridiagonal path counts any workers > 1 as sharded
        self._sharded_stat = request.workers is not None and request.workers > 1

        if request.rhs_only:
            # prepared handle: the factorization rode in on the request
            self.fact = request.factorization
            self.fp_state = "handle"
            self.count_solves = False
            self._served = True
            self._report_plain = False
            return

        # a persistent bind declares reuse intent, so the factorization
        # is forced whenever the gate admits the plan at all; transient
        # binds keep the classic two-sighting auto lifecycle
        force = True if not self.transient else (fingerprint is True)
        fact = None
        fp_state = "off" if fingerprint is False else "n/a"
        licensed = fingerprint is not False and (
            plan.exact_reuse
            or fingerprint
            or rtol_permits_hybrid_reuse(request.rtol, plan.dtype)
        )
        if licensed:
            t_fp = time.perf_counter()
            digest = coefficient_fingerprint(request.a, request.b, request.c)
            self.bind_stages.append(
                ("fingerprint", time.perf_counter() - t_fp)
            )
            fact, fp_state = self.engine._factorization_for(
                plan, digest, request.a, request.b, request.c,
                force=force,
                periodic=request.periodic,
                check=request.check,
                stage_times=self.bind_stages,
            )
        self.fact = fact
        self.fp_state = fp_state
        self.count_solves = True
        self._served = fact is not None
        # the fingerprint cache serving a *plain* batch request: the
        # one-shot path still publishes a (zero-counter) report
        self._report_plain = self._served and not request.periodic
        if fact is None and request.periodic:
            self._bind_cyclic_state(request)

    def _bind_cyclic_state(self, request) -> None:
        """Corner-reduce and solve the correction column ``q`` once.

        Both depend only on the bound coefficients; every step (and
        every instrumented step, whose stages replay these bind stages)
        reuses them.
        """
        t0 = time.perf_counter()
        ap, bp, cp, u, w = cyclic_reduce(
            request.a, request.b, request.c, check=request.check
        )
        self.bind_stages.append(("cyclic-reduce", time.perf_counter() - t0))
        q = self.engine._execute_full(
            self.plan, ap, bp, cp, u,
            workers=request.workers, stage_times=self.bind_stages,
            check=request.check,
        )
        scale = correction_scale(
            correction_denominator(q, w), request.n, check=request.check
        )
        self._cyc = (ap, bp, cp, w, q, scale)

    def _bind_banded(self, request) -> None:
        from repro.core.blocktridiag import BlockThomasFactorization
        from repro.core.pentadiag import PentaFactorization

        self._system = request.system.kind
        plan = self._resolve_plan(request, system_tag=request.system.tag)
        self._sharded_stat = len(self._shards) > 1

        if self._system == "pentadiagonal":
            coeffs = (request.e, request.a, request.b, request.c, request.f)

            def builder():
                return PentaFactorization.factor(*coeffs)

        else:
            coeffs = (request.a, request.b, request.c)

            def builder():
                return BlockThomasFactorization.factor(*coeffs)

        fingerprint = request.fingerprint
        fact = None
        fp_state = "off" if fingerprint is False else "n/a"
        if fingerprint is not False:
            t_fp = time.perf_counter()
            digest = coefficient_fingerprint(*coeffs)
            self.bind_stages.append(
                ("fingerprint", time.perf_counter() - t_fp)
            )
            fact, fp_state = self.engine._factorization_for(
                plan, digest, request.a, request.b, request.c,
                force=True if not self.transient else (fingerprint is True),
                stage_times=self.bind_stages,
                builder=builder,
            )
        self._served = fact is not None
        if fact is None:
            t_b = time.perf_counter()
            fact = builder()
            self.bind_stages.append(
                ("factorize", time.perf_counter() - t_b)
            )
        self.fact = fact
        self.fp_state = fp_state
        self.count_solves = True
        self._report_plain = False

    def _report(self, counters) -> HybridReport:
        request, plan = self.request, self.plan
        return HybridReport(
            m=request.m,
            n=request.n,
            k=plan.k,
            k_source=plan.k_source,
            subsystems=request.m * plan.g,
            fused=plan.fuse,
            n_windows=plan.n_windows,
            tiling=counters,
        )

    # ---- instrumented execution --------------------------------------
    def step_once(self, d=None, out=None):
        """One fully-instrumented execution: stats + stages + trace.

        The single-call semantics of the classic ``ExecutionEngine.run``
        — every stat the one-shot path increments, every stage it
        records (bind stages included), the exact
        :class:`~repro.backends.trace.SolveTrace` schema — returned as
        a :class:`~repro.backends.request.SolveOutcome`.  ``d`` / ``out``
        default to the bound request's arrays.  Checked: the
        factorization's breakdown hook runs before and after its sweep.
        """
        from repro.backends.request import SolveOutcome
        from repro.backends.trace import SolveTrace, StageTiming

        engine = self.engine
        request = self.request
        plan = self.plan
        if d is None:
            d = request.d
        if out is None:
            out = request.out
        workers = request.workers
        stage_times = list(self.bind_stages)

        if self.fact is not None:
            if out is None:
                out = np.empty(self._dshape, dtype=self._dtype)
            t0 = time.perf_counter()
            correction_s = rhs_only_sweep(
                engine, plan, self.fact, d, out, self._shards,
                check=request.check,
            )
            sweep_s = time.perf_counter() - t0 - correction_s
            sweep, *correction = self._stages
            stage_times.append((sweep, sweep_s))
            stage_times.extend((name, correction_s) for name in correction)
            with engine._lock:
                if self.count_solves:
                    engine.stats.solves += 1
                if self._served:
                    engine.stats.rhs_only_solves += 1
                if self._sharded_stat:
                    engine.stats.sharded_solves += 1
            if self._report_plain:
                engine.last_report = self._report(TilingCounters())
            x = out
        else:
            counters = TilingCounters()
            x = self._solve_full(d, out, stage_times, counters)
            if self._cyc is None:
                engine.last_report = self._report(counters)

        trace = SolveTrace(
            backend=request.label or "engine",
            m=request.m,
            n=request.n,
            dtype=request.dtype,
            k=plan.k,
            k_source=plan.k_source,
            fuse=plan.fuse,
            n_windows=plan.n_windows,
            workers=workers if workers is not None else 1,
            plan_cache=self.cache,
            factorization=self.fp_state,
            rhs_only=self._served,
            periodic=request.periodic,
            system=self._system,
            stages=[StageTiming(n_, s) for n_, s in stage_times],
        )
        trace.decision = request.decision
        self.steps += 1
        kept = self.fact if self._served else None
        return SolveOutcome(x=x, trace=trace, factorization=kept, plan=plan)

    def _solve_full(self, d, out, stage_times=None, counters=None):
        """The full plan against the bound coefficients; a cyclic
        session solves the corner-reduced core and applies the
        bind-time correction."""
        request = self.request
        if self._cyc is None:
            return self.engine._execute_full(
                self.plan, request.a, request.b, request.c, d,
                workers=request.workers, counters=counters, out=out,
                stage_times=stage_times, check=request.check,
            )
        ap, bp, cp, w, q, scale = self._cyc
        y = self.engine._execute_full(
            self.plan, ap, bp, cp, d,
            workers=request.workers, stage_times=stage_times,
            check=request.check,
        )
        t0 = time.perf_counter()
        x = apply_cyclic_correction(y, q, w, scale, out=out)
        if stage_times is not None:
            stage_times.append(("cyclic-correction", time.perf_counter() - t0))
        return x

    # ---- hot loop ----------------------------------------------------
    def _canon_d(self, d, shape, name="d"):
        """The per-step input scan: canonical arrays pass untouched."""
        if not (
            type(d) is np.ndarray
            and d.dtype == self._dtype
            and d.flags.c_contiguous
        ):
            d = np.ascontiguousarray(d, dtype=self._dtype)
        if d.shape != shape:
            raise ValueError(f"{name} has shape {d.shape}, session bound for {shape}")
        return d

    def _workspace(self):
        """The session-held prepared workspace (``None`` for banded
        plans: the penta and block kinds sweep without one)."""
        if self._ws is None and not self.plan.system:
            self._ws = self.engine.checkout_prepared(self.plan)
        return self._ws

    def step(self, d, out=None):
        """The allocation-free per-step hot loop.

        Canonical-input scan, direct factorization sweep, session-owned
        output buffer when ``out`` is omitted (reused across steps —
        copy it if you keep references).  No stats, no stages, no trace:
        instrumentation belongs to :meth:`step_once`.  Bitwise identical
        to an independent one-shot solve of the same system wherever the
        one-shot path makes that promise (every ``k = 0`` route, all
        banded routes).  Unchecked by design: the factor-time state
        (LAPACK zero pivots, singular cyclic corrections) is enforced,
        but no breakdown guard runs on the solution, so a zero pivot
        leaves non-finite rows silently; :meth:`step_once` is the
        checked path.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        d = self._canon_d(d, self._dshape)
        if out is None:
            out = self._out
            if out is None:
                out = self._out = np.empty(self._dshape, dtype=self._dtype)
        fact = self.fact
        if fact is not None:
            fact.breakdown(None, None, check=self.request.check)
            ws = self._workspace()
            for_shards(
                self.engine, self._shards,
                lambda lo, hi: fact.solve_shard(ws, d, out, lo, hi),
            )
        else:
            self._solve_full(d, out)
        self.steps += 1
        return out

    def step_t(self, dt, out_t=None):
        """Transposed-layout hot step: ``(N, M)`` in, ``(N, M)`` out.

        The Thomas RHS sweep runs in the transposed layout internally,
        so a session whose caller already holds the right-hand side as
        ``(N, M)`` — the natural orientation of an alternating-direction
        sweep — can skip both staging transposes of :meth:`step`.  A
        session holding a
        :class:`~repro.engine.prepared.ThomasRhsFactorization` feeds
        :meth:`~repro.engine.prepared.ThomasRhsFactorization.solve_shard_t`
        directly (bitwise identical to :meth:`step` on the transposed
        arrays: only copies are elided, never arithmetic); every other
        session runs :meth:`step` between two blocked transposes.
        Unchecked, like :meth:`step`.  ``out_t`` defaults to a
        session-owned buffer reused across steps — copy it if you keep
        references.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        if len(self._dshape) != 2:
            raise ValueError(
                "step_t is defined for (M, N) sessions, not block systems"
            )
        m, n = self._dshape
        dt = self._canon_d(dt, (n, m), "dt")
        if out_t is None:
            out_t = self._out_t
            if out_t is None:
                out_t = self._out_t = np.empty((n, m), dtype=self._dtype)
        if self._transposed:
            fact = self.fact
            ws = self._workspace()
            for_shards(
                self.engine, self._shards,
                lambda lo, hi: fact.solve_shard_t(ws, dt, out_t, lo, hi),
            )
            self.steps += 1
            return out_t
        x = self.step(transpose_into(np.empty((m, n), dtype=self._dtype), dt))
        return transpose_into(out_t, x)

    # ---- lifecycle ---------------------------------------------------
    @property
    def m(self) -> int:
        return self.request.m

    @property
    def n(self) -> int:
        return self.request.n

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def describe(self) -> dict:
        """Session summary: mode, plan, factorization state, step count."""
        return {
            "mode": self.mode,
            "transient": self.transient,
            "m": self.request.m,
            "n": self.request.n,
            "dtype": np.dtype(self._dtype).name,
            "k": self.plan.k,
            "plan_cache": self.cache,
            "factorization": self.fp_state,
            "workers": self.request.workers,
            "steps": self.steps,
        }

    def close(self) -> None:
        """Return held workspaces to the engine pool; drop buffers."""
        if self.closed:
            return
        self.closed = True
        if self._ws is not None:
            self.engine.checkin_prepared(self.plan, self._ws)
            self._ws = None
        self._out = None
        self._out_t = None

    def __enter__(self) -> "BoundSolve":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
