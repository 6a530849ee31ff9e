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
from repro.core.tiled_pcr import TilingCounters
from repro.engine.executor import shard_bounds
from repro.engine.prepared import (
    coefficient_fingerprint,
    cyclic_rhs_only_sweep,
    for_shards,
    rhs_only_sweep,
    rtol_permits_hybrid_reuse,
    sweep_factorization,
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
        Plain tridiagonal served by a factorization — an explicit
        prepared handle or a fingerprint-cache entry.
    ``"cyclic"``
        Periodic tridiagonal served by a stored
        :class:`~repro.engine.prepared.CyclicRhsFactorization`.
    ``"banded"``
        Pentadiagonal / block-tridiagonal Thomas sweep.
    ``"full"``
        Plain tridiagonal running the full hybrid plan each step
        (fingerprinting off or not licensed).
    ``"full-cyclic"``
        Periodic corner-reduce + two inner solves each step.
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
        system = getattr(request, "system", None)
        self._banded = system is not None and system.kind != "tridiagonal"
        if self._banded:
            self._bind_banded(request)
        else:
            self._bind_tridiagonal(request)
        workers = request.workers
        #: row shards every step runs over (one shard: unsharded)
        self._shards = (
            shard_bounds(request.m, workers)
            if workers is not None and workers > 1
            else [(0, request.m)]
        )
        self._dtype = self.plan.dtype
        if self._banded and request.system.kind == "block":
            self._dshape = (request.m, request.n, request.system.block_size)
        else:
            self._dshape = (request.m, request.n)

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

        if request.rhs_only:
            # prepared handle: the factorization rode in on the request
            self.fact = request.factorization
            self.fp_state = "handle"
            self.mode = "cyclic" if request.periodic else "rhs"
            self.count_solves = False
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
        if request.periodic:
            self.mode = "cyclic" if fact is not None else "full-cyclic"
            self._report_plain = False
        else:
            self.mode = "rhs" if fact is not None else "full"
            self._report_plain = True
        self.count_solves = True

    def _bind_banded(self, request) -> None:
        from repro.core.blocktridiag import BlockThomasFactorization
        from repro.core.pentadiag import PentaFactorization

        kind = request.system.kind
        tag = request.system.tag
        plan = self._resolve_plan(request, system_tag=tag)

        if kind == "pentadiagonal":
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
        self._banded_served = fact is not None
        if fact is None:
            t_b = time.perf_counter()
            fact = builder()
            self.bind_stages.append(
                ("factorize", time.perf_counter() - t_b)
            )
        self.fact = fact
        self.fp_state = fp_state
        self.mode = "banded"
        self.count_solves = True
        self._report_plain = False
        self._kind = kind
        self._tag = tag

    # ---- instrumented execution --------------------------------------
    def step_once(self, d=None, out=None):
        """One fully-instrumented execution: stats + stages + trace.

        The single-call semantics of the classic ``ExecutionEngine.run``
        — every stat the one-shot path increments, every stage it
        records (bind stages included), the exact
        :class:`~repro.backends.trace.SolveTrace` schema — returned as
        a :class:`~repro.backends.request.SolveOutcome`.  ``d`` / ``out``
        default to the bound request's arrays.
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

        if self.mode == "banded":
            return self._step_once_banded(d, out, stage_times)

        if self.mode in ("rhs", "cyclic"):
            fact = self.fact
            if self.mode == "cyclic":
                x = cyclic_rhs_only_sweep(
                    engine, plan, fact, d,
                    out=out, workers=workers, check=request.check,
                    stage_times=stage_times,
                )
            else:
                x = rhs_only_sweep(
                    engine, plan, fact, d,
                    out=out, workers=workers,
                    stage_times=stage_times, check=request.check,
                )
            with engine._lock:
                if self.count_solves:
                    engine.stats.solves += 1
                engine.stats.rhs_only_solves += 1
                if workers is not None and workers > 1:
                    engine.stats.sharded_solves += 1
            kept = fact
        elif self.mode == "full":
            counters = TilingCounters()
            report = HybridReport(
                m=request.m,
                n=request.n,
                k=plan.k,
                k_source=plan.k_source,
                subsystems=request.m * plan.g,
                fused=plan.fuse,
                n_windows=plan.n_windows,
                tiling=counters,
            )
            x = engine._execute_full(
                plan, request.a, request.b, request.c, d,
                workers=workers, counters=counters, out=out,
                stage_times=stage_times, check=request.check,
            )
            engine.last_report = report
            kept = None
        else:  # full-cyclic: corner-reduce + two inner solves + correction
            from repro.core.periodic import (
                apply_cyclic_correction,
                correction_denominator,
                correction_scale,
                cyclic_reduce,
            )

            t0 = time.perf_counter()
            ap, bp, cp, u, w = cyclic_reduce(
                request.a, request.b, request.c, check=request.check
            )
            stage_times.append(("cyclic-reduce", time.perf_counter() - t0))
            y = engine._execute_full(
                plan, ap, bp, cp, d,
                workers=workers, stage_times=stage_times, check=request.check,
            )
            q = engine._execute_full(
                plan, ap, bp, cp, u,
                workers=workers, stage_times=stage_times, check=request.check,
            )
            t1 = time.perf_counter()
            scale = correction_scale(
                correction_denominator(q, w), request.n, check=request.check
            )
            x = apply_cyclic_correction(y, q, w, scale, out=out)
            stage_times.append(
                ("cyclic-correction", time.perf_counter() - t1)
            )
            kept = None

        if self._report_plain and self.mode == "rhs" and self.count_solves:
            # the fingerprint cache served a *plain* batch request: the
            # one-shot path still publishes a (zero-counter) report
            engine.last_report = HybridReport(
                m=request.m,
                n=request.n,
                k=plan.k,
                k_source=plan.k_source,
                subsystems=request.m * plan.g,
                fused=plan.fuse,
                n_windows=plan.n_windows,
                tiling=TilingCounters(),
            )

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
            rhs_only=self.mode in ("rhs", "cyclic"),
            periodic=request.periodic,
            stages=[StageTiming(n_, s) for n_, s in stage_times],
        )
        trace.decision = request.decision
        self.steps += 1
        return SolveOutcome(x=x, trace=trace, factorization=kept, plan=plan)

    def _step_once_banded(self, d, out, stage_times):
        from repro.backends.request import SolveOutcome
        from repro.backends.trace import SolveTrace, StageTiming

        engine = self.engine
        request = self.request
        plan = self.plan
        fact = self.fact
        workers = request.workers
        served = self._banded_served

        t_s = time.perf_counter()
        if out is None:
            out = np.empty_like(d)
        shards = self._shards
        for_shards(
            engine, shards, lambda i, lo, hi: fact.solve_shard(d, out, lo, hi)
        )
        sweep = "rhs-only" if served else "sweep"
        shard_note = f" [{len(shards)} shards]" if len(shards) > 1 else ""
        stage_times.append(
            (f"{sweep} {self._tag}{shard_note}", time.perf_counter() - t_s)
        )
        with engine._lock:
            engine.stats.solves += 1
            if served:
                engine.stats.rhs_only_solves += 1
            if len(shards) > 1:
                engine.stats.sharded_solves += 1

        trace = SolveTrace(
            backend=request.label or "engine",
            m=request.m,
            n=request.n,
            dtype=request.dtype,
            k=plan.k,
            k_source=plan.k_source,
            workers=workers if workers is not None else 1,
            plan_cache=self.cache,
            factorization=self.fp_state,
            rhs_only=served,
            periodic=False,
            system=self._kind,
            stages=[StageTiming(n_, s) for n_, s in stage_times],
        )
        trace.decision = request.decision
        kept = fact if self.fp_state in ("hit", "factored") else None
        self.steps += 1
        return SolveOutcome(x=out, trace=trace, factorization=kept, plan=plan)

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
        if self._ws is None:
            self._ws = self.engine.checkout_prepared(self.plan)
        return self._ws

    def _sweep(self, fact, d, out):
        """Direct RHS-only sweep through the session-held workspace."""
        if self.plan.algorithm == "lapack":
            fact.enforce(check=self.request.check)
        sweep_factorization(
            self.engine, self.plan, fact, self._workspace(), d, out,
            self._shards,
        )
        return out

    def _cyclic_state(self):
        """Reduced cyclic state, computed once per session.

        ``cyclic_reduce`` and the correction column depend only on the
        bound coefficients, so recomputing them per step would produce
        the same bits — caching is free of bitwise risk.
        """
        if self._cyc is None:
            from repro.core.periodic import (
                correction_denominator,
                correction_scale,
                cyclic_reduce,
            )

            request = self.request
            ap, bp, cp, u, w = cyclic_reduce(
                request.a, request.b, request.c, check=request.check
            )
            q = self.engine._execute_full(
                self.plan, ap, bp, cp, u,
                workers=request.workers, check=request.check,
            )
            scale = correction_scale(
                correction_denominator(q, w), request.n, check=request.check
            )
            self._cyc = (ap, bp, cp, w, q, scale)
        return self._cyc

    def step(self, d, out=None):
        """The allocation-free per-step hot loop.

        Canonical-input scan, direct factorization sweep, session-owned
        output buffer when ``out`` is omitted (reused across steps —
        copy it if you keep references).  No stats, no stages, no trace:
        instrumentation belongs to :meth:`step_once`.  Bitwise identical
        to an independent one-shot solve of the same system wherever the
        one-shot path makes that promise (every ``k = 0`` route, all
        banded routes).  Unchecked by design on the ``k = 0`` RHS-only
        route: no breakdown guard, so a zero pivot leaves non-finite
        rows silently; :meth:`step_once` is the checked path.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        d = self._canon_d(d, self._dshape)
        if out is None:
            out = self._out
            if out is None:
                out = self._out = np.empty(self._dshape, dtype=self._dtype)
        mode = self.mode
        if mode == "rhs":
            self._sweep(self.fact, d, out)
        elif mode == "banded":
            fact = self.fact
            for_shards(
                self.engine, self._shards,
                lambda i, lo, hi: fact.solve_shard(d, out, lo, hi),
            )
        elif mode == "cyclic":
            fact = self.fact
            if self.request.check:
                from repro.core.periodic import refuse_singular_correction

                refuse_singular_correction(fact.singular)
            from repro.core.periodic import apply_cyclic_correction

            y = self._sweep(fact.core, d, self._workspace().cyclic_y())
            apply_cyclic_correction(y, fact.q, fact.w, fact.scale, out=out)
        elif mode == "full":
            request = self.request
            self.engine._execute_full(
                self.plan, request.a, request.b, request.c, d,
                workers=request.workers, out=out, check=request.check,
            )
        else:  # full-cyclic
            from repro.core.periodic import apply_cyclic_correction

            ap, bp, cp, w, q, scale = self._cyclic_state()
            y = self.engine._execute_full(
                self.plan, ap, bp, cp, d,
                workers=self.request.workers, check=self.request.check,
            )
            apply_cyclic_correction(y, q, w, scale, out=out)
        self.steps += 1
        return out

    def step_t(self, dt, out_t=None):
        """Transposed-layout hot step: ``(N, M)`` in, ``(N, M)`` out.

        The Thomas RHS sweep runs in the transposed layout internally,
        so a session whose caller already holds the right-hand side as
        ``(N, M)`` — the natural orientation of an alternating-direction
        sweep — can skip both staging transposes of :meth:`step`.  On
        the ``rhs``/Thomas route this feeds
        :meth:`~repro.engine.prepared.ThomasRhsFactorization.solve_shard_t`
        directly (bitwise identical to :meth:`step` on the transposed
        arrays: only copies are elided, never arithmetic); every other
        mode runs :meth:`step` between two blocked transposes.  Unchecked,
        like :meth:`step`.  ``out_t`` defaults to a session-owned buffer
        reused across steps — copy it if you keep references.
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
        if self.mode == "rhs" and self.plan.uses_thomas:
            fact = self.fact
            ws = self._workspace()
            for_shards(
                self.engine, self._shards,
                lambda i, lo, hi: fact.solve_shard_t(ws, dt, out_t, lo, hi),
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
