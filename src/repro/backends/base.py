"""The :class:`Backend` protocol and the vocabulary it speaks.

A *backend* is one way of executing a tridiagonal batch solve.  The
repo grew four of them organically — the single-call reference solver,
the plan-caching engine, the simulated-GPU solver, and the thread-
sharded executor — and for a while each solve flavour (plain,
prepared, periodic) had its own protocol method.  The protocol is now
two methods around one request shape:

``capabilities()``
    What the backend can negotiate: dtypes, periodic systems, layouts,
    worker counts, prepared execution, whether its timing is simulated.
``execute(request)``
    Run one :class:`~repro.backends.request.SolveRequest` — plain,
    prepared (``rhs_only``), or cyclic (``periodic``) — and return a
    :class:`~repro.backends.request.SolveOutcome` carrying the
    solution and its :class:`~repro.backends.trace.SolveTrace`.

``instrument()`` (supplied by :class:`BackendBase`) still exposes the
most recent trace per thread for callers that hold a backend directly.

The registry (:mod:`repro.backends.registry`) negotiates capabilities
against a request and routes; adding a fifth backend (numba, cupy,
multi-device…) means implementing this protocol and registering it —
no new dispatch code anywhere else.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.backends.request import SolveOutcome, SolveRequest
from repro.backends.trace import SolveTrace, StageTiming, record_trace

__all__ = [
    "Backend",
    "BackendBase",
    "Capabilities",
    "PerStepSession",
    "SolveOutcome",
    "SolveRequest",
]

#: dtype names every NumPy-backed solver in this repo accepts.
FLOAT_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class Capabilities:
    """What one backend supports — the registry negotiates against this.

    Attributes
    ----------
    dtypes:
        Canonical dtype names (``"float64"``…) the backend accepts.
    periodic:
        Whether the backend may serve cyclic (Sherman–Morrison)
        requests.
    layouts:
        Accepted input layouts.  All current backends take the padded
        contiguous ``(M, N)`` convention; adapters normalize first.
    max_workers:
        Largest useful ``workers=`` value (1 = no sharding).
    max_ranks:
        Largest useful ``ranks=`` value — the N-axis partition count of
        :mod:`repro.distributed.partition` (1 = cannot partition;
        requests with ``ranks > 1`` negotiate only against multi-rank
        backends).
    simulated:
        True when the backend's timing report is a device-model
        prediction rather than a measurement.
    prepared:
        Whether the backend serves prepared (fingerprinted /
        factorization-cached, RHS-only) solves.  Requests with
        ``fingerprint=True`` or ``rhs_only=True`` negotiate only
        against prepared-capable backends.
    systems:
        System kinds the backend can execute — entries of
        :data:`~repro.backends.request.SYSTEM_KINDS`.  Defaults to
        tridiagonal only, so backends ignorant of the descriptor axis
        are automatically rejected for penta/block requests instead of
        mis-executing them.
    description:
        One-line summary for ``repro backends`` listings.
    """

    dtypes: tuple = FLOAT_DTYPES
    periodic: bool = True
    layouts: tuple = ("contiguous",)
    max_workers: int = 1
    max_ranks: int = 1
    simulated: bool = False
    prepared: bool = False
    systems: tuple = ("tridiagonal",)
    description: str = ""


@runtime_checkable
class Backend(Protocol):
    """The one dispatch seam every execution strategy stands behind."""

    name: str
    priority: int

    def capabilities(self) -> Capabilities:
        """Static description of what this backend can negotiate."""
        ...

    def execute(self, request: SolveRequest) -> SolveOutcome:
        """Run one request (plain / prepared / periodic) end to end."""
        ...


class PerStepSession:
    """Generic bound-solve session: full dispatch on every step.

    The fallback ``bind()`` result for backends with no native session
    support (numpy reference, gpusim): the request is frozen once, and
    each :meth:`step` re-dispatches it through the backend's
    ``execute`` with a fresh right-hand side.  No per-step work is
    saved — the value is *API parity*: callers hold one session type
    (:class:`~repro.engine.session.BoundSolve` or this) and write the
    same time-stepping loop against either.
    """

    mode = "dispatch"

    def __init__(self, backend, request: SolveRequest):
        self.backend = backend
        self.request = request
        self.steps = 0
        self.closed = False

    def step_once(self, d=None, out=None) -> SolveOutcome:
        """One full instrumented dispatch (stats, trace, outcome)."""
        if self.closed:
            raise RuntimeError("session is closed")
        request = self.request
        if d is not None or out is not None:
            request = request.replace(
                d=d if d is not None else request.d,
                out=out if out is not None else request.out,
            )
        outcome = self.backend.execute(request)
        if outcome.trace is not None and outcome.trace.decision is None:
            # bind-time provenance rides on every step's trace
            outcome.trace.decision = request.decision
        self.steps += 1
        return outcome

    def step(self, d, out=None):
        """Solve one right-hand side; returns the solution array."""
        return self.step_once(d, out=out).x

    def step_t(self, dt, out_t=None):
        """Transposed-layout step: ``(N, M)`` in, ``(N, M)`` out.

        API parity with ``BoundSolve.step_t`` — here it is plain
        transposes around :meth:`step` (this session saves no per-step
        work anyway).
        """
        x = self.step(np.ascontiguousarray(dt.T))
        if out_t is None:
            return np.ascontiguousarray(x.T)
        out_t[:] = x.T
        return out_t

    def describe(self) -> dict:
        """Session summary (mirrors ``BoundSolve.describe``)."""
        request = self.request
        return {
            "mode": self.mode,
            "backend": getattr(self.backend, "name", "?"),
            "m": request.m,
            "n": request.n,
            "dtype": request.dtype,
            "workers": request.workers,
            "steps": self.steps,
        }

    def close(self) -> None:
        """Mark the session closed (nothing is held to release)."""
        self.closed = True

    def __enter__(self) -> "PerStepSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BackendBase:
    """Shared plumbing for concrete backends.

    Subclasses implement :meth:`capabilities` and :meth:`execute`, and
    store their trace with :meth:`_set_trace`; this base supplies
    thread-local trace storage, the :meth:`instrument` accessor, the
    generic cyclic fallback (:meth:`_periodic_fallback`) for backends
    with no native Sherman–Morrison pipeline, the generic per-step
    :meth:`bind` (engine-family backends override it with native
    :class:`~repro.engine.session.BoundSolve` sessions), and the
    :meth:`solve_batch` convenience wrapper (validate → build request →
    execute → record trace) used by standalone callers such as
    benchmarks.

    ``bind`` is deliberately **not** part of the
    :class:`Backend` protocol — the protocol is runtime-checkable and
    third-party backends implementing just ``capabilities``/``execute``
    must keep passing ``isinstance`` checks.  Callers probe for it
    (``getattr(backend, "bind", None)``) and fall back to
    :class:`PerStepSession`.
    """

    name = "base"
    priority = 0

    def __init__(self):
        self._traces = threading.local()

    # -- instrumentation ----------------------------------------------
    def _set_trace(self, trace: SolveTrace) -> SolveTrace:
        self._traces.trace = trace
        return trace

    def instrument(self) -> SolveTrace:
        trace = getattr(self._traces, "trace", None)
        if trace is None:
            raise RuntimeError(
                f"backend {self.name!r} has not executed on this thread yet"
            )
        return trace

    # -- cyclic (Sherman–Morrison) fallback ----------------------------
    def _periodic_fallback(self, request: SolveRequest) -> SolveOutcome:
        """Generic cyclic solve: corner-reduce + two plain ``execute``\\ s.

        Any backend that can solve plain batches can serve periodic
        requests through this fallback — the correction algebra is the
        shared implementation in :mod:`repro.core.periodic`, so results
        stay elementwise identical to every other path.  Backends with
        a cheaper route (the engine family's prepared cyclic sweep)
        never call it.
        """
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
        t_reduce = time.perf_counter() - t0

        inner = request.replace(
            a=ap, b=bp, c=cp, periodic=False, out=None, fingerprint=False
        )
        y_outcome = self.execute(inner)
        y = y_outcome.x
        q_outcome = self.execute(inner.replace(d=u))
        q = q_outcome.x

        t1 = time.perf_counter()
        scale = correction_scale(
            correction_denominator(q, w), request.n, check=request.check
        )
        x = apply_cyclic_correction(y, q, w, scale, out=request.out)
        t_correct = time.perf_counter() - t1

        # the q-solve's trace carries the plan detail; promote it to
        # describe the whole cyclic solve, keeping *both* inner solves'
        # stage timings (prefixed, so stage() lookups stay unambiguous)
        trace = q_outcome.trace
        trace.periodic = True
        trace.stages = [
            StageTiming("cyclic-reduce", t_reduce),
            *(
                StageTiming(f"cyclic-y:{s.name}", s.seconds, s.predicted_us)
                for s in y_outcome.trace.stages
            ),
            *(
                StageTiming(f"cyclic-q:{s.name}", s.seconds, s.predicted_us)
                for s in trace.stages
            ),
            StageTiming("cyclic-correction", t_correct),
        ]
        self._set_trace(trace)
        return SolveOutcome(x=x, trace=trace, plan=q_outcome.plan)

    # -- bind/execute split --------------------------------------------
    def bind(self, request: SolveRequest) -> PerStepSession:
        """Bind ``request`` into a reusable per-step session.

        The generic fallback re-dispatches the full ``execute`` every
        step; backends with real bind-time savings (plan resolution,
        factorization fetch, workspace binding) override this to return
        a native session.
        """
        return PerStepSession(self, request)

    # -- convenience entry point --------------------------------------
    def solve_batch(self, a, b, c, d, *, check: bool = True, out=None, **opts):
        """One-call solve through this backend (bypasses the router)."""
        request = SolveRequest.build(
            a, b, c, d, check=check, out=out, **opts
        )
        outcome = self.execute(request)
        record_trace(outcome.trace)
        return outcome.x
