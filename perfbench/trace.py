"""In-memory span recording around the library's public layer seams.

Spans are recorded from benchmark code only; nothing under ``src/``
changes.  Three seams are instrumented while a :class:`Tracer` is
installed:

* ``SolveRequest.build`` (the request-build step of the backends layer)
  is wrapped in place and restored on uninstall;
* a pass-through backend (:class:`TracingBackend`) registers itself
  with the process-wide registry at a priority above every stock
  backend, so ``backend="auto"`` dispatch reaches it first.  It
  resolves the request against the remaining capable backends with the
  registry's own router (the same choice an untraced ``resolve`` makes)
  and times ``resolve``, ``execute`` and ``bind``;
* sessions returned by ``bind`` are wrapped so each ``step`` /
  ``step_t`` is a span.

Each span carries the span that caused it (``parent``) and the
benchmark op it belongs to (``op``), propagated through a context
variable so concurrent asyncio callers on one event loop keep separate
parents.  Dispatch threads of the service start from an empty context,
so their spans are roots; they carry the batch rows' first
right-hand-side column (``row_keys``) so fragments can be matched to
the dispatch that served them afterwards.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.backends import (
    BackendBase,
    PerStepSession,
    SolveOutcome,
    SolveRequest,
    default_registry,
)

__all__ = ["Span", "Tracer", "TracingBackend", "self_times"]

#: (span id, op id) of the innermost open span in this context
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)


@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    phase: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def export(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "phase": self.phase,
            **{k: v for k, v in self.attrs.items() if k != "row_keys"},
        }


class Tracer:
    """Span store plus the install/uninstall of the layer wrappers.

    Spans are recorded only while :attr:`active` is true, so input
    generation and correctness checks between ops stay out of the
    trace even though the wrappers remain installed.
    """

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.phase = "measure"  #: stamped on every span recorded
        self.rhs_only_steps = 0  #: session steps served by a stored factorization
        self._ids = itertools.count(1)
        self._backend: TracingBackend | None = None
        self._build = None

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, *, op: int | None = None, **attrs):
        """Time the enclosed block as one span (a no-op when inactive)."""
        if not self.active:
            yield None
            return
        parent, parent_op = _CURRENT.get()
        sid = next(self._ids)
        token = _CURRENT.set((sid, op if op is not None else parent_op))
        record = Span(sid, name, 0.0, 0.0, parent,
                      op if op is not None else parent_op, self.phase, attrs)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(record)

    def add_child(self, parent: Span, name: str, start: float, seconds: float):
        """Record a span derived from a program-reported stage time."""
        self.spans.append(
            Span(next(self._ids), name, start, start + seconds, parent.id,
                 parent.op, parent.phase, {"derived": "SolveTrace stage"})
        )

    # -- wrappers ------------------------------------------------------
    def install(self) -> None:
        """Register the pass-through backend and wrap ``SolveRequest.build``."""
        registry = default_registry()
        top = max(b.priority for b in registry.backends())
        self._backend = TracingBackend(self, registry, priority=top + 1)
        registry.register(self._backend)
        self._build = SolveRequest.__dict__["build"]
        build = self._build.__func__
        tracer = self

        def traced_build(cls, *args, **kwargs):
            with tracer.span("backends.request_build"):
                return build(cls, *args, **kwargs)

        SolveRequest.build = classmethod(traced_build)

    def uninstall(self) -> None:
        """Undo :meth:`install` (idempotent)."""
        if self._build is not None:
            SolveRequest.build = self._build
            self._build = None
        if self._backend is not None:
            default_registry().unregister(self._backend.name)
            self._backend = None


class TracingBackend(BackendBase):
    """Pass-through backend: delegates to what ``auto`` would pick.

    Routing is unchanged because the delegate is chosen by the
    registry's own capability filter and router over every registered
    backend except this one; outputs are therefore bitwise those of an
    untraced dispatch.
    """

    name = "perfbench-trace"

    def __init__(self, tracer: Tracer, registry, priority: int):
        super().__init__()
        self.tracer = tracer
        self.registry = registry
        self.priority = priority
        self._caps = replace(
            registry.get("engine").capabilities(),
            description="benchmark tracing pass-through",
        )

    def capabilities(self):
        return self._caps

    def _delegate(self, request):
        with self.tracer.span("backends.resolve"):
            candidates = [b for b in self.registry.capable(request) if b is not self]
            return self.registry.router.select(request, candidates)

    def execute(self, request) -> SolveOutcome:
        chosen = self._delegate(request)
        keys = None
        if self.tracer.active and request.d is not None and request.d.ndim == 2:
            keys = request.d[:, 0].tolist()
        with self.tracer.span(
            "backends.execute", shape=f"{request.m}x{request.n}", row_keys=keys
        ) as sp:
            outcome = chosen.execute(request)
        if sp is not None:
            trace = outcome.trace
            sp.attrs["k"] = trace.k
            sp.attrs["factorization"] = trace.factorization
            t = sp.start
            for stage in trace.stages:
                self.tracer.add_child(sp, f"engine.stage.{stage.name}", t, stage.seconds)
                t += stage.seconds
        return outcome

    def bind(self, request):
        chosen = self._delegate(request)
        binder = getattr(chosen, "bind", None)
        with self.tracer.span("backends.bind", shape=f"{request.m}x{request.n}"):
            if binder is not None:
                session = binder(request)
            else:  # the same fallback bind_via uses
                session = PerStepSession(chosen, request)
        return TracedSession(self.tracer, session)


class TracedSession:
    """Session wrapper timing each ``step`` / ``step_t``."""

    def __init__(self, tracer: Tracer, session):
        self._tracer = tracer
        self._session = session
        self._rhs = getattr(session, "mode", None) == "rhs"

    def step(self, d, out=None):
        with self._tracer.span("engine.session.step"):
            x = self._session.step(d, out=out)
        self._tracer.rhs_only_steps += self._rhs
        return x

    def step_t(self, dt, out_t=None):
        with self._tracer.span("engine.session.step_t", shape="x".join(map(str, dt.shape))):
            x = self._session.step_t(dt, out_t=out_t)
        self._tracer.rhs_only_steps += self._rhs
        return x

    def __getattr__(self, name):
        return getattr(self._session, name)


def self_times(spans: list) -> dict:
    """``{name: [count, total_s, self_s]}``; self = duration − children."""
    covered: dict = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
    table: dict = {}
    for s in spans:
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.seconds
        row[2] += s.seconds - covered.get(s.id, 0.0)
    return table
