"""The reference backend: single-call :class:`HybridSolver`, no caching.

This is the bitwise baseline every other backend is held to.  It
re-plans and re-allocates on every call — exactly the seed repo's
behaviour — which makes it the right backend for cold-path comparisons
(``benchmarks/bench_engine.py``) and the wrong one for hot loops.

Constructing :class:`~repro.core.hybrid.HybridSolver` directly is now
an implementation detail of this module (plus ``core`` internals and
tests); everything else reaches it through the registry or through
:func:`reference_solver`.

Requests that pin nothing follow the host route like the engine does
(:func:`~repro.engine.plan.host_route`): where Table III picks
``k > 0`` they solve with LAPACK ``?gtsv`` — here one call *per
system*, an independent oracle for the engine's single flattened call.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import BackendBase, Capabilities
from repro.backends.request import SolveOutcome, SolveRequest
from repro.backends.trace import SolveTrace, StageTiming
from repro.core.hybrid import HybridSolver, choose_transition
from repro.core.transition import GTX480_HEURISTIC
from repro.engine.plan import host_route

__all__ = ["NumpyReferenceBackend", "gtsv_per_system", "reference_solver"]


def gtsv_per_system(a, b, c, d, *, check: bool = True) -> np.ndarray:
    """One ``?gtsv`` call per batch row: the LAPACK route's oracle.

    Same singular-system policy as the engine's flattened call
    (:func:`repro.core.gtsv.singular_policy`).
    """
    from scipy.linalg import lapack

    from repro.core.gtsv import singular_policy

    m, n = b.shape
    gtsv = lapack.get_lapack_funcs("gtsv", dtype=b.dtype)
    x = np.empty_like(d)
    pivots = []
    for j in range(m):
        *_, xj, info = gtsv(a[j, 1:], b[j], c[j, :-1], d[j][:, None])
        if info > 0:
            pivots.append(j * n + info - 1)
            x[j] = np.nan
        else:
            x[j] = xj[:, 0]
    singular_policy(pivots, n, check=check)
    return x


def reference_solver(**opts) -> HybridSolver:
    """A configured single-call reference solver (the bitwise baseline).

    Accepts the :class:`~repro.core.hybrid.HybridSolver` knobs
    (``k``, ``heuristic``, ``parallelism``, ``subtile_scale``,
    ``n_windows``, ``fuse``).  Benchmarks and comparison harnesses use
    this instead of constructing ``HybridSolver`` themselves.
    """
    return HybridSolver(**opts)


class NumpyReferenceBackend(BackendBase):
    """Registry adapter over the single-call reference solver."""

    name = "numpy"
    priority = 20

    def capabilities(self) -> Capabilities:
        caps = getattr(self, "_caps", None)
        if caps is None:
            caps = self._caps = Capabilities(
                systems=("tridiagonal", "pentadiagonal", "block"),
                description=(
                    "single-call HybridSolver reference — re-plans and "
                    "re-allocates every call; the bitwise baseline "
                    "(banded systems solve densely)"
                ),
            )
        return caps

    def _execute_banded(self, request: SolveRequest) -> SolveOutcome:
        """Dense-assembly reference for penta/block requests.

        Deliberately *not* the banded elimination: assembling the full
        matrices and calling stacked ``np.linalg.solve`` gives an
        independent oracle the structured sweeps are validated against
        (the same role the single-call hybrid plays for tridiagonal).
        """
        t0 = time.perf_counter()
        if request.system.kind == "pentadiagonal":
            from repro.core.pentadiag import penta_to_dense

            dense = penta_to_dense(
                request.e, request.a, request.b, request.c, request.f
            )
            rhs = request.d
        else:
            from repro.core.blocktridiag import block_to_dense

            dense = block_to_dense(request.a, request.b, request.c)
            rhs = request.d.reshape(request.m, -1)
        t_assemble = time.perf_counter() - t0

        t1 = time.perf_counter()
        x = np.linalg.solve(dense, rhs[..., None])[..., 0]
        x = np.ascontiguousarray(x.reshape(request.d.shape))
        dt = time.perf_counter() - t1
        if request.out is not None:
            request.out[...] = x
            x = request.out
        trace = self._set_trace(
            SolveTrace(
                backend=request.label or self.name,
                m=request.m,
                n=request.n,
                dtype=request.dtype,
                k=0,
                k_source="banded",
                plan_cache="n/a",
                system=request.system.kind,
                stages=[
                    StageTiming("dense-assemble", t_assemble),
                    StageTiming("dense-solve", dt),
                ],
            )
        )
        return SolveOutcome(x=x, trace=trace)

    def execute(self, request: SolveRequest) -> SolveOutcome:
        if request.system.kind != "tridiagonal":
            return self._execute_banded(request)
        if request.periodic:
            # no native cyclic pipeline — corner-reduce and run two
            # plain executes through the shared correction algebra
            return self._periodic_fallback(request)

        t0 = time.perf_counter()
        heuristic = (
            request.heuristic
            if request.heuristic is not None
            else GTX480_HEURISTIC
        )
        k, k_source = choose_transition(
            request.m,
            request.n,
            k=request.k,
            heuristic=heuristic,
            parallelism=request.parallelism,
        )
        lapack = k > 0 and host_route(
            request.k, request.heuristic, request.parallelism,
            request.fuse, request.n_windows, request.subtile_scale,
        )
        if lapack:
            k, k_source = 0, "host"
        else:
            solver = reference_solver(
                k=k,
                subtile_scale=request.subtile_scale,
                n_windows=request.n_windows,
                fuse=request.fuse,
            )
        t_prepare = time.perf_counter() - t0

        t1 = time.perf_counter()
        if lapack:
            x = gtsv_per_system(
                request.a, request.b, request.c, request.d,
                check=request.check,
            )
        else:
            x = solver.solve_batch(
                request.a, request.b, request.c, request.d, check=False
            )
        dt = time.perf_counter() - t1
        if request.out is not None:
            request.out[...] = x
            x = request.out
        trace = self._set_trace(
            SolveTrace(
                backend=request.label or self.name,
                m=request.m,
                n=request.n,
                dtype=request.dtype,
                k=k,
                k_source=k_source,
                fuse=request.fuse,
                n_windows=request.n_windows,
                plan_cache="n/a",
                stages=[
                    StageTiming("prepare", t_prepare),
                    StageTiming(
                        "lapack gtsv (per system)" if lapack
                        else "hybrid (single-call)",
                        dt,
                    ),
                ],
            )
        )
        return SolveOutcome(x=x, trace=trace)
