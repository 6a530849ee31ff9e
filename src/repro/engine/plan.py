"""Solve plans: the frozen decisions behind one problem shape.

The paper's method makes three decisions before any arithmetic happens:
the transition point ``k`` (Table III / the Table II cost model), the
sliding-window schedule (sub-tile size ``c·2^k``, window regions,
lead-in), and the buffer layout (per-level cache capacities, Table I).
On the GPU those are compile/launch-time constants; the seed CPU
realization recomputed all of them — and reallocated every buffer —
on *every* ``solve_batch`` call.

A :class:`SolvePlan` freezes those decisions once per ``(M, N, dtype,
k, fuse, n_windows, subtile_scale, system, algorithm)`` signature.
Plans are immutable, hashable, and cheap; the heavy state they imply
(ring buffers, modified-coefficient arrays, transpose scratch) lives in
:class:`~repro.engine.workspace.PlanWorkspace` objects the engine pools
per plan.  Executing the same plan twice is bitwise deterministic.

The ``algorithm`` field names the kernel family a plan runs:
``"thomas"`` (``k = 0``, the engine's transposed Thomas sweep),
``"hybrid"`` (``k > 0``, tiled PCR + p-Thomas) or ``"lapack"`` (one
flattened ``?gtsv`` call, :mod:`repro.core.gtsv`).  Table III was
measured on a GTX480; on a 2-CPU Xeon host its ``k > 0`` cells ran
4–30x slower than LAPACK, so a request that pins nothing — no ``k``, ``heuristic``,
``parallelism`` or hybrid schedule option — runs ``"lapack"`` wherever
the table would pick ``k > 0`` (:func:`host_route`).  Pinned requests
keep the paper's route bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import f_redundant_loads
from repro.core.hybrid import choose_transition
from repro.core.transition import GTX480_HEURISTIC, TransitionHeuristic

__all__ = ["ALGORITHMS", "SolvePlan", "build_plan", "host_route", "plan_key"]

#: kernel families a plan can run (see the module docs)
ALGORITHMS = ("thomas", "hybrid", "lapack")


def host_route(
    k=None,
    heuristic=None,
    parallelism=None,
    fuse: bool = False,
    n_windows: int = 1,
    subtile_scale: int = 1,
) -> bool:
    """Does this request leave the route to the host default?

    True when nothing pins the paper's algorithm: no ``k``, no
    ``heuristic``, no ``parallelism`` (the analytic Table II choice),
    and no tiled-PCR schedule option (``fuse``, ``n_windows``,
    ``subtile_scale``), which only the hybrid can honour.
    """
    return (
        k is None
        and heuristic is None
        and parallelism is None
        and not fuse
        and n_windows == 1
        and subtile_scale == 1
    )


@dataclass(frozen=True)
class SolvePlan:
    """Frozen execution recipe for an ``(M, N)`` batch solve.

    Attributes
    ----------
    m, n:
        Batch shape the plan is specialized to.
    dtype:
        Element dtype (plans never mix precisions).
    k:
        Frozen PCR step count — the transition decision.
    k_source:
        Where ``k`` came from: ``"fixed"``, ``"analytic"`` or
        ``"heuristic"``.
    fuse:
        Whether the p-Thomas forward reduction is fused into the sweep
        (Section III-C).
    n_windows:
        Concurrent window regions per system (Fig. 11b).
    subtile_scale:
        Table I's ``c`` — rows per thread per sliding-window round.
    system:
        System-descriptor tag (``""`` for tridiagonal, ``"penta"`` /
        ``"block<B>"`` otherwise) — keeps plan-cache and
        factorization-cache entries of different stencils from ever
        colliding on one ``(m, n, dtype, k)`` signature.
    algorithm:
        Kernel family: ``"thomas"``, ``"hybrid"`` or ``"lapack"``
        (derived from ``k`` when left empty: ``k = 0`` is Thomas,
        ``k > 0`` the hybrid).  ``"lapack"`` plans carry ``k = 0``.
    """

    m: int
    n: int
    dtype: np.dtype
    k: int
    k_source: str
    fuse: bool = False
    n_windows: int = 1
    subtile_scale: int = 1
    system: str = ""
    algorithm: str = ""

    def __post_init__(self):
        if not self.algorithm:
            object.__setattr__(
                self, "algorithm", "thomas" if self.k == 0 else "hybrid"
            )
        elif self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown plan algorithm {self.algorithm!r}; expected one "
                f"of {ALGORITHMS}"
            )

    # ---- derived schedule ------------------------------------------------
    @property
    def g(self) -> int:
        """Interleave stride / thread-block width: ``2^k``."""
        return 1 << self.k

    @property
    def subtile(self) -> int:
        """Rows the sliding window advances per round: ``c · 2^k``."""
        return self.subtile_scale * self.g

    @property
    def uses_thomas(self) -> bool:
        """``k = 0`` Thomas: the plan degenerates to pure batched Thomas."""
        return self.algorithm == "thomas"

    @property
    def exact_reuse(self) -> bool:
        """Is a stored factorization's RHS-only sweep bitwise exact?

        True for Thomas (stored denominators, same operation order) and
        LAPACK (``?gttrs`` replays ``?gtsv``); hybrid reuse is only
        allclose-grade, so it needs an explicit license.
        """
        return self.algorithm != "hybrid"

    @property
    def window_bounds(self) -> tuple:
        """Region boundaries of the ``n_windows`` sliding windows."""
        bounds = np.linspace(0, self.n, self.n_windows + 1).astype(int)
        return tuple(int(v) for v in bounds)

    @property
    def lead_in(self) -> int:
        """Rows each window lags raw input by: ``f(k) = 2^k − 1``."""
        return f_redundant_loads(self.k)

    def rounds(self) -> int:
        """Total sliding-window rounds one execution performs."""
        if self.algorithm != "hybrid":
            return 0
        total = 0
        bounds = self.window_bounds
        for r0, r1 in zip(bounds, bounds[1:]):
            if r1 > r0:
                total += -(-((r1 - r0) + self.lead_in) // self.subtile)
        return total

    def signature(self) -> tuple:
        """The hashable cache key this plan answers to."""
        return plan_key(
            self.m,
            self.n,
            self.dtype,
            self.k,
            self.fuse,
            self.n_windows,
            self.subtile_scale,
            self.system,
            self.algorithm,
        )

    def describe(self) -> dict:
        """Human-readable plan summary (used by reports and benchmarks)."""
        return {
            "m": self.m,
            "n": self.n,
            "dtype": str(self.dtype),
            "k": self.k,
            "k_source": self.k_source,
            "backend": {
                "thomas": "thomas",
                "lapack": "lapack ?gtsv",
            }.get(self.algorithm, (
                "tiled-pcr+p-thomas (fused)" if self.fuse
                else "tiled-pcr+p-thomas"
            )),
            "subsystems": self.m * self.g,
            "n_windows": self.n_windows,
            "subtile": self.subtile,
            "rounds": self.rounds(),
        }


def plan_key(
    m: int,
    n: int,
    dtype,
    k: int,
    fuse: bool,
    n_windows: int,
    subtile_scale: int,
    system: str = "",
    algorithm: str = "",
) -> tuple:
    """Canonical cache key for a plan signature.

    ``system`` is the descriptor tag and ``algorithm`` the kernel
    family (empty: derived from ``k``); both ride at the end so every
    consumer of the ``(m, n, dtype, k)`` prefix keeps working, and
    a ``"lapack"`` plan never shares an entry with the ``k = 0``
    Thomas plan of the same shape.
    """
    if not algorithm:
        algorithm = "thomas" if k == 0 else "hybrid"
    return (
        m,
        n,
        np.dtype(dtype).str,
        k,
        bool(fuse),
        n_windows,
        subtile_scale,
        system,
        algorithm,
    )


def build_plan(
    m: int,
    n: int,
    dtype,
    *,
    k: int | None = None,
    fuse: bool = False,
    n_windows: int = 1,
    subtile_scale: int = 1,
    heuristic: TransitionHeuristic = GTX480_HEURISTIC,
    parallelism: int | None = None,
    system: str = "",
    algorithm: str | None = None,
) -> SolvePlan:
    """Resolve the transition and freeze a :class:`SolvePlan`.

    Uses the identical :func:`~repro.core.hybrid.choose_transition`
    logic as :class:`~repro.core.hybrid.HybridSolver`, so a plan always
    encodes exactly the decision the reference solver would have made —
    unless ``algorithm="lapack"``, the host route the engine resolves
    for requests that pin nothing (see :func:`host_route`); such plans
    carry ``k = 0`` and ``k_source="host"``, and shard sub-plans
    inherit them.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if subtile_scale < 1:
        raise ValueError(f"subtile_scale must be >= 1, got {subtile_scale}")
    if system:
        # banded (penta/block) plans have no PCR front-end: the schedule
        # is always the Thomas-style k = 0 sweep of that stencil.
        if k not in (None, 0):
            raise ValueError(
                f"banded ({system!r}) plans are k = 0 only, got k={k}"
            )
        kk, source = 0, "banded"
    elif algorithm == "lapack":
        kk, source = 0, "host"
    else:
        kk, source = choose_transition(
            m, n, k=k, heuristic=heuristic, parallelism=parallelism
        )
    return SolvePlan(
        m=m,
        n=n,
        dtype=np.dtype(dtype),
        k=kk,
        k_source=source,
        fuse=bool(fuse),
        n_windows=n_windows,
        subtile_scale=subtile_scale,
        system=system,
        algorithm=algorithm or "",
    )
