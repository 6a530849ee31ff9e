"""Per-plan preallocated execution state.

A :class:`PlanWorkspace` owns every array one in-flight execution of a
:class:`~repro.engine.plan.SolvePlan` writes besides its output.  The
engine keeps a small pool of these per plan, so repeated solves of one
problem shape allocate nothing but their result — the CPU analogue of
the paper's fixed shared-memory budget (Table I): buffer sizes are a
function of the plan alone, decided once, reused every launch.

Two shapes of state exist (``"lapack"`` plans need neither: LAPACK
works in copies of the diagonals and in place on the output):

* ``k = 0`` plans (pure Thomas): transposed ``(N, M)`` copies of the
  four diagonals (cache-blocked :func:`~repro.core.layout.transpose_into`
  copies) plus two ``M``-vector scratch rows.  In the natural ``(M, N)``
  layout each recurrence step strides across cache lines; transposed,
  all ``2N`` passes stream contiguous rows.  The one kernel pair
  :func:`~repro.engine.executor.factor_t` / ``solve_t`` runs in place
  (``c'`` over ``c``, the pivots over ``b``, ``d'`` and ``x`` over
  ``d``), elementwise per system, so results stay bitwise identical to
  :func:`repro.core.thomas.thomas_solve_batch`.
* ``k > 0`` plans (hybrid): the sliding-window ring buffers
  (:class:`~repro.core.tiled_pcr.TiledWorkspace`), the p-Thomas
  modified-coefficient state
  (:class:`~repro.core.pthomas.PThomasWorkspace`), and — for unfused
  plans — the four reduced-system arrays the sweep emits into.
"""

from __future__ import annotations

import numpy as np

from repro.core.pthomas import PThomasWorkspace
from repro.core.tiled_pcr import TiledWorkspace

__all__ = ["PlanWorkspace", "PreparedWorkspace"]


class PlanWorkspace:
    """All scratch one execution of ``plan`` needs, allocated up front."""

    def __init__(self, plan):
        self.plan = plan
        m, n, dtype = plan.m, plan.n, plan.dtype
        self.nbytes = 0
        if plan.uses_thomas:
            # Transposed layout: rows of the Thomas recurrence become
            # contiguous (N, M) rows.
            self.ta, self.tb, self.tc, self.td = np.empty((4, n, m), dtype=dtype)
            self.t1, self.t2 = np.empty((2, m), dtype=dtype)
            self.nbytes = (4 * n + 2) * m * self.ta.itemsize
        elif plan.algorithm == "hybrid":
            self.tiled = TiledWorkspace(m, plan.k, plan.subtile, dtype)
            self.pthomas = PThomasWorkspace(m, n, plan.k, dtype)
            self.nbytes += sum(
                ch.nbytes for ring in self.tiled.rings for ch in ring.data
            )
            self.nbytes += sum(s.nbytes for s in self.tiled.stage)
            self.nbytes += (
                self.tiled.k1.nbytes
                + self.tiled.k2.nbytes
                + self.tiled.tmp.nbytes
            )
            self.nbytes += (
                self.pthomas.cp.nbytes
                + self.pthomas.dp.nbytes
                + self.pthomas.t1.nbytes
                + self.pthomas.t2.nbytes
            )
            if plan.fuse:
                self.reduced = None
            else:
                self.reduced = tuple(
                    np.empty((m, n), dtype=dtype) for _ in range(4)
                )
                self.nbytes += sum(r.nbytes for r in self.reduced)

    def fits(self, plan) -> bool:
        """True if this workspace serves exactly ``plan``'s signature."""
        return self.plan.signature() == plan.signature()


class PreparedWorkspace:
    """Scratch for one in-flight RHS-only prepared solve.

    The prepared path never touches coefficients, so this is the slim
    sibling of :class:`PlanWorkspace`, handed to every stored
    factorization's ``solve_shard(ws, d, out, lo, hi)``: for ``k = 0``
    plans one transposed RHS buffer the sweep runs in place over (the
    coefficient triple lives in the factorization); for ``"lapack"``
    plans nothing (``?gttrs`` runs in place on the output); for ``k > 0``
    plans a family of named-buffer dicts that
    :meth:`HybridFactorization.solve <repro.core.factorize.HybridFactorization.solve>`
    keys its ping-pong and regroup buffers into — one dict per shard,
    so sharded solves share one workspace without aliasing.  Cyclic
    sweeps add the intermediate ``y`` buffer (:meth:`cyclic_y`).
    """

    def __init__(self, plan):
        self.plan = plan
        m, n, dtype = plan.m, plan.n, plan.dtype
        self._cyclic_y = None
        #: seconds the last cyclic sweep's first shard spent on its
        #: rank-one correction (the ``cyclic-correction`` stage)
        self.correction_s = 0.0
        if plan.uses_thomas:
            self.td = np.empty((n, m), dtype=dtype)
            self.t1, self.t2 = np.empty((2, m), dtype=dtype)
            self._scratch = None
        else:
            self._scratch = {}  # stays empty for "lapack" plans

    def scratch_for(self, lo: int, hi: int) -> dict:
        """The named-buffer dict for shard ``[lo, hi)`` (``k > 0`` plans only)."""
        return self._scratch.setdefault((lo, hi), {})

    def cyclic_y(self) -> np.ndarray:
        """The intermediate ``A' y = d`` buffer for prepared cyclic solves.

        Allocated on first use (plain prepared solves never pay for it)
        and kept for the workspace's pooled lifetime — a prepared cyclic
        sweep allocates nothing but its output, same as the plain path.
        """
        if self._cyclic_y is None:
            self._cyclic_y = np.empty(
                (self.plan.m, self.plan.n), dtype=self.plan.dtype
            )
        return self._cyclic_y

    @property
    def nbytes(self) -> int:
        """Bytes currently held (hybrid dicts fill lazily)."""
        extra = 0 if self._cyclic_y is None else self._cyclic_y.nbytes
        if self._scratch is None:
            return extra + self.td.nbytes + 2 * self.t1.nbytes
        return extra + sum(
            arr.nbytes
            for bufs in self._scratch.values()
            for arr in bufs.values()
        )

    def fits(self, plan) -> bool:
        """True if this workspace serves exactly ``plan``'s signature."""
        return self.plan.signature() == plan.signature()
