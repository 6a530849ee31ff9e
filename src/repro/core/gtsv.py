"""The LAPACK route: a whole ``(M, N)`` batch in one ``?gtsv`` call.

The paper's tiled-PCR + p-Thomas schedule exists to expose
parallelism on a GPU.  On a host CPU the fastest way to solve ``M``
independent systems is the opposite: hand LAPACK one long system.  The
batch's ``M`` systems become the diagonal blocks of a single ``M·N``
tridiagonal matrix — the couplings between consecutive systems
(``dl[n-1::n]`` and ``du[n-1::n]`` of the flattened diagonals) are
zeroed — and one ``?gtsv`` call factors and solves all of them.

A zero coupling makes every cross-system elimination step a no-op
(multiplier ``0``, no row interchange), so the flattened call returns
exactly the bits of ``M`` separate per-system ``?gtsv`` calls, and any
contiguous block of rows (a ``workers=`` shard) solves to the same bits
as the full batch.  ``?gtsv`` pivots (partial pivoting), so
non-dominant systems solve stably too.

:class:`GttrfFactorization` is the storable split of the same
elimination: ``?gttrf`` once, ``?gttrs`` per right-hand side.  LAPACK's
``?gttrf``/``?gttrs`` replay ``?gtsv``'s operations one for one, so a
factored solve is bitwise equal to the one-call solve — the route's
factorizations reuse exactly, like the ``k = 0`` Thomas route's.

Singular systems: an exact zero pivot (LAPACK ``info > 0``) raises
:class:`~repro.core.validation.SingularSystemError` naming the system
and row under ``check=True``; under ``check=False`` it warns and writes
NaN rows for exactly the singular systems.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.validation import SingularSystemError, describe_rows

__all__ = ["GttrfFactorization", "gtsv_batch"]

_FUNCS: dict = {}


def _lapack(name: str, dtype):
    """The dtype's ``?{name}`` wrapper (memoized: lookup costs ~10 µs).

    ``scipy.linalg`` is imported on first use, so ``import repro``
    does not pay for it.
    """
    key = (name, np.dtype(dtype).char)
    func = _FUNCS.get(key)
    if func is None:
        from scipy.linalg import lapack

        func = _FUNCS[key] = lapack.get_lapack_funcs(name, dtype=np.dtype(dtype))
    return func


def _offdiagonals(a, c):
    """Flattened sub/super-diagonals with the inter-system couplings zeroed."""
    n = a.shape[1]
    dl = a.reshape(-1)[1:].copy()
    du = c.reshape(-1)[:-1].copy()
    dl[n - 1 :: n] = 0
    du[n - 1 :: n] = 0
    return dl, du


def singular_policy(pivots, n: int, *, check: bool, first_system: int = 0):
    """Raise or warn for the zero pivots at flat row indices ``pivots``.

    ``pivots`` index the flattened ``M·N`` system of a batch whose first
    row is batch system ``first_system``.  No-op when empty.
    """
    if len(pivots) == 0:
        return
    systems = np.unique(np.asarray(pivots) // n) + first_system
    if check:
        first = int(pivots[0])
        raise SingularSystemError(
            f"singular tridiagonal system: zero pivot in batch system "
            f"{first // n + first_system}, row {first % n} "
            f"(singular systems {describe_rows(systems)}) — the matrix has no "
            "unique solution (pass check=False for NaN output instead)",
            systems=systems,
            row=first % n,
        )
    warnings.warn(
        f"singular tridiagonal system(s) {describe_rows(systems)}; emitting "
        "NaN for those systems",
        RuntimeWarning,
        stacklevel=3,
    )


def gtsv_batch(a, b, c, d, *, out=None, check: bool = True, first_system: int = 0):
    """Solve every row system of an ``(M, N)`` batch with one ``?gtsv``.

    Inputs are contiguous same-dtype ``(M, N)`` padded diagonals
    (``float32`` or ``float64``); the pads ``a[:, 0]`` / ``c[:, -1]``
    are ignored.  ``out`` receives the solution.  ``first_system``
    offsets the batch-row numbers a singular-system error or warning
    names (a shard reports its rows in whole-batch numbering).
    """
    m, n = b.shape
    if out is None:
        out = np.empty((m, n), dtype=b.dtype)
    buf = out if out.flags.c_contiguous else np.empty((m, n), dtype=b.dtype)
    if np.may_share_memory(buf, d):
        # an in-place solve: keep the right-hand side for the singular
        # fallback below, which re-reads it after ?gtsv overwrote buf
        d = d.copy()
    buf[...] = d
    rhs = buf.reshape(-1, 1)
    dl, du = _offdiagonals(a, c)
    *_, x, info = _lapack("gtsv", b.dtype)(
        dl, b.reshape(-1), du, rhs,
        overwrite_dl=1, overwrite_du=1, overwrite_b=1,
    )
    if info > 0:
        # ?gtsv stops at the first zero pivot without back-substituting;
        # the factored route finishes every nonsingular system (same
        # bits) and NaNs the singular ones
        if check:
            singular_policy([info - 1], n, check=True, first_system=first_system)
        fact = GttrfFactorization.factor(a, b, c)
        fact.enforce(check=False, first_system=first_system)
        fact.solve_shard(None, d, buf, 0, m)
    elif x is not rhs:  # pragma: no cover - f2py honours overwrite_b here
        rhs[...] = x
    if buf is not out:
        out[...] = buf
    return out


class GttrfFactorization:
    """``?gttrf`` factors of an ``(M, N)`` batch's block-diagonal system.

    Stores LAPACK's ``(dl, d, du, du2, ipiv)`` for the flattened
    ``M·N`` system.  :meth:`solve_shard` runs ``?gttrs`` on any
    contiguous block of batch rows; zero pivots found at factor time
    (``zero_pivots``, flat row indices) are replaced by identity rows so
    the sweep stays finite, and their systems come out as NaN rows.
    """

    __slots__ = (
        "n", "dl", "d", "du", "du2", "ipiv", "zero_pivots", "singular",
        "nbytes", "_shard_ipiv",
    )

    def __init__(self, n, dl, d, du, du2, ipiv, zero_pivots):
        self.n = int(n)
        self.dl = dl
        self.d = d
        self.du = du
        self.du2 = du2
        self.ipiv = ipiv
        self.zero_pivots = zero_pivots
        #: batch rows whose system met a zero pivot
        self.singular = np.unique(zero_pivots // self.n)
        self.nbytes = sum(v.nbytes for v in (dl, d, du, du2, ipiv))
        self._shard_ipiv: dict = {}

    @classmethod
    def factor(cls, a, b, c) -> "GttrfFactorization":
        """``?gttrf`` over the flattened batch (couplings zeroed)."""
        m, n = b.shape
        dl, du = _offdiagonals(a, c)
        dl, d, du, du2, ipiv, _ = _lapack("gttrf", b.dtype)(
            dl, b.reshape(-1), du, overwrite_dl=1, overwrite_du=1
        )
        # U's diagonal is d: its exact zeros are every zero pivot, not
        # just the first one ``info`` reports
        zero_pivots = np.flatnonzero(d == 0)
        for s in np.unique(zero_pivots // n):
            rows = slice(s * n, (s + 1) * n)
            d[rows] = 1
            dl[s * n : s * n + n - 1] = 0
            du[s * n : s * n + n - 1] = 0
            du2[s * n : s * n + n - 2] = 0
            ipiv[rows] = np.arange(s * n + 1, (s + 1) * n + 1)
        return cls(n, dl, d, du, du2, ipiv, zero_pivots)

    def enforce(self, *, check: bool, first_system: int = 0) -> None:
        """Apply the singular-system policy (raise / warn) to this factor."""
        singular_policy(self.zero_pivots, self.n, check=check, first_system=first_system)

    def _ipiv(self, lo: int, hi: int) -> np.ndarray:
        # LAPACK pivots are absolute 1-based row numbers; a shard's
        # sub-system numbers its rows from its own first row
        if lo == 0:
            return self.ipiv[: hi * self.n]
        piv = self._shard_ipiv.get((lo, hi))
        if piv is None:
            r0 = lo * self.n
            piv = self._shard_ipiv[(lo, hi)] = self.ipiv[r0 : hi * self.n] - r0
        return piv

    def breakdown(self, ws, x, *, check: bool) -> None:
        """The breakdown hook: before a sweep (``x is None``) the
        factor-time zero pivots (:meth:`enforce`); a swept solution
        needs no further check."""
        if x is None:
            self.enforce(check=check)

    def solve_shard(self, ws, d, out, lo: int, hi: int) -> None:
        """``?gttrs`` for batch rows ``[lo, hi)`` of ``d`` into ``out``.

        The sweep runs in place on ``out``'s rows (through a scratch
        copy when they are not contiguous), so it needs no workspace
        (``ws`` is ignored); singular systems come out as NaN rows.
        """
        n = self.n
        r0, r1 = lo * n, hi * n
        x = out[lo:hi]
        buf = x if x.flags.c_contiguous else np.empty(x.shape, dtype=x.dtype)
        buf[...] = d[lo:hi]
        rhs = buf.reshape(-1, 1)
        res, _ = _lapack("gttrs", self.d.dtype)(
            self.dl[r0 : r1 - 1],
            self.d[r0:r1],
            self.du[r0 : r1 - 1],
            self.du2[r0 : r1 - 2],
            self._ipiv(lo, hi),
            rhs,
            overwrite_b=1,
        )
        if res is not rhs:  # pragma: no cover - f2py honours overwrite_b here
            rhs[...] = res
        if buf is not x:
            x[...] = buf
        for s in self.singular:
            if lo <= s < hi:
                out[s] = np.nan
