"""N-partition math: one tridiagonal system split across ``P`` slabs.

The spine is Wang's partition method as used by
DistD2 (Akkurt et al., arXiv 2411.13532): split one length-``N``
tridiagonal system into ``P`` contiguous slabs, run a **modified
Thomas** elimination inside each slab (two sweeps), and what remains is
a ``2P``-row *reduced interface system* coupling only the first and
last unknown of every slab.  Solve that small system once, scatter the
boundary values back, and every interior unknown follows from one
vectorized substitution.

All slab kernels here work on **transposed** ``(L, M)`` arrays — row
``i`` holds position ``i`` of all ``M`` systems — so each recurrence
step is one contiguous M-wide vector operation, exactly like the
engine's interleaved ``k = 0`` Thomas layout.

The functions in this module are the *single* implementation of the
math, and :func:`partitioned_solve` is the one pipeline over them:
:func:`partitioned_solve_reference` and the ``gpusim`` backend's
``ranks=`` route (which also prices each stage on the device model)
both run it, so the two are bitwise identical by construction.

Derivation (per slab, rows ``0..L-1``; ``x[-1]``/``x[L]`` are the
neighbouring slabs' boundary unknowns, carried by the padded ``a[0]``
and ``c[L-1]`` coefficients):

* **Forward sweep** eliminates the sub-diagonal while tracking the
  coupling back to the slab's own first unknown ``x0``; row ``i``
  becomes ``x_i + ar_i x0 + cr_i x_{i+1} = dr_i``.
* **Backward sweep** substitutes upward so interior rows couple only
  ``(x0, xl)`` where ``xl = x_{L-1}``:
  ``x_i + ar_i x0 + cr_i xl = dr_i``.
* Two rows survive with outside couplings — row ``L-1`` (couples
  ``x0`` and the next slab's first unknown) and row ``0`` (couples the
  previous slab's last unknown and ``xl``).  In the interleaved
  ordering ``(x0^0, xl^0, x0^1, xl^1, ...)`` those ``2P`` equations
  form a scalar **tridiagonal** system with unit diagonal — solved via
  :class:`~repro.core.blocktridiag.BlockThomasFactorization`'s
  ``B = 1`` fast path.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = [
    "MIN_SLAB_ROWS",
    "slab_bounds",
    "effective_ranks",
    "eliminate_slab",
    "backsub_slab",
    "assemble_reduced",
    "solve_reduced",
    "partitioned_solve",
    "partitioned_solve_reference",
]

#: A slab must contain at least its two boundary rows.
MIN_SLAB_ROWS = 2


def effective_ranks(n: int, ranks: int) -> int:
    """Clamp a requested rank count to what ``n`` rows can feed."""
    if ranks < 1:
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    return max(1, min(int(ranks), n // MIN_SLAB_ROWS))


def slab_bounds(n: int, ranks: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``[lo, hi)`` slabs, each >= 2 rows."""
    p = effective_ranks(n, ranks)
    base, extra = divmod(n, p)
    bounds = []
    lo = 0
    for r in range(p):
        hi = lo + base + (1 if r < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def eliminate_slab(a, b, c, d):
    """Modified-Thomas elimination of one ``(L, M)`` slab.

    Returns ``(rep, reduced)``:

    * ``rep`` — a ``(3, L, M)`` array whose rows ``1..L-2`` hold the
      interior representation ``x_i = dr_i - ar_i*x0 - cr_i*xl``
      (``rep[0] = ar``, ``rep[1] = cr``, ``rep[2] = dr``).  Rows ``0``
      and ``L-1`` are scratch.  This stays local to the slab between
      the eliminate and backsub phases.
    * ``reduced`` — a ``(6, M)`` array with the slab's two normalized
      boundary equations, the only data the interface system reads:
      ``[sub0, sup0, rhs0]`` for ``x0`` (``sub0`` couples the previous
      slab's last unknown, ``sup0`` couples ``xl``) and
      ``[subl, supl, rhsl]`` for ``xl`` (``subl`` couples ``x0``,
      ``supl`` couples the next slab's first unknown).
    """
    L, M = b.shape
    if L < MIN_SLAB_ROWS:
        raise ValueError(f"slab needs >= {MIN_SLAB_ROWS} rows, got {L}")
    rep = np.empty((3, L, M), dtype=b.dtype)
    ar, cr, dr = rep[0], rep[1], rep[2]

    # forward sweep: eliminate the sub-diagonal; row i reads
    #   x_i + ar[i]*x0 + cr[i]*x_{i+1} = dr[i]
    ar[1] = a[1] / b[1]
    cr[1] = c[1] / b[1]
    dr[1] = d[1] / b[1]
    for i in range(2, L):
        r = b[i] - a[i] * cr[i - 1]
        ar[i] = -(a[i] * ar[i - 1]) / r
        cr[i] = c[i] / r
        dr[i] = (d[i] - a[i] * dr[i - 1]) / r

    # row L-1 is now the slab's second boundary equation:
    #   x_{L-1} + ar[L-1]*x0 + cr[L-1]*x_L = dr[L-1]
    subl = ar[L - 1].copy()
    supl = cr[L - 1].copy()
    rhsl = dr[L - 1].copy()

    # backward sweep: interior rows come to couple (x0, xl) only.
    # Row L-2 is already in that form; order matters below (cr last,
    # its old value feeds all three updates).
    for i in range(L - 3, 0, -1):
        ar[i] = ar[i] - cr[i] * ar[i + 1]
        dr[i] = dr[i] - cr[i] * dr[i + 1]
        cr[i] = -(cr[i] * cr[i + 1])

    # row 0: a0*x_{-1} + b0*x0 + c0*x1 = d0; substituting row 1's
    # representation yields the first boundary equation.
    if L == 2:
        # x1 *is* xl: row 0 couples (x_{-1}, x0, xl) directly.
        den = b[0]
        sub0 = a[0] / den
        sup0 = c[0] / den
        rhs0 = d[0] / den
    else:
        den = b[0] - c[0] * ar[1]
        sub0 = a[0] / den
        sup0 = -(c[0] * cr[1]) / den
        rhs0 = (d[0] - c[0] * dr[1]) / den

    reduced = np.empty((6, M), dtype=b.dtype)
    reduced[0] = sub0
    reduced[1] = sup0
    reduced[2] = rhs0
    reduced[3] = subl
    reduced[4] = supl
    reduced[5] = rhsl
    return rep, reduced


def backsub_slab(rep, x_first, x_last, out) -> None:
    """Fill one slab's ``(L, M)`` solution from its boundary values.

    ``x_first``/``x_last`` are ``(M,)`` vectors from the reduced solve;
    every interior row follows in one vectorized substitution.
    """
    L = out.shape[0]
    ar, cr, dr = rep[0], rep[1], rep[2]
    out[0] = x_first
    out[L - 1] = x_last
    if L > 2:
        out[1:L - 1] = (
            dr[1:L - 1] - ar[1:L - 1] * x_first - cr[1:L - 1] * x_last
        )


def assemble_reduced(reduced_rows):
    """Stack per-slab ``(6, M)`` boundary equations into the ``2P``-row
    interface system ``(ra, rb, rc, rd)``, each ``(M, 2P)``.

    Ordering interleaves ``(x0^p, xl^p)`` so the system is scalar
    tridiagonal: row ``2p`` couples the previous slab's last unknown
    (column ``2p-1``) and ``xl^p`` (column ``2p+1``); row ``2p+1``
    couples ``x0^p`` (column ``2p``) and the next slab's first unknown
    (column ``2p+2``).  The padded corners are exactly zero because the
    global ``a[:, 0]`` / ``c[:, -1]`` are.
    """
    p = len(reduced_rows)
    m = reduced_rows[0].shape[1]
    dtype = reduced_rows[0].dtype
    ra = np.empty((m, 2 * p), dtype=dtype)
    rb = np.ones((m, 2 * p), dtype=dtype)
    rc = np.empty((m, 2 * p), dtype=dtype)
    rd = np.empty((m, 2 * p), dtype=dtype)
    for i, rows in enumerate(reduced_rows):
        ra[:, 2 * i] = rows[0]
        rc[:, 2 * i] = rows[1]
        rd[:, 2 * i] = rows[2]
        ra[:, 2 * i + 1] = rows[3]
        rc[:, 2 * i + 1] = rows[4]
        rd[:, 2 * i + 1] = rows[5]
    ra[:, 0] = 0.0
    rc[:, -1] = 0.0
    return ra, rb, rc, rd


def solve_reduced(ra, rb, rc, rd):
    """Solve the ``(M, 2P)`` interface system.

    Runs :class:`~repro.core.blocktridiag.BlockThomasFactorization`'s
    ``B = 1`` scalar fast path (the same op sequence as
    ``thomas_solve_batch``) and returns the boundary values ``(M, 2P)``.
    """
    from repro.core.blocktridiag import BlockThomasFactorization

    fact = BlockThomasFactorization.factor(
        ra[..., None, None], rb[..., None, None], rc[..., None, None]
    )
    return fact.solve(rd[..., None])[..., 0]


def partitioned_solve(a, b, c, d, bounds, *, out=None, stage_times=None):
    """The partition pipeline over coerced ``(M, N)`` diagonals.

    Transpose into ``(N, M)``, eliminate every ``[lo, hi)`` slab of
    ``bounds``, solve the reduced interface system, back-substitute,
    and transpose the solution into ``out`` (a fresh array when
    ``None``).  ``stage_times``, if given, receives ``(stage name,
    seconds)`` pairs for ``partition``, ``local-eliminate [P ranks]``,
    ``reduced-solve``, ``backsub [P ranks]`` and ``comms`` — the names
    :func:`~repro.kernels.comm_kernel.distributed_plan` prices.
    """
    ranks = len(bounds)
    clock = time.perf_counter
    t0 = clock()
    at, bt, ct, dt = (np.ascontiguousarray(v.T) for v in (a, b, c, d))
    t1 = clock()

    reps = []
    reduced_rows = []
    for lo, hi in bounds:
        rep, reduced = eliminate_slab(
            at[lo:hi], bt[lo:hi], ct[lo:hi], dt[lo:hi]
        )
        reps.append(rep)
        reduced_rows.append(reduced)
    t2 = clock()

    xb = solve_reduced(*assemble_reduced(reduced_rows))
    t3 = clock()

    xt = np.empty_like(bt)
    for i, (lo, hi) in enumerate(bounds):
        backsub_slab(
            reps[i], xb[:, 2 * i], xb[:, 2 * i + 1], xt[lo:hi]
        )
    t4 = clock()

    if out is None:
        out = np.ascontiguousarray(xt.T)
    else:
        np.copyto(out, xt.T)
    if stage_times is not None:
        stage_times += [
            ("partition", t1 - t0),
            (f"local-eliminate [{ranks} ranks]", t2 - t1),
            ("reduced-solve", t3 - t2),
            (f"backsub [{ranks} ranks]", t4 - t3),
            ("comms", clock() - t4),
        ]
    return out


def partitioned_solve_reference(a, b, c, d, ranks, *, bounds=None, out=None):
    """In-process reference for every ``ranks=`` solve.

    :func:`partitioned_solve` over the near-equal :func:`slab_bounds`
    split — the pipeline the ``gpusim`` backend's ``ranks=`` route
    runs, so that route is bitwise identical to this reference.
    ``bounds`` overrides the default partition (each slab must keep
    >= 2 rows), which the cross-rank determinism property test
    exercises.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    d = np.asarray(d)
    n = b.shape[1]
    if bounds is None:
        bounds = slab_bounds(n, ranks)
    else:
        bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        if bounds[0][0] != 0 or bounds[-1][1] != n:
            raise ValueError(f"bounds must cover [0, {n})")
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            if hi != lo2:
                raise ValueError("bounds must be contiguous")
        if any(hi - lo < MIN_SLAB_ROWS for lo, hi in bounds):
            raise ValueError(f"every slab needs >= {MIN_SLAB_ROWS} rows")
    return partitioned_solve(a, b, c, d, bounds, out=out)
