"""Input validation shared by every solver entry point.

Solvers accept "padded" diagonals (``a[0] == c[-1] == 0``; see
:mod:`repro.util.tridiag`).  Validation normalizes dtype, enforces shape
agreement, zeroes the out-of-matrix pads, and optionally checks
finiteness.  All checks are cheap relative to a solve and can be skipped
with ``check=False`` in inner loops.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "SingularSystemError",
    "coerce_batch_arrays",
    "describe_rows",
    "coerce_cyclic_batch_arrays",
    "check_system_arrays",
    "check_batch_arrays",
    "check_cyclic_batch_arrays",
    "coerce_penta_batch_arrays",
    "check_penta_batch_arrays",
    "coerce_block_batch_arrays",
    "check_block_batch_arrays",
    "require_power_of_two",
    "is_power_of_two",
    "sweep_breakdown",
]

_ALLOWED = (np.dtype(np.float32), np.dtype(np.float64))


class SingularSystemError(ValueError):
    """A batch system has no unique solution.

    Raised under ``check=True`` when elimination meets an exact zero
    pivot (the LAPACK route's ``?gtsv`` / ``?gttrf`` ``info > 0``), a
    non-pivoting sweep leaves a system non-finite
    (:func:`sweep_breakdown`), or a cyclic system's Sherman–Morrison
    correction ``1 + vᵀq`` vanishes.
    Under ``check=False`` the same conditions warn and write NaN rows
    for exactly the singular systems instead.

    ``systems`` holds the offending batch rows; ``row`` is the zero
    pivot's row inside the first of them, when the failure has one
    (``None`` for a singular cyclic correction).
    """

    def __init__(self, message: str, *, systems=(), row: int | None = None):
        super().__init__(message)
        self.systems = tuple(int(s) for s in systems)
        self.row = row


def describe_rows(rows) -> str:
    """``[r0, r1, ...]`` for an error message, the first eight only."""
    shown = ", ".join(str(int(r)) for r in rows[:8])
    more = "" if len(rows) <= 8 else f" (+{len(rows) - 8} more)"
    return f"[{shown}]{more}"


def sweep_breakdown(kernel: str, xt, pivots, *, check: bool, first_system: int = 0) -> None:
    """Raise or warn if the ``(N, M)`` solution ``xt`` has non-finite systems.

    One axis-0 sum screens all systems; the exact check runs only when
    it is non-finite.  Same policy as :func:`repro.core.gtsv.singular_policy`:
    ``check=True`` raises :class:`SingularSystemError` naming the first
    bad system and its first zero or non-finite pivot in the ``(N, M)``
    ``pivots`` (row ``None`` without scalar pivots, or when none is
    bad), ``check=False`` warns and leaves the rows.  ``kernel`` names
    the elimination in the message (``"Thomas elimination"``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(xt.sum(axis=0)).all():
            return
    bad = np.flatnonzero(~np.isfinite(xt).all(axis=0))
    if bad.size == 0:  # only the checksum overflowed
        return
    systems = bad + first_system
    if not check:
        warnings.warn(
            f"{kernel} broke down in system(s) {describe_rows(systems)}; "
            "their rows are left non-finite", RuntimeWarning, stacklevel=3,
        )
        return
    row = None  # no scalar pivots, or overflow without a bad pivot
    if pivots is not None:
        col = pivots[:, bad[0]]
        rows = np.flatnonzero((col == 0) | ~np.isfinite(col))
        row = int(rows[0]) if rows.size else None
    raise SingularSystemError(
        f"{kernel} broke down in batch system {systems[0]}, row {row} "
        f"(non-finite systems {describe_rows(systems)}): zero or non-finite pivot, "
        f"and {kernel} does not pivot (pass check=False for non-finite output instead)",
        systems=systems, row=row,
    )


#: ``np.result_type`` over mixed dtype tuples is surprisingly costly on
#: the small-batch hot path; the handful of dtype combinations a
#: workload actually mixes is memoized here.
_result_dtype_cache: dict = {}


def _already_canonical(arrays) -> bool:
    """Are these already contiguous same-float-dtype ``ndarray``s?

    The tiny-batch fast path: a steady-state caller (the engine's warm
    loop, the service tier's fragments) passes arrays that are already
    in canonical form, and the per-call ``asarray`` → ``result_type`` →
    ``ascontiguousarray`` chain costs more than the solve's own
    dispatch at small ``M``.  One cheap all-attribute scan skips it.
    """
    first = arrays[0]
    if type(first) is not np.ndarray:
        return False
    dtype = first.dtype
    if dtype not in _ALLOWED:
        return False
    for arr in arrays:
        if (
            type(arr) is not np.ndarray
            or arr.dtype is not dtype
            or not arr.flags.c_contiguous
        ):
            return False
    return True


def _uniform_float(arrays):
    """Coerce a sequence to one contiguous allowed float dtype."""
    if _already_canonical(arrays):
        return list(arrays)
    arrays = [np.asarray(v) for v in arrays]
    key = tuple(arr.dtype for arr in arrays)
    dtype = _result_dtype_cache.get(key)
    if dtype is None:
        dtype = np.result_type(*arrays)
        if dtype not in _ALLOWED:
            dtype = np.dtype(np.float64)
        if len(_result_dtype_cache) > 64:
            _result_dtype_cache.clear()
        _result_dtype_cache[key] = dtype
    return [np.ascontiguousarray(v, dtype=dtype) for v in arrays]


def coerce_batch_arrays(a, b, c, d):
    """Coerce batch inputs to uniform float arrays *without* validating.

    The cheap, unconditional half of :func:`check_batch_arrays`: lists
    and scalars become arrays, mixed precisions promote via
    ``np.result_type``, and anything that is not float32/float64 (e.g.
    integer lists) is promoted to float64 — otherwise a ``check=False``
    solve would silently truncate float results into integer storage.
    Shape agreement, pad zeroing and finiteness are *not* checked;
    that is :func:`check_batch_arrays`'s job.
    """
    return tuple(_uniform_float((a, b, c, d)))


def _common(arrays, ndim: int):
    arrays = _uniform_float(arrays)
    shape = arrays[0].shape
    for name, arr in zip("abcd", arrays):
        if arr.ndim != ndim:
            raise ValueError(f"{name!r} must be {ndim}-D, got {arr.ndim}-D")
        if arr.shape != shape:
            raise ValueError(f"{name!r} has shape {arr.shape}, expected {shape}")
    if any(s == 0 for s in shape):
        raise ValueError("empty system")
    for name, arr in zip("abcd", arrays):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name!r} contains non-finite values")
    return arrays


def check_system_arrays(a, b, c, d):
    """Validate one system's diagonals; returns normalized copies-if-needed."""
    a, b, c, d = _common((a, b, c, d), ndim=1)
    if a[0] != 0.0:
        a = a.copy()
        a[0] = 0.0
    if c[-1] != 0.0:
        c = c.copy()
        c[-1] = 0.0
    if np.any(b == 0.0):
        raise ValueError("zero on the main diagonal (pivot-free solvers need b != 0)")
    return a, b, c, d


def check_batch_arrays(a, b, c, d):
    """Validate an ``(M, N)`` batch's diagonals."""
    a, b, c, d = _common((a, b, c, d), ndim=2)
    if np.any(a[:, 0] != 0.0):
        a = a.copy()
        a[:, 0] = 0.0
    if np.any(c[:, -1] != 0.0):
        c = c.copy()
        c[:, -1] = 0.0
    if np.any(b == 0.0):
        raise ValueError("zero on the main diagonal (pivot-free solvers need b != 0)")
    return a, b, c, d


def coerce_cyclic_batch_arrays(a, b, c, d):
    """Coerce + shape-validate a *cyclic* ``(M, N)`` batch.

    Cyclic (periodic) systems use the corner entries ``a[:, 0]`` and
    ``c[:, -1]`` as real matrix couplings, so unlike
    :func:`check_batch_arrays` the pads are **never zeroed**.  Shape
    agreement is enforced unconditionally — a mismatched diagonal in a
    Sherman–Morrison solve would otherwise surface as an opaque
    broadcasting error two layers down.  1-D inputs are promoted to a
    single-system batch.
    """
    arrays = (a, b, c, d)
    if _already_canonical(arrays) and all(arr.ndim == 2 for arr in arrays):
        arrays = list(arrays)
    else:
        arrays = _uniform_float(
            [np.atleast_2d(np.asarray(v)) for v in arrays]
        )
    shape = arrays[1].shape
    for name, arr in zip("abcd", arrays):
        if arr.ndim != 2:
            raise ValueError(
                f"cyclic diagonals must all be (M, N) batches: "
                f"{name!r} is {arr.ndim}-D"
            )
        if arr.shape != shape:
            raise ValueError(
                f"cyclic diagonals must all share one (M, N) shape: "
                f"{name!r} has shape {arr.shape}, expected {shape}"
            )
    if any(s == 0 for s in shape):
        raise ValueError("empty system")
    return tuple(arrays)


def check_cyclic_batch_arrays(a, b, c, d):
    """Validate a cyclic ``(M, N)`` batch (corners kept, finiteness on)."""
    arrays = coerce_cyclic_batch_arrays(a, b, c, d)
    for name, arr in zip("abcd", arrays):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name!r} contains non-finite values")
    return arrays


def coerce_penta_batch_arrays(e, a, b, c, f, d):
    """Coerce + shape-validate a pentadiagonal ``(M, N)`` batch.

    Diagonal order follows offset: ``e`` (second sub-diagonal, offset
    −2), ``a`` (−1), ``b`` (main), ``c`` (+1), ``f`` (+2).  All six
    arrays share one ``(M, N)`` shape; the out-of-matrix pads are
    ``e[:, :2]``, ``a[:, 0]``, ``c[:, -1]`` and ``f[:, -2:]``.

    Canonical inputs (contiguous, one allowed float dtype, agreeing
    2-D shapes) early-exit before any list building or per-name scan —
    the same steady-state fast path the plain and cyclic coercers run
    (see :func:`_already_canonical`).
    """
    arrays = (e, a, b, c, f, d)
    if _already_canonical(arrays):
        shape = b.shape
        if (
            len(shape) == 2
            and e.shape == shape
            and a.shape == shape
            and c.shape == shape
            and f.shape == shape
            and d.shape == shape
            and 0 not in shape
        ):
            return arrays
    arrays = _uniform_float(arrays)
    shape = arrays[2].shape
    for name, arr in zip("eabcfd", arrays):
        if arr.ndim != 2:
            raise ValueError(f"{name!r} must be 2-D (M, N), got {arr.ndim}-D")
        if arr.shape != shape:
            raise ValueError(f"{name!r} has shape {arr.shape}, expected {shape}")
    if any(s == 0 for s in shape):
        raise ValueError("empty system")
    return tuple(arrays)


def check_penta_batch_arrays(e, a, b, c, f, d):
    """Validate a pentadiagonal batch: pads zeroed, finiteness, pivots."""
    e, a, b, c, f, d = coerce_penta_batch_arrays(e, a, b, c, f, d)
    for name, arr in zip("eabcfd", (e, a, b, c, f, d)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name!r} contains non-finite values")
    n = b.shape[1]
    if np.any(e[:, : min(2, n)] != 0.0):
        e = e.copy()
        e[:, : min(2, n)] = 0.0
    if np.any(a[:, 0] != 0.0):
        a = a.copy()
        a[:, 0] = 0.0
    if np.any(c[:, -1] != 0.0):
        c = c.copy()
        c[:, -1] = 0.0
    if np.any(f[:, max(0, n - 2) :] != 0.0):
        f = f.copy()
        f[:, max(0, n - 2) :] = 0.0
    if np.any(b == 0.0):
        raise ValueError("zero on the main diagonal (pivot-free solvers need b != 0)")
    return e, a, b, c, f, d


def coerce_block_batch_arrays(A, B, C, d):
    """Coerce + shape-validate a block-tridiagonal batch.

    ``A``, ``B``, ``C`` are ``(M, N, B, B)`` stacks of sub-, main- and
    super-diagonal blocks; ``d`` is the ``(M, N, B)`` right-hand side.

    Canonical inputs (contiguous, one allowed float dtype, agreeing
    block shapes) early-exit before any coercion work — the
    steady-state fast path for per-step block solves.
    """
    if _already_canonical((A, B, C, d)) and B.ndim == 4:
        m, n, bs, bs2 = B.shape
        if (
            bs == bs2
            and A.shape == B.shape
            and C.shape == B.shape
            and d.shape == (m, n, bs)
            and 0 not in (m, n, bs)
        ):
            return A, B, C, d
    A, B, C, d = _uniform_float((A, B, C, d))
    if B.ndim != 4:
        raise ValueError(f"block diagonals must be (M, N, B, B), got {B.ndim}-D")
    m, n, bs, bs2 = B.shape
    if bs != bs2:
        raise ValueError(f"blocks must be square, got {bs}x{bs2}")
    for name, arr in zip("ABC", (A, B, C)):
        if arr.shape != B.shape:
            raise ValueError(
                f"{name!r} has shape {arr.shape}, expected {B.shape}"
            )
    if d.shape != (m, n, bs):
        raise ValueError(f"d has shape {d.shape}, expected {(m, n, bs)}")
    if 0 in (m, n, bs):
        raise ValueError("empty system")
    return A, B, C, d


def check_block_batch_arrays(A, B, C, d):
    """Validate a block-tridiagonal batch: pads zeroed, finiteness."""
    A, B, C, d = coerce_block_batch_arrays(A, B, C, d)
    for name, arr in zip(("A", "B", "C", "d"), (A, B, C, d)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name!r} contains non-finite values")
    if np.any(A[:, 0] != 0.0):
        A = A.copy()
        A[:, 0] = 0.0
    if np.any(C[:, -1] != 0.0):
        C = C.copy()
        C[:, -1] = 0.0
    return A, B, C, d


def is_power_of_two(x: int) -> bool:
    """True iff ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


def require_power_of_two(x: int, what: str) -> int:
    """Raise ``ValueError`` unless ``x`` is a positive power of two."""
    if not is_power_of_two(x):
        raise ValueError(f"{what} must be a positive power of two, got {x}")
    return x
