"""Memory-layout transforms — the "desired memory layout" of Section I.

A GPU tridiagonal solver lives and dies by coalescing, and coalescing is
a property of *layout*.  Two layouts matter here:

* ``CONTIGUOUS`` — system ``j`` occupies rows ``[j·L, (j+1)·L)`` of a flat
  array.  Thomas threads walking their own systems then touch addresses
  ``j·L + step`` — stride ``L`` apart: every warp access is a separate
  memory transaction.
* ``INTERLEAVED`` — element ``l`` of system ``j`` sits at ``l·G + j``
  (``G`` systems interleaved).  Thomas threads touch ``l·G + j`` —
  consecutive addresses: one transaction per warp.

The paper's observation (Section III-B): a k-step PCR sweep leaves its
``2^k`` subsystems *already* in interleaved order, so the p-Thomas stage
gets the coalesced layout for free.  The helpers below convert between
the two (used by baselines that don't get it for free, by the layout
ablation benchmark, and by the host ``k = 0`` sweep's blocked copies).
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["Layout", "interleave", "deinterleave", "interleave_batch", "transpose_into"]

#: Destination columns per :func:`transpose_into` block: the block's
#: strided source reads then stay cache-resident while its writes stream.
TRANSPOSE_BLOCK = 64


class Layout(enum.Enum):
    """How a group of equal-size systems is arranged in linear memory."""

    CONTIGUOUS = "contiguous"
    INTERLEAVED = "interleaved"


def transpose_into(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """``dst[...] = src.T`` in blocks of :data:`TRANSPOSE_BLOCK` columns.

    Returns ``dst``; either array may be a strided view.  About 3x
    faster than the unblocked copy once ``src`` outgrows the cache.
    """
    for lo in range(0, src.shape[0], TRANSPOSE_BLOCK):
        dst[:, lo : lo + TRANSPOSE_BLOCK] = src[lo : lo + TRANSPOSE_BLOCK].T
    return dst


def interleave(arr: np.ndarray) -> np.ndarray:
    """Convert ``(G, L)`` contiguous systems to interleaved flat order.

    Output position ``l·G + j`` receives ``arr[j, l]``.
    """
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"expected (G, L) array, got {arr.ndim}-D")
    return np.ascontiguousarray(arr.T).reshape(-1)

def deinterleave(flat: np.ndarray, g: int) -> np.ndarray:
    """Inverse of :func:`interleave`: flat interleaved → ``(G, L)``.

    Accepts a flat length divisible by ``g``.
    """
    flat = np.asarray(flat)
    if flat.ndim != 1:
        raise ValueError(f"expected flat array, got {flat.ndim}-D")
    if flat.shape[0] % g:
        raise ValueError(f"length {flat.shape[0]} not divisible by G = {g}")
    return np.ascontiguousarray(flat.reshape(-1, g).T)


def interleave_batch(arr: np.ndarray) -> np.ndarray:
    """Interleave each batch row's systems: ``(M, G, L) → (M, G·L)``.

    Row ``m`` of the output holds its ``G`` systems interleaved, i.e.
    output ``[m, l·G + j] = arr[m, j, l]``.
    """
    arr = np.asarray(arr)
    if arr.ndim != 3:
        raise ValueError(f"expected (M, G, L) array, got {arr.ndim}-D")
    m, g, L = arr.shape
    return np.ascontiguousarray(arr.transpose(0, 2, 1)).reshape(m, g * L)
