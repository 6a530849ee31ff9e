"""Synthetic tridiagonal batch generators.

All generators return ``(a, b, c, d)`` as ``(M, N)`` arrays in the
padded convention (``a[:, 0] == c[:, -1] == 0``) and take a seed so
every benchmark row is reproducible.  The default is strictly
diagonally dominant — the regime in which pivot-free Thomas/CR/PCR are
provably stable and in which the paper (like every GPU-tridiagonal
paper of its era) evaluates.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "huge_system_batch",
    "random_batch",
    "random_block_batch",
    "random_penta_batch",
    "toeplitz_batch",
    "poisson1d_batch",
    "graded_batch",
    "near_singular_batch",
]


def random_batch(
    m: int,
    n: int,
    dtype=np.float64,
    seed: int = 0,
    dominance: float = 2.0,
):
    """Random strictly diagonally dominant batch.

    Off-diagonals are standard normal; the main diagonal is
    ``dominance + |a| + |c|`` (row margin exactly ``dominance``).
    """
    if dominance <= 0:
        raise ValueError(f"dominance must be > 0, got {dominance}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b = (dominance + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c, d


def huge_system_batch(
    n: int,
    m: int = 4,
    dtype=np.float64,
    seed: int = 0,
    dominance: float = 2.0,
):
    """A few very long systems — the ``ranks=`` partition route's home shape.

    The evaluation sweeps stress large ``M`` with moderate ``N``; a
    domain-decomposed solver stresses the opposite corner (one huge
    grid line per system, split across ranks).  Memory-bound by
    construction: the coefficient arrays alone dwarf every cache
    level once ``N`` reaches the multi-million-row regime the
    N-partition pipeline targets.

    ``n`` leads the signature (it is the axis under study); the batch
    width ``m`` defaults to a token handful of systems.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return random_batch(m, n, dtype=dtype, seed=seed, dominance=dominance)


def random_penta_batch(
    m: int,
    n: int,
    dtype=np.float64,
    seed: int = 0,
    dominance: float = 2.0,
):
    """Random strictly diagonally dominant pentadiagonal batch.

    Returns ``(e, a, b, c, f, d)`` in offset order −2…+2, padded
    (``e[:, :2]``, ``a[:, 0]``, ``c[:, -1]``, ``f[:, -2:]`` zero); the
    main diagonal carries a row margin of exactly ``dominance``.
    """
    if dominance <= 0:
        raise ValueError(f"dominance must be > 0, got {dominance}")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((m, n)).astype(dtype)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    f = rng.standard_normal((m, n)).astype(dtype)
    e[:, : min(2, n)] = 0.0
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    f[:, max(0, n - 2):] = 0.0
    b = (
        dominance + np.abs(e) + np.abs(a) + np.abs(c) + np.abs(f)
    ).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    return e, a, b, c, f, d


def random_block_batch(
    m: int,
    n: int,
    block_size: int = 2,
    dtype=np.float64,
    seed: int = 0,
    dominance: float = 2.0,
):
    """Random block-diagonally dominant block-tridiagonal batch.

    Returns ``(A, B, C, d)`` with ``(M, N, B, B)`` block stacks
    (``A[:, 0]`` and ``C[:, -1]`` zero) and ``(M, N, B)`` right-hand
    sides; each diagonal block is an identity scaled past its
    neighbours' row sums plus ``dominance``, the standard sufficient
    condition for pivot-free block-Thomas.
    """
    if dominance <= 0:
        raise ValueError(f"dominance must be > 0, got {dominance}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    rng = np.random.default_rng(seed)
    bs = block_size
    A = rng.standard_normal((m, n, bs, bs)).astype(dtype)
    C = rng.standard_normal((m, n, bs, bs)).astype(dtype)
    A[:, 0] = 0.0
    C[:, -1] = 0.0
    B = rng.standard_normal((m, n, bs, bs)).astype(dtype)
    row_sums = (
        np.abs(A).sum(axis=3) + np.abs(B).sum(axis=3) + np.abs(C).sum(axis=3)
    )
    shift = dominance + row_sums.max(axis=2)  # (m, n)
    B = B + shift[..., None, None] * np.eye(bs, dtype=dtype)
    d = rng.standard_normal((m, n, bs)).astype(dtype)
    return A, B.astype(dtype), C, d


def toeplitz_batch(
    m: int,
    n: int,
    dtype=np.float64,
    seed: int = 0,
    coeffs=(-1.0, 2.5, -1.0),
):
    """Constant-coefficient (Toeplitz) batch — PDE-stencil shaped.

    All systems share the stencil ``coeffs = (a, b, c)``; right-hand
    sides are random.  Requires ``|b| > |a| + |c|`` unless you know what
    you are doing (not enforced, for conditioning experiments).
    """
    lo, di, up = coeffs
    rng = np.random.default_rng(seed)
    a = np.full((m, n), lo, dtype=dtype)
    b = np.full((m, n), di, dtype=dtype)
    c = np.full((m, n), up, dtype=dtype)
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    d = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c, d


def poisson1d_batch(m: int, n: int, dtype=np.float64, seed: int = 0):
    """The 1-D Poisson stencil ``[-1, 2, -1]`` (weakly dominant).

    The classic hardest well-posed tridiagonal test: condition number
    grows like ``n²``.  Good for accuracy comparisons across algorithms.
    """
    return toeplitz_batch(m, n, dtype=dtype, seed=seed, coeffs=(-1.0, 2.0, -1.0))


def graded_batch(
    m: int,
    n: int,
    dtype=np.float64,
    seed: int = 0,
    ratio: float = 1e3,
):
    """Rows whose scale varies smoothly by ``ratio`` across the system.

    Exercises the solvers' behaviour under badly scaled (but still
    dominant) data — a common failure mode for naive implementations.
    """
    a, b, c, d = random_batch(m, n, dtype=dtype, seed=seed)
    scale = np.logspace(0, np.log10(ratio), n, dtype=dtype)[None, :]
    return a * scale, b * scale, c * scale, d * scale


def near_singular_batch(
    m: int,
    n: int,
    dtype=np.float64,
    seed: int = 0,
    margin: float = 1e-6,
):
    """Barely-dominant systems (row margin ``margin``) for robustness tests."""
    return random_batch(m, n, dtype=dtype, seed=seed, dominance=margin)
