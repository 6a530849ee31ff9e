"""Core algorithms: the paper's contribution and its algorithmic family.

Modules
-------
``thomas``      sequential Thomas and vectorized batch Thomas (Section II-A.1)
``cr``          cyclic reduction (Section II-A.2)
``pcr``         parallel cyclic reduction (Section II-A.3)
``rd``          recursive doubling (related work, Stone 1973)
``tiled_pcr``   streaming tiled PCR with dependency caching (Section III-A)
``window``      the buffered sliding window of Figs. 9-10 / Table I
``pthomas``     thread-level parallel Thomas on interleaved systems (III-B)
``hybrid``      the hybrid tiled-PCR + p-Thomas solver (Section III)
``transition``  algorithm-transition logic: Table III heuristic + cost model
``cost_model``  Table II cost functions and Eqs. 8-9 redundancy formulas
``layout``      interleave/deinterleave memory-layout transforms
``validation``  input checking and solver preconditions
``factorize``   factor-once / solve-many (Thomas LU, stored PCR levels)
``periodic``    cyclic (periodic-BC) systems via Sherman-Morrison
``pentadiag``   batched pentadiagonal elimination (five-diagonal Thomas LU)
``blocktridiag``  block-tridiagonal systems (coupled PDEs) via block-Thomas
``refine``      mixed-precision solves with fp64 iterative refinement (ref [10])
``streaming``   the generalized buffered sliding window (future work, built)
``solver``      top-level public API (``solve`` / ``solve_batch``)
"""

from repro.core.thomas import thomas_solve, thomas_solve_batch
from repro.core.cr import cr_solve, cr_solve_batch
from repro.core.pcr import pcr_solve, pcr_solve_batch, pcr_step, pcr_sweep
from repro.core.rd import rd_solve, rd_solve_batch
from repro.core.tiled_pcr import TiledPCR, tiled_pcr_sweep
from repro.core.pthomas import pthomas_solve_interleaved
from repro.core.hybrid import HybridSolver, HybridReport
from repro.core.transition import (
    TransitionHeuristic,
    GTX480_HEURISTIC,
    select_k_analytic,
    select_k_heuristic,
)
from repro.core.cost_model import (
    f_redundant_loads,
    g_redundant_elims,
    hybrid_cost,
    pcr_cost,
    thomas_cost,
)
from repro.core.factorize import (
    HybridFactorization,
    ThomasFactorization,
)
from repro.core.blocktridiag import (
    BlockThomasFactorization,
    block_factor,
    block_residual,
    block_thomas_solve_batch,
)
from repro.core.pentadiag import (
    PentaFactorization,
    penta_factor,
    pentadiag_solve_batch,
)
from repro.core.periodic import (
    CyclicSingularError,
    solve_periodic,
    solve_periodic_batch,
)
from repro.core.refine import RefinementResult, solve_mixed_precision
from repro.core.solver import solve, solve_batch

__all__ = [
    "thomas_solve",
    "thomas_solve_batch",
    "cr_solve",
    "cr_solve_batch",
    "pcr_solve",
    "pcr_solve_batch",
    "pcr_step",
    "pcr_sweep",
    "rd_solve",
    "rd_solve_batch",
    "TiledPCR",
    "tiled_pcr_sweep",
    "pthomas_solve_interleaved",
    "HybridSolver",
    "HybridReport",
    "TransitionHeuristic",
    "GTX480_HEURISTIC",
    "select_k_analytic",
    "select_k_heuristic",
    "f_redundant_loads",
    "g_redundant_elims",
    "hybrid_cost",
    "pcr_cost",
    "thomas_cost",
    "solve",
    "solve_batch",
    "ThomasFactorization",
    "HybridFactorization",
    "CyclicSingularError",
    "solve_periodic",
    "solve_periodic_batch",
    "BlockThomasFactorization",
    "block_factor",
    "block_residual",
    "block_thomas_solve_batch",
    "PentaFactorization",
    "penta_factor",
    "pentadiag_solve_batch",
    "solve_mixed_precision",
    "RefinementResult",
]
