"""N-partition math: one huge system split into ``P`` row slabs.

* :mod:`~repro.distributed.partition` — the slab math: modified-Thomas
  elimination, the ``2P``-row reduced interface system, vectorized
  back-substitution, and the in-process pipeline behind every
  ``ranks=`` solve (the ``gpusim`` backend runs it and prices it on
  the device model through :mod:`repro.kernels.comm_kernel`).
"""

from repro.distributed.partition import (
    effective_ranks,
    partitioned_solve_reference,
    slab_bounds,
)

__all__ = [
    "effective_ranks",
    "partitioned_solve_reference",
    "slab_bounds",
]
