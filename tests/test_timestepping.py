"""Time-stepping simulators own their field: stepping never writes
through to the caller's initial array.  The 2-D ADI's slab-blocked
explicit assembly is bitwise the full-grid formula."""

import numpy as np
import pytest

from repro.core.layout import transpose_into
from repro.core.thomas import thomas_solve_batch
from repro.workloads.pde import adi_row_coefficients
from repro.workloads.timestepping import (
    ADIDiffusion2D,
    ADIDiffusion3D,
    CrankNicolsonCubic,
    mirror_laplacian,
)


@pytest.mark.parametrize(
    "make, shape",
    [
        (lambda u0: ADIDiffusion2D(u0, 1.0, 1e-3, dx=1.0 / 16), (16, 24)),
        (lambda u0: ADIDiffusion3D(u0, 1.0, 1e-3, dx=1.0 / 8), (6, 8, 10)),
        (lambda u0: CrankNicolsonCubic(u0, 1.0, 1e-3, dx=1.0 / 32), (4, 32)),
    ],
)
def test_step_leaves_the_callers_initial_field_unchanged(make, shape):
    u0 = 1.0 + np.random.default_rng(0).random(shape)  # contiguous float64
    kept = u0.copy()
    sim = make(u0)
    try:
        assert not np.shares_memory(sim.u, u0)
        sim.step()
        sim.step()
        assert not np.array_equal(sim.u, kept)  # the field did move
    finally:
        sim.close()
    assert np.array_equal(u0, kept)


# ------------------------------------------ ADI blocked explicit assembly


def _full_grid_step(sim, u, solve_row, solve_col):
    """One Peaceman–Rachford step with full-grid explicit halves.

    The unblocked assembly ``ADIDiffusion2D.step`` used before it went
    to row slabs, kept as the oracle: the stencil, scale and add over
    whole grids, then the whole-grid ``2·u* − d1``.  ``solve_row`` /
    ``solve_col`` map an ``(N, M)`` right-hand side to its ``(N, M)``
    solution.
    """
    lap = np.empty_like(u)
    tmp = np.empty_like(u)
    d1t = np.empty((sim.nx, sim.ny))
    tmp_t = np.empty((sim.nx, sim.ny))
    d2 = np.empty_like(u)
    mirror_laplacian(u, axis=0, out=lap)
    np.multiply(lap, sim.beta_y, out=tmp)
    np.add(tmp, u, out=tmp)
    transpose_into(d1t, tmp)
    ustar_t = solve_row(d1t)
    np.multiply(ustar_t, 2.0, out=tmp_t)
    np.subtract(tmp_t, d1t, out=tmp_t)
    transpose_into(d2, tmp_t)
    return solve_col(d2)


def _session_solvers(sim):
    return (
        lambda dt: sim._row.step_t(dt).copy(),
        lambda dt: sim._col.step_t(dt).copy(),
    )


SLAB_EDGES = (2, 3, 63, 64, 65, 130)


@pytest.mark.parametrize("nx", SLAB_EDGES)
@pytest.mark.parametrize("ny", SLAB_EDGES)
def test_adi_blocked_assembly_equals_the_full_grid_formula(ny, nx):
    u0 = 1.0 + np.random.default_rng(ny * 1000 + nx).random((ny, nx))
    with ADIDiffusion2D(u0, 1.0, 1e-3, dx=1.0 / max(ny, nx)) as sim:
        solve_row, solve_col = _session_solvers(sim)
        for _ in range(2):
            ref = _full_grid_step(sim, sim.u.copy(), solve_row, solve_col)
            assert np.array_equal(sim.step(), ref)


def test_adi_1024_steps_bitwise_equal_the_full_grid_formula():
    n = 1024
    u0 = 1.0 + np.random.default_rng(7).random((n, n))
    with ADIDiffusion2D(u0, 1.0, 1e-5, dx=1.0 / n) as sim:
        assert sim._row.describe()["k"] == 0  # the transposed Thomas route
        # step 1 against sweeps through the independent Thomas oracle
        rows = adi_row_coefficients(n, n, sim.beta_x)
        cols = adi_row_coefficients(n, n, sim.beta_y)
        ref = _full_grid_step(
            sim, sim.u.copy(),
            lambda dt: thomas_solve_batch(*rows, dt.T.copy()).T,
            lambda dt: thomas_solve_batch(*cols, dt.T.copy()).T,
        )
        assert np.array_equal(sim.step(), ref)
        # steps 2..20 against the formula over the same sessions
        solve_row, solve_col = _session_solvers(sim)
        field = ref
        for _ in range(19):
            field = _full_grid_step(sim, field, solve_row, solve_col)
            sim.step()
        assert np.array_equal(sim.u, field)
