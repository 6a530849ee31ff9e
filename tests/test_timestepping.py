"""Time-stepping simulators own their field: stepping never writes
through to the caller's initial array."""

import numpy as np
import pytest

from repro.workloads.timestepping import (
    ADIDiffusion2D,
    ADIDiffusion3D,
    CrankNicolsonCubic,
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
