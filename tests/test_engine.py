"""Solve-plan engine: plan caching, workspace reuse, sharding, parity.

The engine's contract is strict: for every ``(M, N, k, fuse,
n_windows)`` signature its result must be **bitwise identical** to the
single-call :class:`~repro.core.hybrid.HybridSolver` reference path —
cold (first solve, plans + allocates), warm (cached plan, pooled
workspace), and sharded (``workers=W``) alike.
"""

import numpy as np
import pytest

import repro
from repro.core.hybrid import HybridReport, HybridSolver
from repro.core.pthomas import subsystem_lengths
from repro.core.transition import GTX480_HEURISTIC
from repro.core.solver import solve_batch
from repro.engine import (
    ExecutionEngine,
    PlanWorkspace,
    SolvePlan,
    build_plan,
    execute_plan,
    shard_bounds,
)

from .conftest import make_batch, max_err, reference_solve

# the (M, N, k, fuse, n_windows) matrix mirroring test_hybrid/test_tiled_pcr
SIGNATURES = [
    (1, 64, 2, False, 1),
    (1, 1024, 6, False, 1),
    (4, 511, 3, True, 1),
    (17, 128, 4, False, 2),
    (2, 40, 2, True, 3),
    (3, 300, None, False, 1),
    (33, 256, None, True, 1),
    (600, 128, None, False, 1),
    (1200, 64, None, False, 1),  # heuristic k = 0 -> transposed Thomas
    (1200, 64, None, True, 2),
]


@pytest.fixture
def engine():
    return ExecutionEngine()


# ---------------------------------------------------------------------------
# bitwise parity with the reference solver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,n,k,fuse,nw", SIGNATURES)
def test_engine_bitwise_equals_hybrid(engine, m, n, k, fuse, nw):
    a, b, c, d = make_batch(m, n, seed=m * 1000 + n)
    ref = HybridSolver(k=k, fuse=fuse, n_windows=nw).solve_batch(a, b, c, d)
    # an explicit table pins the paper's route (unpinned k > 0 cells run
    # the host LAPACK route instead; see tests/test_lapack_route.py)
    got = engine.solve_batch(
        a, b, c, d, k=k, fuse=fuse, n_windows=nw, heuristic=GTX480_HEURISTIC
    )
    assert np.array_equal(ref, got)
    assert got.dtype == ref.dtype


@pytest.mark.parametrize("m,n,k,fuse,nw", SIGNATURES)
def test_warm_plan_bitwise_equals_cold(engine, m, n, k, fuse, nw):
    a, b, c, d = make_batch(m, n, seed=m + n)
    cold = engine.solve_batch(a, b, c, d, k=k, fuse=fuse, n_windows=nw)
    warm = engine.solve_batch(a, b, c, d, k=k, fuse=fuse, n_windows=nw)
    warm2 = engine.solve_batch(a, b, c, d, k=k, fuse=fuse, n_windows=nw)
    assert np.array_equal(cold, warm)
    assert np.array_equal(cold, warm2)
    assert engine.stats.plan_hits >= 2
    # each warm call either reused a pooled workspace or skipped
    # elimination entirely via the fingerprint/factorization cache
    assert (
        engine.stats.workspaces_reused + engine.stats.rhs_only_solves >= 2
    )


@pytest.mark.parametrize("workers", [2, 3, 8])
@pytest.mark.parametrize(
    "m,n,k,fuse",
    [(7, 200, 2, False), (64, 256, None, True), (1100, 96, None, False)],
)
def test_sharded_solve_bitwise_independent_of_workers(
    engine, workers, m, n, k, fuse
):
    a, b, c, d = make_batch(m, n, seed=workers)
    serial = engine.solve_batch(a, b, c, d, k=k, fuse=fuse)
    sharded = engine.solve_batch(a, b, c, d, k=k, fuse=fuse, workers=workers)
    assert np.array_equal(serial, sharded)
    assert engine.stats.sharded_solves >= 1


def test_sharded_k_frozen_from_full_batch(engine):
    # M = 1100 selects k = 0 (Table III); a shard of ~275 rows alone
    # would select k = 6 — the sub-plans must inherit the full-M choice.
    a, b, c, d = make_batch(1100, 64, seed=9)
    engine.solve_batch(a, b, c, d, workers=4)
    assert engine.last_report.k == 0


def test_engine_result_is_correct(engine):
    a, b, c, d = make_batch(40, 333, seed=3)
    x = engine.solve_batch(a, b, c, d, workers=2)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-12


def test_results_never_alias_pooled_workspaces(engine):
    # Regression: back-to-back same-plan solves must not overwrite a
    # previously returned result (for M = 1 the transposed Thomas
    # output is a contiguous view of workspace memory unless copied).
    for m, n in [(1, 16), (3, 64), (1200, 32)]:
        a, b, c, d = make_batch(m, n, seed=n)
        x1 = engine.solve_batch(a, b, c, d)
        keep = x1.copy()
        d2 = d + 1.0
        engine.solve_batch(a, b, c, d2)
        assert np.array_equal(x1, keep), (m, n)


@pytest.mark.parametrize("fingerprint", [True, False])
def test_step_t_default_output_is_the_reused_session_buffer(fingerprint):
    # step_t(out_t=None) documents session-buffer reuse: both steps
    # return the same array, holding the latest solution — including
    # M = 1, where the output is never a view of pooled workspaces.
    from repro.backends import bind_via

    for m, n in [(1, 16), (3, 64)]:
        a, b, c, d = make_batch(m, n, seed=n)
        session = bind_via(
            a, b, c, d, backend="engine", k=0, fingerprint=fingerprint
        )
        x1 = session.step_t(np.ascontiguousarray(d.T))
        first = x1.copy()
        x2 = session.step_t(np.ascontiguousarray((d + 1.0).T))
        assert x2 is x1, (m, n)
        assert np.array_equal(x2, solve_batch(a, b, c, d + 1.0, k=0).T)
        assert not np.array_equal(x2, first)
        session.close()


# ---------------------------------------------------------------------------
# dtype preservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "route",
    ["hybrid", "hybrid-fused", "engine", "engine-workers", "solve_batch"],
)
def test_dtype_preserved(dtype, route):
    a, b, c, d = make_batch(6, 200, dtype=dtype, seed=5)
    if route == "hybrid":
        x = HybridSolver(k=3).solve_batch(a, b, c, d)
    elif route == "hybrid-fused":
        x = HybridSolver(k=3, fuse=True).solve_batch(a, b, c, d)
    elif route == "engine":
        x = ExecutionEngine().solve_batch(a, b, c, d, k=3)
    elif route == "engine-workers":
        x = ExecutionEngine().solve_batch(a, b, c, d, k=3, workers=3)
    else:
        x = solve_batch(a, b, c, d, k=3)
    assert x.dtype == np.dtype(dtype)
    assert x.shape == (6, 200)
    assert np.isfinite(x).all()


def test_float32_thomas_path_dtype():
    a, b, c, d = make_batch(1200, 48, dtype=np.float32, seed=2)
    eng = ExecutionEngine()
    x = eng.solve_batch(a, b, c, d)
    assert eng.last_report.k == 0
    assert x.dtype == np.float32


# ---------------------------------------------------------------------------
# input coercion (solve_batch check=False on lists)
# ---------------------------------------------------------------------------


def test_list_inputs_with_check_false():
    a = [[0.0, 1.0, 1.0, 1.0]]
    b = [[3.0, 3.0, 3.0, 3.0]]
    c = [[1.0, 1.0, 1.0, 0.0]]
    d = [[1.0, 2.0, 3.0, 4.0]]
    x = solve_batch(a, b, c, d, check=False)
    ref = solve_batch(a, b, c, d, check=True)
    assert x.dtype == np.float64
    assert np.array_equal(x, ref)


def test_integer_lists_promote_to_float64():
    # integer inputs with check=False must not truncate float results
    a = [[0, 1, 1, 1]]
    b = [[3, 3, 3, 3]]
    c = [[1, 1, 1, 0]]
    d = [[1, 2, 3, 4]]
    for algo in ("auto", "thomas", "cr", "pcr", "rd"):
        x = solve_batch(a, b, c, d, algorithm=algo, check=False)
        assert x.dtype == np.float64, algo
        assert max_err(x, reference_solve(a, b, c, d)) < 1e-12, algo


# ---------------------------------------------------------------------------
# plans and the cache
# ---------------------------------------------------------------------------


def test_plan_describes_schedule():
    plan = build_plan(8, 256, np.float64, k=3, n_windows=2)
    assert plan.g == 8
    assert plan.subtile == 8
    assert plan.lead_in == 7
    assert plan.window_bounds == (0, 128, 256)
    assert plan.rounds() == 34  # ceil(135/8) + ceil(135/8)
    info = plan.describe()
    assert info["backend"] == "tiled-pcr+p-thomas"
    assert info["subsystems"] == 64


def test_plan_cache_hit_and_eviction():
    eng = ExecutionEngine(max_plans=2)
    p1 = eng.plan_for(4, 64, np.float64, k=2)
    assert eng.plan_for(4, 64, np.float64, k=2) is p1
    assert eng.stats.plan_hits == 1
    eng.plan_for(8, 64, np.float64, k=2)
    eng.plan_for(16, 64, np.float64, k=2)  # evicts p1 (LRU)
    assert eng.stats.plan_evictions == 1
    assert eng.plan_for(4, 64, np.float64, k=2) is not p1


def test_plan_cache_distinguishes_signatures():
    eng = ExecutionEngine()
    base = dict(k=2, fuse=False, n_windows=1, subtile_scale=1)
    p = eng.plan_for(4, 64, np.float64, **base)
    assert eng.plan_for(4, 64, np.float32, **base) is not p
    assert eng.plan_for(4, 64, np.float64, **{**base, "fuse": True}) is not p
    assert eng.plan_for(4, 64, np.float64, **{**base, "k": 3}) is not p
    assert eng.plan_for(4, 64, np.float64, **base) is p


def test_workspace_matches_plan():
    plan = build_plan(4, 128, np.float64, k=2)
    ws = PlanWorkspace(plan)
    assert ws.fits(plan)
    assert ws.nbytes > 0
    other = build_plan(4, 128, np.float64, k=3)
    assert not ws.fits(other)
    with pytest.raises(ValueError):
        a, b, c, d = make_batch(4, 128)
        execute_plan(other, ws, a, b, c, d)


def test_clear_drops_plans_but_engine_stays_usable():
    eng = ExecutionEngine()
    a, b, c, d = make_batch(4, 64, seed=1)
    x1 = eng.solve_batch(a, b, c, d)
    eng.clear()
    assert eng.stats.workspace_bytes == 0
    x2 = eng.solve_batch(a, b, c, d)
    assert np.array_equal(x1, x2)


def test_shard_bounds_cover_batch():
    for m, w in [(1, 4), (7, 3), (100, 8), (5, 5), (3, 100)]:
        bounds = shard_bounds(m, w)
        assert bounds[0][0] == 0 and bounds[-1][1] == m
        for (l0, h0), (l1, h1) in zip(bounds, bounds[1:]):
            assert h0 == l1 and h0 > l0
        assert len(bounds) <= min(m, w)


def test_default_engine_backs_public_api():
    eng = repro.default_engine()
    before = eng.stats.solves
    a, b, c, d = make_batch(3, 96, seed=11)
    repro.solve_batch(a, b, c, d)
    assert eng.stats.solves == before + 1


# ---------------------------------------------------------------------------
# report parity & vectorized elimination count
# ---------------------------------------------------------------------------


def test_last_report_matches_hybrid(engine):
    a, b, c, d = make_batch(5, 300, seed=8)
    hs = HybridSolver(k=3)
    hs.solve_batch(a, b, c, d)
    engine.solve_batch(a, b, c, d, k=3)
    r1, r2 = hs.last_report, engine.last_report
    for attr in ("m", "n", "k", "k_source", "subsystems", "fused",
                 "n_windows", "pcr_eliminations", "thomas_eliminations"):
        assert getattr(r1, attr) == getattr(r2, attr), attr
    assert r1.tiling.rows_loaded == r2.tiling.rows_loaded
    assert r1.tiling.eliminations == r2.tiling.eliminations


def test_thomas_eliminations_vectorized_matches_loop():
    for n, k in [(64, 0), (64, 3), (100, 2), (7, 3), (1, 0), (33, 5)]:
        rep = HybridReport(m=4, n=n, k=k)
        # the pre-vectorization definition, kept as the oracle
        g = 1 << k
        expected = 0
        for j in range(g):
            length = -(-(n - j) // g)
            if length > 0:
                expected += 2 * length - 1
        expected *= 4
        assert rep.thomas_eliminations == expected, (n, k)
        # cached: repeated access returns the same object state
        assert rep.thomas_eliminations == expected


def test_subsystem_lengths_partition_n():
    for n, k in [(64, 3), (100, 2), (7, 3), (1, 0)]:
        lengths = subsystem_lengths(n, k)
        assert lengths.sum() == n
