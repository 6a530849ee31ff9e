"""The host LAPACK route: one flattened ``?gtsv`` call per batch.

Unpinned requests whose Table III cell is ``k > 0`` run
:func:`repro.core.gtsv.gtsv_batch`; these tests hold that route to the
bitwise contracts the Thomas route already keeps (per-system LAPACK,
factored reuse, sharding, sessions) and pin its singular-pivot policy.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

import repro
from repro.backends import bind_via, solve_via
from repro.core.gtsv import GttrfFactorization, gtsv_batch
from repro.core.hybrid import HybridSolver
from repro.core.periodic import CyclicSingularError, solve_periodic_batch
from repro.core.transition import GTX480_HEURISTIC
from repro.core.validation import SingularSystemError
from repro.engine import ExecutionEngine
from repro.engine.plan import build_plan, host_route

from .conftest import make_batch


def _pivoting_batch(m, n, dtype, seed):
    """Non-dominant diagonals: partial pivoting swaps rows."""
    rng = np.random.default_rng(seed)
    a, b, c, d = (rng.standard_normal((m, n)).astype(dtype) for _ in range(4))
    a[:, 0] = 0
    c[:, -1] = 0
    return a, b, c, d


def _per_system(a, b, c, d):
    gtsv = lapack.get_lapack_funcs("gtsv", dtype=b.dtype)
    x = np.empty_like(d)
    for j in range(b.shape[0]):
        *_, xj, info = gtsv(a[j, 1:], b[j], c[j, :-1], d[j][:, None])
        assert info == 0
        x[j] = xj[:, 0]
    return x


def _ones(m, n=8):
    """``a = b = c = 1``: singular at N = 8 (``dgtsv`` info = 8)."""
    a, b, c, d = (np.ones((m, n)) for _ in range(4))
    a[:, 0] = 0
    c[:, -1] = 0
    return a, b, c, d


# ---------------------------------------------------------------- routing


def test_unpinned_small_m_runs_lapack_and_large_m_stays_thomas():
    for (m, n), algorithm in (
        ((1, 4096), "lapack"),
        ((8, 1024), "lapack"),
        ((600, 64), "lapack"),
        ((1024, 64), "thomas"),
        ((8, 2), "thomas"),  # Table III's k clamps to 0 at tiny N
    ):
        plan = ExecutionEngine().plan_for(m, n, np.float64)
        assert plan.algorithm == algorithm, (m, n)
        assert plan.k == 0


@pytest.mark.parametrize(
    "pin",
    [
        {"k": 3},
        {"heuristic": GTX480_HEURISTIC},
        {"parallelism": 480},
        {"fuse": True},
        {"n_windows": 2},
    ],
)
def test_pinned_requests_keep_the_paper_route(pin):
    assert not host_route(**pin)
    plan = ExecutionEngine().plan_for(8, 1024, np.float64, **pin)
    assert plan.algorithm == "hybrid" and plan.k > 0


def test_engine_wide_table_pins_the_paper_route():
    plan = ExecutionEngine(heuristic=GTX480_HEURISTIC).plan_for(8, 1024, np.float64)
    assert plan.algorithm == "hybrid" and plan.k == 8


def test_algorithm_hybrid_keeps_the_paper_route_bitwise():
    a, b, c, d = make_batch(8, 512, seed=1)
    x = repro.solve_batch(a, b, c, d, algorithm="hybrid")
    assert repro.last_trace().k == 8
    assert np.array_equal(x, HybridSolver().solve_batch(a, b, c, d))


def test_gpusim_keeps_the_paper_route():
    a, b, c, d = make_batch(8, 512, seed=2)
    repro.solve_batch(a, b, c, d, backend="gpusim")
    assert repro.last_trace().k > 0


def test_default_route_trace_names_the_host_route():
    a, b, c, d = make_batch(8, 512, seed=3)
    repro.solve_batch(a, b, c, d)
    trace = repro.last_trace()
    assert (trace.k, trace.k_source) == (0, "host")
    assert trace.stage("lapack gtsv").seconds >= 0.0


def test_lapack_and_thomas_plans_never_share_cache_entries():
    lap = build_plan(8, 64, np.float64, algorithm="lapack")
    tho = build_plan(8, 64, np.float64, k=0)
    assert (lap.algorithm, tho.algorithm) == ("lapack", "thomas")
    assert lap.signature() != tho.signature()
    assert ExecutionEngine._fact_key(lap, "d") != ExecutionEngine._fact_key(tho, "d")


def test_lapack_plans_hold_no_workspace():
    engine = ExecutionEngine()
    a, b, c, d = make_batch(8, 4096, seed=4)
    engine.solve_batch(a, b, c, d, fingerprint=False)
    engine.solve_batch(a, b, c, d, fingerprint=False)
    assert engine.stats.workspace_bytes == 0


# --------------------------------------------------------- bitwise contracts


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dominant", [True, False])
def test_flattened_call_equals_per_system_gtsv(dtype, dominant):
    for seed, (m, n) in enumerate(((1, 4096), (8, 256), (37, 64), (5, 4))):
        if dominant:
            a, b, c, d = make_batch(m, n, dtype=dtype, seed=seed)
        else:
            a, b, c, d = _pivoting_batch(m, n, dtype, seed)
        ref = _per_system(a, b, c, d)
        assert np.array_equal(gtsv_batch(a, b, c, d), ref)
        # and through the public default route
        x = repro.solve_batch(a, b, c, d, fingerprint=False)
        assert x.dtype == dtype
        assert np.array_equal(x, ref)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_factored_solve_equals_full_solve(dtype):
    for seed in range(20):
        a, b, c, d = _pivoting_batch(6, 33, dtype, seed)
        fact = GttrfFactorization.factor(a, b, c)
        x = np.empty_like(d)
        fact.solve_shard(None, d, x, 0, 6)
        assert np.array_equal(x, gtsv_batch(a, b, c, d))
        y = np.empty_like(d)
        fact.solve_shard(None, d, y, 0, 2)
        fact.solve_shard(None, d, y, 2, 6)
        assert np.array_equal(y, x)


def test_fingerprint_hit_never_changes_bits():
    engine = ExecutionEngine()
    a, b, c, _ = _pivoting_batch(16, 256, np.float64, seed=7)
    states = []
    for i in range(4):
        d = np.random.default_rng(i).standard_normal(b.shape)
        info: dict = {}
        x = engine.solve_batch(a, b, c, d, info=info)
        states.append(info["factorization"])
        assert np.array_equal(x, engine.solve_batch(a, b, c, d, fingerprint=False))
    assert states == ["miss", "factored", "hit", "hit"]
    assert info["plan"].algorithm == "lapack"


@pytest.mark.parametrize("workers", [2, 3])
def test_sharding_is_bitwise_independent(workers):
    a, b, c, d = _pivoting_batch(37, 128, np.float64, seed=8)
    ref = repro.solve_batch(a, b, c, d, fingerprint=False)
    x = repro.solve_batch(a, b, c, d, workers=workers, fingerprint=False)
    assert np.array_equal(x, ref)
    # the sharded RHS-only sweep over a stored factorization too
    handle = repro.prepare(a, b, c, workers=workers)
    assert handle.plan.algorithm == "lapack"
    assert np.array_equal(handle.solve(d), ref)


def test_session_step_variants_agree():
    a, b, c, d = _pivoting_batch(12, 96, np.float64, seed=9)
    ref = repro.solve_batch(a, b, c, d, fingerprint=False)
    with bind_via(a, b, c, d) as session:
        assert session.mode == "rhs" and session.plan.algorithm == "lapack"
        assert np.array_equal(session.step_once().x, ref)
        assert np.array_equal(session.step(d), ref)
        assert np.array_equal(session.step_t(np.ascontiguousarray(d.T)), ref.T)
    with bind_via(a, b, c, d, fingerprint=False) as full:
        assert full.mode == "full"
        assert np.array_equal(full.step(d), ref)
        assert np.array_equal(full.step_once().x, ref)


def test_periodic_lapack_route_prepared_equals_unprepared():
    rng = np.random.default_rng(10)
    a, c, d = (rng.standard_normal((8, 64)) for _ in range(3))
    b = 4.0 + np.abs(a) + np.abs(c)
    ref = solve_periodic_batch(a, b, c, d, fingerprint=False)
    handle = repro.prepare(a, b, c, periodic=True)
    assert handle.plan.algorithm == "lapack"
    assert np.array_equal(handle.solve(d), ref)
    assert np.array_equal(solve_periodic_batch(a, b, c, d, backend="numpy"), ref)


def test_disk_cache_round_trip_is_bitwise(tmp_path):
    a, b, c, d = _pivoting_batch(8, 512, np.float64, seed=11)
    first = ExecutionEngine(cache_dir=tmp_path)
    x = first.solve_batch(a, b, c, d, fingerprint=True)
    assert any("lapack" in f for f in first.disk_cache.files())
    second = ExecutionEngine(cache_dir=tmp_path)
    info: dict = {}
    y = second.solve_batch(a, b, c, d, fingerprint=True, info=info)
    assert info["factorization"] == "hit"
    assert second.stats.factorizations_built == 0
    assert np.array_equal(x, y)


# --------------------------------------------------------- singular pivots


def test_singular_pivot_raises_naming_system_and_row():
    a, b, c, d = _ones(1)
    assert lapack.dgtsv(a[0, 1:], b[0], c[0, :-1], d[0][:, None])[-1] == 8
    with pytest.raises(SingularSystemError, match=r"system 0, row 7") as err:
        repro.solve_batch(a, b, c, d)
    assert err.value.systems == (0,) and err.value.row == 7
    assert isinstance(err.value, CyclicSingularError)  # one error type


def test_singular_pivot_warns_and_nans_only_singular_systems():
    a, b, c, d = _ones(5)
    b[[0, 2, 4]] = 4.0  # systems 1 and 3 stay singular
    with pytest.warns(RuntimeWarning, match=r"\[1, 3\]"):
        x = repro.solve_batch(a, b, c, d, check=False, fingerprint=False)
    assert np.isnan(x[[1, 3]]).all()
    good = [0, 2, 4]
    assert np.isfinite(x[good]).all()
    assert np.array_equal(x[good], _per_system(*(v[good] for v in (a, b, c, d))))


def test_singular_policy_on_factored_sharded_and_numpy_paths():
    a, b, c, d = _ones(6)
    b[:4] = 4.0  # systems 4 and 5 singular
    with pytest.raises(SingularSystemError, match=r"system 4, row 7"):
        repro.solve_batch(a, b, c, d, workers=3, fingerprint=False)
    with pytest.raises(SingularSystemError, match=r"system 4, row 7"):
        repro.solve_batch(a, b, c, d, backend="numpy")
    handle = repro.prepare(a, b, c)
    with pytest.raises(SingularSystemError, match=r"system 4"):
        handle.solve(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        x = handle.solve(d, check=False)
        y = repro.solve_batch(a, b, c, d, backend="numpy", check=False)
    assert np.isnan(x[4:]).all() and np.isfinite(x[:4]).all()
    assert np.array_equal(x[:4], y[:4]) and np.isnan(y[4:]).all()


def test_singular_policy_through_solve_via_trace():
    a, b, c, d = _ones(2)
    with pytest.raises(SingularSystemError):
        solve_via(a, b, c, d, backend="engine")


def test_non_contiguous_out_receives_the_solution():
    engine = ExecutionEngine()
    a, b, c, d = _pivoting_batch(8, 64, np.float64, seed=12)
    ref = gtsv_batch(a, b, c, d)
    for fingerprint in (False, True):  # full and factored sweeps
        out = np.asfortranarray(np.zeros_like(d))
        x = engine.solve_batch(a, b, c, d, out=out, fingerprint=fingerprint)
        assert x is out
        assert np.array_equal(out, ref)


def test_singular_in_place_solve_keeps_nonsingular_systems():
    # ?gtsv overwrites its right-hand side before it meets the zero
    # pivot; the fallback must re-solve from the caller's original d
    a, b, c, d = _ones(5)
    b[[0, 2, 4]] = 4.0  # systems 1 and 3 singular
    d = np.random.default_rng(13).standard_normal(d.shape)
    good = [0, 2, 4]
    ref = _per_system(*(v[good] for v in (a, b, c, d)))
    with pytest.warns(RuntimeWarning, match=r"\[1, 3\]"):
        x = gtsv_batch(a, b, c, d, out=d, check=False)
    assert x is d
    assert np.isnan(d[[1, 3]]).all()
    assert np.array_equal(d[good], ref)


def test_shard_sub_plans_inherit_the_host_route():
    engine = ExecutionEngine()
    a, b, c, d = make_batch(12, 256, seed=14)
    info: dict = {}
    engine.solve_batch(a, b, c, d, workers=3, fingerprint=False, info=info)
    plans = list(engine._plans.values())
    assert info["plan"] in plans and len(plans) == 2  # parent + 4-row shard
    assert {(p.algorithm, p.k_source) for p in plans} == {("lapack", "host")}
