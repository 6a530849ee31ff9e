"""The ``k = 0`` route: blocked transposes, one Thomas kernel pair, and
its breakdown guard.

Every ``k = 0`` execution (one-shot, sharded, prepared, session
``step`` / ``step_t`` / ``step_once``) runs
:func:`repro.engine.executor.factor_t` / :func:`~repro.engine.executor.solve_t`
between :func:`repro.core.layout.transpose_into` copies; these tests
hold all of them bitwise to the independent
:func:`repro.core.thomas.thomas_solve_batch` oracle, at batch sizes
whose shard edges cut through a transpose block.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import bind_via
from repro.core.layout import TRANSPOSE_BLOCK, transpose_into
from repro.core.thomas import thomas_solve_batch
from repro.core.validation import SingularSystemError
from repro.engine import ExecutionEngine, ThomasRhsFactorization
from repro.engine.executor import (
    ROW_VIEW_MIN_BYTES,
    factor_t,
    row_views,
    shard_bounds,
    solve_t,
)
from repro.engine.workspace import PlanWorkspace, PreparedWorkspace

from .conftest import make_batch

# --------------------------------------------------------- transpose_into


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(1, 200),
    n=st.integers(1, 200),
    dtype=st.sampled_from([np.float32, np.float64]),
    step=st.integers(1, 3),
    offset=st.integers(0, 2),
)
def test_transpose_into_equals_transpose(m, n, dtype, step, offset):
    rng = np.random.default_rng(m * 1000 + n)
    # a strided view into a larger parent: non-contiguous whenever
    # step > 1 or offset > 0 trims columns
    parent = rng.standard_normal((m * step, n + offset)).astype(dtype)
    src = parent[::step, offset:]
    assert src.shape == (m, n)
    dst = np.full((n, m), np.nan, dtype=dtype)
    assert transpose_into(dst, src) is dst
    assert np.array_equal(dst, src.T)


def test_transpose_into_writes_a_strided_destination():
    src = np.arange(130.0 * 7).reshape(130, 7)
    parent = np.zeros((7, 300))
    transpose_into(parent[:, 5:135], src)
    assert np.array_equal(parent[:, 5:135], src.T)
    assert not parent[:, :5].any() and not parent[:, 135:].any()


# ----------------------------------------- k = 0 route against the oracle

M_CASES = (1, TRANSPOSE_BLOCK - 1, TRANSPOSE_BLOCK, TRANSPOSE_BLOCK + 1, 130)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("m", M_CASES)
def test_k0_route_bitwise_equals_oracle(m, workers):
    a, b, c, d = make_batch(m, 37, seed=m)
    ref = thomas_solve_batch(a, b, c, d)
    engine = ExecutionEngine()
    x = engine.solve_batch(a, b, c, d, k=0, workers=workers, fingerprint=False)
    assert np.array_equal(x, ref)
    handle = engine.prepare(a, b, c, k=0)
    assert np.array_equal(handle.solve(d, workers=workers), ref)

    session = bind_via(
        a, b, c, d, backend="engine", k=0, workers=workers, fingerprint=True
    )
    assert session.mode == "rhs"
    assert np.array_equal(session.step(d), ref)
    xt = session.step_t(np.ascontiguousarray(d.T))
    assert np.array_equal(xt, ref.T)
    assert np.array_equal(session.step_once(d).x, ref)
    session.close()


@pytest.mark.parametrize("m", M_CASES)
def test_k0_full_session_bitwise_equals_oracle(m):
    # fingerprint=False: every step re-runs the one-shot executor
    a, b, c, d = make_batch(m, 20, dtype=np.float32, seed=m + 1)
    ref = thomas_solve_batch(a, b, c, d)
    session = bind_via(
        a, b, c, d, backend="engine", k=0, workers=3, fingerprint=False
    )
    assert session.mode == "full"
    assert np.array_equal(session.step(d), ref)
    assert np.array_equal(session.step_t(np.ascontiguousarray(d.T)), ref.T)
    assert np.array_equal(session.step_once(d).x, ref)


# ------------------------------------------- row sequences and bound views


def _transposed(m, n, seed):
    return tuple(np.ascontiguousarray(x.T) for x in make_batch(m, n, seed=seed))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 200), n=st.integers(1, 200), workers=st.integers(1, 4))
def test_kernels_over_row_lists_equal_kernels_over_arrays(m, n, workers):
    ta, tb, tc, td = _transposed(m, n, seed=m * 1000 + n)
    t1, t2 = np.empty((2, m))

    # arrays: the kernels zip over fresh row views
    cp, den, xt = tc.copy(), tb.copy(), td.copy()
    factor_t(ta, den, cp, cp, den, t1)
    solve_t(ta, cp, den, xt, xt, xt, t1, t2)
    # bound lists, whatever the row width
    cp_l, den_l, xt_l = tc.copy(), tb.copy(), td.copy()
    cp_r, den_r, xt_r = list(cp_l), list(den_l), list(xt_l)
    factor_t(list(ta), den_r, cp_r, cp_r, den_r, t1)
    solve_t(list(ta), cp_r, den_r, xt_r, xt_r, xt_r, t1, t2)
    assert np.array_equal(cp_l, cp) and np.array_equal(den_l, den)
    assert np.array_equal(xt_l, xt)
    a, b, c, d = (np.ascontiguousarray(x.T) for x in (ta, tb, tc, td))
    assert np.array_equal(xt.T, thomas_solve_batch(a, b, c, d))

    # shards slice columns; the whole range sweeps the bound rows
    fact = ThomasRhsFactorization.factor(a, b, c)
    ws = PreparedWorkspace(ExecutionEngine().plan_for(m, n, np.dtype(np.float64), k=0))
    sharded = np.full((n, m), np.nan)
    for lo, hi in shard_bounds(m, workers):
        fact.solve_shard_t(ws, td, sharded, lo, hi)
    whole = np.full((n, m), np.nan)
    fact.solve_shard_t(ws, row_views(td), row_views(whole), 0, m)
    assert np.array_equal(sharded, xt) and np.array_equal(whole, xt)


def test_narrow_rows_bind_no_view_lists():
    engine = ExecutionEngine()
    # a pinned k = 0 at 1x65536: lists would hold ~7.5 MB of view
    # headers per list against 0.5 MB of data
    plan = engine.plan_for(1, 65536, np.dtype(np.float64), k=0)
    assert plan.uses_thomas
    ws, pws = PlanWorkspace(plan), PreparedWorkspace(plan)
    a, b, c, d = make_batch(1, 65536, seed=3)
    fact = ThomasRhsFactorization.factor(a, b, c)
    bound = (*ws.rows, pws.td_rows, *fact.rows())
    assert not any(isinstance(r, list) for r in bound)
    assert np.array_equal(
        engine.solve_batch(a, b, c, d, k=0, fingerprint=False),
        thomas_solve_batch(a, b, c, d),
    )
    # rows of ROW_VIEW_MIN_BYTES bind lists, once
    m = ROW_VIEW_MIN_BYTES // 8
    ws = PlanWorkspace(engine.plan_for(m, 16, np.dtype(np.float64), k=0))
    assert all(isinstance(r, list) and len(r) == 16 for r in ws.rows)
    assert ws.nbytes == (4 * 16 + 2) * m * 8  # views own no data
    fact = ThomasRhsFactorization.factor(*make_batch(m, 16, seed=4)[:3])
    assert fact.rows() is fact.rows()
    assert all(isinstance(r, list) for r in fact.rows())


# ------------------------------------------------------ breakdown guard


def _ones(m, n=8):
    """``a = b = c = 1``: Thomas meets a zero pivot at row 1."""
    a, b, c, d = (np.ones((m, n)) for _ in range(4))
    a[:, 0] = 0
    c[:, -1] = 0
    return a, b, c, d


def test_zero_pivot_raises_on_the_k0_route():
    a, b, c, d = _ones(1)
    with pytest.raises(SingularSystemError, match=r"system 0, row 1") as err:
        repro.solve_batch(a, b, c, d, k=0)
    assert err.value.systems == (0,) and err.value.row == 1


def test_zero_pivot_names_the_batch_row_through_shards_and_handles():
    a, b, c, d = _ones(6)
    b[:4] = 4.0  # systems 4 and 5 break down
    engine = ExecutionEngine()
    for workers in (None, 3):
        with pytest.raises(SingularSystemError, match=r"system 4, row 1"):
            engine.solve_batch(a, b, c, d, k=0, workers=workers, fingerprint=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's 1/0
        handle = engine.prepare(a, b, c, k=0)
        with pytest.raises(SingularSystemError, match=r"system 4, row 1") as err:
            handle.solve(d, workers=2)
    assert err.value.systems == (4, 5)


def test_zero_pivot_warns_under_check_false_and_leaves_the_rows():
    a, b, c, d = _ones(5)
    b[[0, 2, 4]] = 4.0  # systems 1 and 3 break down
    with pytest.warns(RuntimeWarning, match=r"broke down in system\(s\) \[1, 3\]"):
        x = repro.solve_batch(a, b, c, d, k=0, check=False, fingerprint=False)
    assert not np.isfinite(x[[1, 3]]).all(axis=1).any()
    good = [0, 2, 4]
    assert np.array_equal(x[good], thomas_solve_batch(a[good], b[good], c[good], d[good]))


def test_session_step_stays_unchecked():
    a, b, c, d = _ones(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        handle = repro.prepare(a, b, c, k=0)
        session = handle.bind()
        x = session.step(d)  # no guard on the hot loop
        assert not np.isfinite(x).all()
        with pytest.raises(SingularSystemError):
            session.step_once(d)


def test_finite_overflowing_checksum_is_not_a_breakdown():
    # x = d is finite, but each system's sum overflows float32
    a, c = np.zeros((2, 4, 16), dtype=np.float32)
    b = np.ones((4, 16), dtype=np.float32)
    d = np.full((4, 16), 1e38, dtype=np.float32)
    x = repro.solve_batch(a, b, c, d, k=0, fingerprint=False)
    assert np.array_equal(x, d)
    with np.errstate(over="ignore"):
        assert not np.isfinite(x.sum(axis=1)).any()
