"""Bound sessions: bind once, step many — bitwise against one-shot.

The bind/execute split promises that a :class:`BoundSolve` (or its
sibling, the generic ``PerStepSession``) is *pure orchestration*:
stepping a sequence of right-hand sides through one bound session
produces, step for step, the **bitwise** result of independent
one-shot solves wherever the one-shot path makes that promise (every
``k = 0`` route, all banded routes).  These tests pin that contract
across the four system kinds and the backend surface — engine,
threaded, the generic per-step fallback, and the service's
shared-window sessions — plus the transposed-layout ``step_t`` fast
path and the session lifecycle.
"""

from __future__ import annotations

import asyncio
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import bind_via, solve_via
from repro.backends.base import PerStepSession
from repro.engine.session import BoundSolve
from repro.workloads.generators import (
    random_batch,
    random_block_batch,
    random_penta_batch,
)
from repro.workloads.pde import adi_row_coefficients

KINDS = ("plain", "cyclic", "penta", "block")


def _cyclic_batch(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    return a, b, c, d


def _make(kind, seed, backend="engine", **opts):
    """(session, one_shot(d), fresh_d()) for one system kind."""
    rng = np.random.default_rng(seed + 1000)
    if kind == "plain":
        a, b, c, d = random_batch(4, 40, seed=seed)
        # fingerprinting negotiates only against prepared-capable
        # backends; bindless ones take the per-step-dispatch session
        fp = backend in ("engine", "threaded")
        session = bind_via(
            a, b, c, d, backend=backend, k=0, fingerprint=fp, **opts
        )
        one = lambda dd: solve_via(a, b, c, dd, backend=backend, k=0)[0]
        fresh = lambda: rng.standard_normal(d.shape)
    elif kind == "cyclic":
        a, b, c, d = _cyclic_batch(4, 40, seed)
        session = bind_via(
            a, b, c, d,
            backend=backend, periodic=True, k=0, fingerprint=True, **opts
        )
        one = lambda dd: solve_via(
            a, b, c, dd, backend=backend, periodic=True, k=0
        )[0]
        fresh = lambda: rng.standard_normal(d.shape)
    elif kind == "penta":
        e, a, b, c, f, d = random_penta_batch(4, 40, seed=seed)
        session = bind_via(
            a, b, c, d, e=e, f=f, backend=backend, fingerprint=True, **opts
        )
        one = lambda dd: solve_via(
            a, b, c, dd, e=e, f=f, backend=backend
        )[0]
        fresh = lambda: rng.standard_normal(d.shape)
    else:  # block
        A, B, C, d = random_block_batch(3, 12, block_size=2, seed=seed)
        session = bind_via(
            A, B, C, d, backend=backend, fingerprint=True, **opts
        )
        one = lambda dd: solve_via(A, B, C, dd, backend=backend)[0]
        fresh = lambda: rng.standard_normal(d.shape)
    return session, one, fresh


# ---------------------------------------------------------------------------
# the contract: step sequences == one-shot solves, bitwise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_step_sequence_matches_one_shot_bitwise(kind, seed):
    session, one_shot, fresh_d = _make(kind, seed)
    with session:
        assert isinstance(session, BoundSolve)
        for step in range(3):
            d = fresh_d()
            x = session.step(d)
            assert np.array_equal(x, one_shot(d)), (kind, seed, step)
        assert session.steps == 3


@pytest.mark.parametrize("backend", ("engine", "threaded", "numpy", "gpusim"))
def test_plain_sessions_match_one_shot_on_every_backend(backend):
    session, one_shot, fresh_d = _make("plain", seed=17, backend=backend)
    with session:
        for _ in range(3):
            d = fresh_d()
            assert np.array_equal(session.step(d), one_shot(d))


def test_session_modes_and_buffer_ownership():
    # the k=0 fingerprinted bind lands on the RHS-only fast path…
    session, _, fresh_d = _make("plain", seed=3)
    assert session.describe()["mode"] == "rhs"
    x1 = session.step(fresh_d())
    assert session.step(fresh_d()) is x1  # session-owned buffer, reused
    out = np.empty_like(x1)
    assert session.step(fresh_d(), out=out) is out
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.step(fresh_d())
    session.close()  # idempotent

    # …and an unlicensed bind (fingerprinting off) steps the full plan,
    # still bitwise on the k=0 route
    a, b, c, d = random_batch(4, 40, seed=3)
    with bind_via(
        a, b, c, d, backend="engine", k=0, fingerprint=False
    ) as full:
        assert full.describe()["mode"] == "full"
        dd = np.random.default_rng(9).standard_normal(d.shape)
        assert np.array_equal(
            full.step(dd), solve_via(a, b, c, dd, backend="engine", k=0)[0]
        )


# ---------------------------------------------------------------------------
# step_t: the transposed-layout hot path
# ---------------------------------------------------------------------------


def test_step_t_fast_path_matches_step_bitwise():
    session, one_shot, fresh_d = _make("plain", seed=29)
    with session:
        assert session.plan.uses_thomas and session.mode == "rhs"
        for _ in range(3):
            d = fresh_d()
            x = one_shot(d)
            xt = session.step_t(np.ascontiguousarray(d.T))
            assert np.array_equal(xt, x.T)
        # out_t is honored, and may alias the input (the forward sweep
        # consumes dt before the backward sweep writes out_t)
        d = fresh_d()
        dt = np.ascontiguousarray(d.T)
        x = one_shot(d)
        assert session.step_t(dt, out_t=dt) is dt
        assert np.array_equal(dt, x.T)
        assert session.steps == 4


def test_step_t_fallback_modes_match_step():
    # cyclic sessions have no transposed sweep: step_t canonicalizes
    # through step() and must agree bitwise
    session, one_shot, fresh_d = _make("cyclic", seed=31)
    with session:
        d = fresh_d()
        x = one_shot(d)
        assert np.array_equal(session.step_t(np.ascontiguousarray(d.T)), x.T)
        assert session.steps == 1  # the fallback counts once, not twice


def _wide_session(m=96, n=40, seed=37):
    """A k = 0 session whose rows are wide enough to bind row views."""
    a, b, c, d = random_batch(m, n, seed=seed)
    session = bind_via(a, b, c, d, backend="engine", k=0, fingerprint=True)
    one = lambda dd: solve_via(a, b, c, dd, backend="engine", k=0)[0]
    return session, one


def test_step_t_row_memo_follows_alternating_buffers():
    session, one_shot = _wide_session()
    rng = np.random.default_rng(43)
    with session:
        assert session.mode == "rhs"
        bufs = [np.ascontiguousarray(rng.standard_normal((96, 40)).T) for _ in range(2)]
        outs = [np.empty((40, 96)) for _ in range(2)]
        for i in range(6):
            dt, out_t = bufs[i % 2], outs[i % 2]
            dt[...] = rng.standard_normal(dt.shape)
            assert session.step_t(dt, out_t=out_t) is out_t
            assert np.array_equal(out_t, one_shot(dt.T.copy()).T)
            # the session-owned output alternates with the caller's
            xt = session.step_t(dt)
            assert xt is not out_t and np.array_equal(xt, out_t)


def test_step_t_row_memo_sees_in_place_mutation():
    session, one_shot = _wide_session(seed=47)
    rng = np.random.default_rng(53)
    dt = np.empty((40, 96))
    out_t = np.empty((40, 96))
    with session:
        for _ in range(4):
            dt[...] = rng.standard_normal(dt.shape)  # same buffer, new data
            session.step_t(dt, out_t=out_t)
            assert np.array_equal(out_t, one_shot(dt.T.copy()).T)
        # aliasing in and out through the memo
        ref = one_shot(dt.T.copy()).T
        assert session.step_t(dt, out_t=dt) is dt
        assert np.array_equal(dt, ref)


def test_step_t_fallback_allocates_no_staging_grid():
    m = n = 256  # below the k = 0 cut-over: a LAPACK session
    a, b, c = adi_row_coefficients(m, n, 0.3)
    dt = np.random.default_rng(59).random((n, m))
    with bind_via(a, b, c, np.zeros_like(b), fingerprint=True) as session:
        assert session.plan.algorithm == "lapack" and session.mode == "rhs"
        ref = session.step_t(dt).copy()  # warm: the staging buffer exists
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            xt = session.step_t(dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * dt.itemsize
        assert np.array_equal(xt, ref)


def test_step_t_rejects_block_sessions_and_bad_shapes():
    session, _, fresh_d = _make("block", seed=5)
    with session:
        with pytest.raises(ValueError, match="block"):
            session.step_t(np.zeros((2, 2)))
    session, _, _ = _make("plain", seed=5)
    with session:
        with pytest.raises(ValueError, match="shape"):
            session.step_t(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# bind_via routing + the generic per-step fallback
# ---------------------------------------------------------------------------


def test_bind_via_returns_native_sessions_with_pinned_provenance():
    a, b, c, d = random_batch(4, 40, seed=41)
    with bind_via(a, b, c, d, backend="engine") as session:
        assert isinstance(session, BoundSolve)
        decision = session.request.decision
        assert decision is not None and decision.router == "explicit"
        assert decision.chosen == "engine"
        # every instrumented step carries the bind-time decision
        outcome = session.step_once(d)
        assert outcome.trace.decision is decision

    with bind_via(a, b, c, d, backend="auto") as routed:
        decision = routed.request.decision
        assert decision is not None and decision.router == "static"
        assert len(decision.candidates) > 1


def test_per_step_fallback_session_for_bindless_backends():
    a, b, c, d = random_batch(4, 40, seed=43)
    session = bind_via(a, b, c, d, backend="numpy")
    assert isinstance(session, PerStepSession)
    desc = session.describe()
    assert desc["mode"] == "dispatch" and desc["backend"] == "numpy"
    rng = np.random.default_rng(43)
    for _ in range(2):
        dd = rng.standard_normal(d.shape)
        assert np.array_equal(
            session.step(dd), solve_via(a, b, c, dd, backend="numpy")[0]
        )
        assert np.array_equal(
            session.step_t(np.ascontiguousarray(dd.T)),
            solve_via(a, b, c, dd, backend="numpy")[0].T,
        )
    assert session.steps == 4
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.step(d)


# ---------------------------------------------------------------------------
# PreparedPlan rides the same sessions
# ---------------------------------------------------------------------------


def test_prepared_handle_bind_exposes_the_cached_session():
    a, b, c, d = random_batch(4, 48, seed=47)
    handle = repro.prepare(a, b, c, k=0)
    session = handle.bind()
    assert isinstance(session, BoundSolve)
    assert handle.bind() is session  # cached per configuration
    rng = np.random.default_rng(47)
    dd = rng.standard_normal(d.shape)
    assert np.array_equal(session.step(dd).copy(), handle.solve(dd))
    handle.close()
    assert session.closed
    # the handle remains usable: the next solve binds afresh
    assert np.array_equal(handle.solve(dd), handle.bind().step(dd))
    handle.close()


# ---------------------------------------------------------------------------
# the service's shared-window sessions
# ---------------------------------------------------------------------------


def test_service_reuses_bound_sessions_across_windows():
    from repro.service import ServiceConfig, SolveService

    a, b, c, _ = random_batch(3, 32, seed=53)
    rng = np.random.default_rng(53)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            rounds = []
            for _ in range(3):
                d = rng.standard_normal((3, 32))
                xs = await asyncio.gather(
                    *(
                        svc.submit(a, b, c, d, fingerprint=True)
                        for _ in range(2)
                    )
                )
                rounds.append((d, xs))
            return rounds, svc.describe()

    rounds, desc = asyncio.run(asyncio.wait_for(main(), 120.0))
    for d, xs in rounds:
        ref = solve_via(a, b, c, d, backend="numpy")[0]
        for x in xs:
            np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)
    # identical windows land on one cached bound session
    assert desc["bound_sessions"] >= 1
