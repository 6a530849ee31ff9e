"""Service tier: coalescing, bitwise scatter, stats, backpressure.

No pytest-asyncio in the environment: every async test runs through
``asyncio.run(asyncio.wait_for(...))`` with a hard timeout so an
event-loop hang fails the test instead of wedging the suite.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import default_registry, solve_via
from repro.service import (
    ServiceConfig,
    ServiceOverloaded,
    SolveService,
    SyncSolveClient,
)
from repro.workloads import (
    random_batch,
    random_block_batch,
    random_penta_batch,
    shared_matrix_traffic,
    small_request_traffic,
)

TIMEOUT = 120.0


def run(coro):
    """Drive a coroutine with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def fragments_of(arrays, bounds):
    """Split each (M, ...) array at ``bounds`` row offsets."""
    edges = [0, *bounds, arrays[0].shape[0]]
    return [
        tuple(arr[lo:hi] for arr in arrays)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


# ---------------------------------------------------------------------------
# coalescing + bitwise identity
# ---------------------------------------------------------------------------


def test_compatible_fragments_coalesce_into_one_dispatch():
    frags = small_request_traffic(16, 4, 128, seed=0)
    a = np.concatenate([f[1][0] for f in frags], axis=0)
    b = np.concatenate([f[1][1] for f in frags], axis=0)
    c = np.concatenate([f[1][2] for f in frags], axis=0)
    d = np.concatenate([f[1][3] for f in frags], axis=0)
    ref = repro.solve_batch(a, b, c, d, k=0)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(fa, fb, fc, fd, tenant=t)
                for t, (fa, fb, fc, fd) in frags
            ])
            return xs, svc.stats.describe()

    xs, stats = run(main())
    assert stats["dispatches"] == 1
    assert stats["dispatched_rows"] == 64
    for i, x in enumerate(xs):
        assert np.array_equal(x, ref[4 * i : 4 * (i + 1)])


def test_size_flush_splits_at_max_batch_rows():
    frags = small_request_traffic(8, 4, 64, seed=1)

    async def main():
        config = ServiceConfig(max_batch_rows=16, max_wait_us=500.0)
        async with SolveService(config) as svc:
            await asyncio.gather(*[
                svc.submit(*f[1]) for f in frags
            ])
            return svc.stats.describe()

    stats = run(main())
    assert stats["dispatches"] == 2
    assert stats["flushes"]["size"] == 2
    assert stats["max_batch_rows"] <= 16


def test_incompatible_shapes_group_separately():
    a1 = random_batch(4, 64, seed=2)
    a2 = random_batch(4, 128, seed=3)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            x1, x2 = await asyncio.gather(
                svc.submit(*a1), svc.submit(*a2)
            )
            return x1, x2, svc.stats.describe()

    x1, x2, stats = run(main())
    assert stats["dispatches"] == 2
    assert np.array_equal(x1, repro.solve_batch(*a1, k=0))
    assert np.array_equal(x2, repro.solve_batch(*a2, k=0))


def test_pinned_k_group_keeps_callers_k():
    frags = small_request_traffic(4, 8, 256, seed=4)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(*f[1], k=2) for f in frags
            ])
            return xs, svc.stats.describe()

    xs, stats = run(main())
    assert stats["dispatches"] == 1
    a = np.concatenate([f[1][0] for f in frags], axis=0)
    b = np.concatenate([f[1][1] for f in frags], axis=0)
    c = np.concatenate([f[1][2] for f in frags], axis=0)
    d = np.concatenate([f[1][3] for f in frags], axis=0)
    ref = repro.solve_batch(a, b, c, d, k=2)
    for i, x in enumerate(xs):
        assert np.array_equal(x, ref[8 * i : 8 * (i + 1)])


def test_hybrid_options_pass_through_solo():
    a, b, c, d = random_batch(8, 256, seed=5)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            x = await svc.submit(a, b, c, d, fuse=True)
            return x, svc.stats.describe()

    x, stats = run(main())
    assert stats["flushes"]["solo"] == 1
    assert np.array_equal(x, repro.solve_batch(a, b, c, d, fuse=True))


def test_periodic_fragments_coalesce_bitwise():
    rng = np.random.default_rng(6)
    m, n = 12, 64
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 3.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    ref = repro.solve_periodic_batch(a, b, c, d, k=0)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(a[i : i + 4], b[i : i + 4], c[i : i + 4],
                           d[i : i + 4], periodic=True)
                for i in range(0, m, 4)
            ])
            return xs, svc.stats.describe()

    xs, stats = run(main())
    assert stats["dispatches"] == 1
    for i, x in enumerate(xs):
        assert np.array_equal(x, ref[4 * i : 4 * (i + 1)])


def test_out_argument_receives_fragment():
    a, b, c, d = random_batch(4, 64, seed=7)
    out = np.empty_like(d)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            other = random_batch(4, 64, seed=8)
            x, _ = await asyncio.gather(
                svc.submit(a, b, c, d, out=out),
                svc.submit(*other),
            )
            return x

    x = run(main())
    assert x is out
    assert np.array_equal(out, repro.solve_batch(a, b, c, d, k=0))


# ---------------------------------------------------------------------------
# shared-factorization digest path
# ---------------------------------------------------------------------------


def test_shared_matrix_requests_share_one_factorization():
    (a, b, c), ds = shared_matrix_traffic(8, 4, 128, seed=9)
    ref = [repro.solve_batch(a, b, c, d, k=0, fingerprint=False)
           for _, d in ds]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(a, b, c, d, tenant=t, fingerprint=True)
                for t, d in ds
            ])
            return xs, svc.stats.describe(), svc.last_trace("tenant-0")

    xs, stats, trace = run(main())
    assert stats["dispatches"] == 1
    assert stats["shared_factorizations"] == 1
    assert trace is not None and trace.rhs_only
    for x, r in zip(xs, ref):
        assert np.array_equal(x, r)


def test_coalesced_auto_windows_skip_the_coefficient_digest():
    # a multi-fragment window's coefficients are a fresh concatenation,
    # so its digest could never hit: it runs unfingerprinted and leaves
    # the engine's sighting ledger alone
    engine = default_registry().get("engine").engine
    frags = small_request_traffic(8, 4, 72, seed=9001)
    solo_frag = small_request_traffic(1, 4, 72, seed=9101)[0]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            misses = engine.stats.fingerprint_misses
            await asyncio.gather(*[
                svc.submit(*batch, tenant=t) for t, batch in frags
            ])
            window = (
                svc.stats.describe()["dispatches"],
                svc.last_trace("tenant-0"),
                engine.stats.fingerprint_misses - misses,
            )
            await svc.submit(*solo_frag[1], tenant="solo")
            solo = (
                svc.last_trace("solo"),
                engine.stats.fingerprint_misses - misses,
            )
            return window, solo

    (dispatches, trace, misses), (solo_trace, solo_misses) = run(main())
    assert dispatches == 1 and trace.m == 32
    assert trace.factorization == "off" and misses == 0
    # a solo window keeps the auto lifecycle: a first sighting
    assert solo_trace.m == 4 and solo_trace.factorization == "miss"
    assert solo_misses == 1


# ---------------------------------------------------------------------------
# stats, traces, backpressure
# ---------------------------------------------------------------------------


def test_per_tenant_stats_and_last_trace():
    frags = small_request_traffic(8, 4, 64, tenants=2, seed=10)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            await asyncio.gather(*[
                svc.submit(*batch, tenant=t) for t, batch in frags
            ])
            return svc.stats.describe(), svc.last_trace("tenant-1")

    stats, trace = run(main())
    tenants = {t["tenant"]: t for t in stats["tenants"]}
    assert set(tenants) == {"tenant-0", "tenant-1"}
    for t in tenants.values():
        assert t["submitted"] == t["delivered"] == 4
        assert t["rows"] == 16
        assert t["latency_ms"]["p99"] >= t["latency_ms"]["p50"] >= 0.0
    assert trace is not None
    assert trace.m == 32  # the tenant's trace is the aggregate dispatch


def test_admission_control_sheds_past_max_pending_rows():
    frags = small_request_traffic(3, 8, 64, seed=11)

    async def main():
        config = ServiceConfig(max_pending_rows=16, max_wait_us=50_000.0)
        async with SolveService(config) as svc:
            f0 = svc.submit_nowait(*frags[0][1])
            f1 = svc.submit_nowait(*frags[1][1])
            with pytest.raises(ServiceOverloaded) as exc:
                svc.submit_nowait(*frags[2][1])
            assert exc.value.pending_rows == 16
            assert exc.value.rows == 8
            await asyncio.gather(f0, f1)
            return svc.stats.describe()

    stats = run(main())
    shed = sum(t["shed"] for t in stats["tenants"])
    assert shed == 1
    delivered = sum(t["delivered"] for t in stats["tenants"])
    assert delivered == 2


def test_submit_after_close_raises():
    a, b, c, d = random_batch(2, 32, seed=12)

    async def main():
        svc = SolveService(ServiceConfig(max_wait_us=500.0))
        async with svc:
            await svc.submit(a, b, c, d)
        with pytest.raises(RuntimeError):
            svc.submit_nowait(a, b, c, d)

    run(main())


def test_close_flushes_pending_buckets():
    a, b, c, d = random_batch(4, 64, seed=13)

    async def main():
        svc = SolveService(ServiceConfig(max_wait_us=60_000_000.0))
        async with svc:
            fut = svc.submit_nowait(a, b, c, d)
            # the window is an hour; close() must drain it now
        assert fut.done()
        return fut.result(), svc.stats.describe()

    x, stats = run(main())
    assert stats["flushes"]["close"] == 1
    assert np.array_equal(x, repro.solve_batch(a, b, c, d, k=0))


def test_invalid_input_raises_at_submit_not_in_future():
    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            with pytest.raises(ValueError):
                svc.submit_nowait(
                    np.ones((2, 8)), np.ones((2, 8)),
                    np.ones((2, 8)), np.ones((3, 8)),
                )

    run(main())


# ---------------------------------------------------------------------------
# sync adapter
# ---------------------------------------------------------------------------


def test_sync_client_from_worker_threads():
    frags = small_request_traffic(8, 4, 64, seed=14)
    results: dict = {}

    with SyncSolveClient(ServiceConfig(max_wait_us=2000.0)) as client:
        def worker(i, batch):
            results[i] = client.solve(*batch, timeout=TIMEOUT)

        threads = [
            threading.Thread(target=worker, args=(i, batch))
            for i, (_, batch) in enumerate(frags)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
        stats = client.describe()

    assert len(results) == 8
    for i, (_, (a, b, c, d)) in enumerate(frags):
        assert np.array_equal(results[i], repro.solve_batch(a, b, c, d, k=0))
    assert stats["dispatches"] >= 1


def test_sync_client_close_is_idempotent():
    client = SyncSolveClient(ServiceConfig(max_wait_us=500.0))
    a, b, c, d = random_batch(2, 32, seed=15)
    x = client.solve(a, b, c, d, timeout=TIMEOUT)
    assert np.array_equal(x, repro.solve_batch(a, b, c, d, k=0))
    client.close()
    client.close()


# ---------------------------------------------------------------------------
# property: any partition scatter-gathers bitwise-identically
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["plain", "periodic", "penta", "block"]),
    cuts=st.lists(st.integers(min_value=1, max_value=11),
                  max_size=3, unique=True),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_partition_matches_monolithic_solve(kind, cuts, seed):
    m, n = 12, 32
    bounds = sorted(cuts)
    if kind == "plain":
        arrays = random_batch(m, n, seed=seed)
        ref = repro.solve_batch(*arrays, k=0)
        submit_args = [
            (frag, {}) for frag in fragments_of(arrays, bounds)
        ]
    elif kind == "periodic":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        c = rng.standard_normal((m, n))
        b = 3.0 + np.abs(a) + np.abs(c)
        d = rng.standard_normal((m, n))
        ref = repro.solve_periodic_batch(a, b, c, d, k=0)
        submit_args = [
            (frag, {"periodic": True})
            for frag in fragments_of((a, b, c, d), bounds)
        ]
    elif kind == "penta":
        e, a, b, c, f, d = random_penta_batch(m, n, seed=seed)
        ref, _ = solve_via(a, b, c, d, e=e, f=f)
        submit_args = [
            ((fa, fb, fc, fd), {"e": fe, "f": ff})
            for fe, fa, fb, fc, ff, fd
            in fragments_of((e, a, b, c, f, d), bounds)
        ]
    else:
        A, B, C, d = random_block_batch(m, n, block_size=2, seed=seed)
        ref, _ = solve_via(A, B, C, d)
        submit_args = [
            (frag, {}) for frag in fragments_of((A, B, C, d), bounds)
        ]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            return await asyncio.gather(*[
                svc.submit(*args, **kwargs) for args, kwargs in submit_args
            ])

    xs = run(main())
    assert np.array_equal(np.concatenate(xs, axis=0), ref)
