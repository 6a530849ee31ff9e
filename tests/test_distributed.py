"""N-partition route: slab math, the ``ranks=`` route, registry, and
the regressions that ride along.

Covers the partition pipeline (partition → local eliminate → reduced
interface solve → backsub) at two levels — the in-process reference
and the public ``ranks=P`` route, which capability negotiation sends
to ``gpusim`` (the one backend advertising ``max_ranks > 1``) and which
runs the same pipeline, so it is bitwise identical to the reference —
plus these regressions:

* executor oversubscription floor (``max(32, cpus)`` → proportional cap)
* disk-cache LRU determinism on coarse-mtime filesystems
* the generic cyclic fallback's merged inner-solve stage timings
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import BackendError, bind_via
from repro.backends.base import PerStepSession
from repro.backends.registry import default_registry, reject_reason
from repro.backends.request import SolveRequest
from repro.core.periodic import (
    apply_cyclic_correction,
    correction_denominator,
    correction_scale,
    cyclic_reduce,
)
from repro.distributed import (
    effective_ranks,
    partitioned_solve_reference,
    slab_bounds,
)
from repro.engine import default_engine
from repro.util.pools import (
    EXECUTOR_HARD_CAP,
    EXECUTOR_PER_CPU,
    executor_cap,
)
from repro.workloads.generators import huge_system_batch, random_batch

#: the stages every ``ranks=P`` trace names, in order
STAGES = (
    "partition",
    "local-eliminate [{p} ranks]",
    "reduced-solve",
    "backsub [{p} ranks]",
    "comms",
)


def _engine_reference(a, b, c, d):
    """The k=0 engine solve every distributed result is compared to."""
    return repro.solve_batch(a, b, c, d, backend="engine", k=0)


# ------------------------------------------------------------ partition


def test_slab_bounds_cover_and_chain():
    for n, p in [(8, 1), (8, 4), (17, 3), (100, 7), (9, 4)]:
        bounds = slab_bounds(n, p)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi == lo2
        assert all(hi - lo >= 2 for lo, hi in bounds)


def test_effective_ranks_clamps_to_slab_minimum():
    assert effective_ranks(8, 4) == 4
    assert effective_ranks(7, 4) == 3  # 7 rows can hold 3 slabs of >= 2
    assert effective_ranks(3, 4) == 1
    assert effective_ranks(10 ** 6, 2) == 2


def test_reference_matches_engine_all_ranks():
    a, b, c, d = random_batch(5, 257, seed=3)
    ref = _engine_reference(a, b, c, d)
    for p in (1, 2, 3, 4, 8):
        x = partitioned_solve_reference(a, b, c, d, p)
        assert np.allclose(x, ref, rtol=1e-10, atol=1e-12), p


@settings(max_examples=30, deadline=None)
@given(
    ranks=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=8, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_partition_placement_invariance(ranks, n, seed, data):
    """Any valid slab placement yields the same solution (cross-rank
    determinism): the reduced interface system is exact, so where the
    cuts land must not matter beyond roundoff."""
    a, b, c, d = random_batch(3, n, seed=seed)
    ref = _engine_reference(a, b, c, d)

    # random interior boundaries with every slab >= 2 rows
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=2, max_value=n - 2),
                min_size=ranks - 1,
                max_size=ranks - 1,
                unique=True,
            )
        )
    )
    edges = [0] + cuts + [n]
    if any(hi - lo < 2 for lo, hi in zip(edges, edges[1:])):
        edges = None  # fall back to the canonical near-equal split

    bounds = (
        list(zip(edges, edges[1:])) if edges is not None else None
    )
    x = partitioned_solve_reference(a, b, c, d, ranks, bounds=bounds)
    assert np.allclose(x, ref, rtol=1e-9, atol=1e-11)
    # the canonical split agrees with itself bit for bit on repeat
    x2 = partitioned_solve_reference(a, b, c, d, ranks, bounds=bounds)
    assert np.array_equal(x, x2)


# ------------------------------------------------------ the ranks= route


def test_backend_bitwise_matches_reference():
    for dtype in (np.float64, np.float32):
        a, b, c, d = huge_system_batch(513, m=4, dtype=dtype, seed=11)
        for p in (2, 3, 4, 8):
            x = repro.solve_batch(a, b, c, d, ranks=p)
            ref = partitioned_solve_reference(a, b, c, d, p)
            assert x.dtype == dtype
            assert np.array_equal(x, ref), f"ranks={p} {dtype} not bitwise"


def test_backend_elementwise_close_to_engine():
    a, b, c, d = huge_system_batch(1024, m=3, seed=1)
    ref = _engine_reference(a, b, c, d)
    for p in (2, 4):
        x = repro.solve_batch(a, b, c, d, ranks=p)
        assert np.allclose(x, ref, rtol=1e-10, atol=1e-12)


def test_backend_honors_out():
    a, b, c, d = random_batch(3, 96, seed=5)
    out = np.empty_like(d)
    x = repro.solve_batch(a, b, c, d, ranks=2, out=out)
    assert x is out
    assert np.array_equal(out, partitioned_solve_reference(a, b, c, d, 2))


def test_trace_carries_ranks_and_stages():
    a, b, c, d = random_batch(3, 200, seed=8)
    repro.solve_batch(a, b, c, d, ranks=3)
    tr = repro.last_trace()
    assert tr.backend == "gpusim"
    assert tr.ranks == 3
    pipeline = tr.stages[-len(STAGES):]  # after the registry's "validate"
    assert [s.name for s in pipeline] == [s.format(p=3) for s in STAGES]
    # every pipeline stage carries its device-model prediction
    assert all(s.predicted_us is not None for s in pipeline)


def test_periodic_via_fallback():
    rng = np.random.default_rng(4)
    m, n = 3, 128
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    ref = repro.solve_periodic_batch(a, b, c, d, backend="engine")
    x = repro.solve_periodic_batch(a, b, c, d, ranks=2)
    assert np.allclose(x, ref, rtol=1e-9, atol=1e-11)
    tr = repro.last_trace()
    assert tr.backend == "gpusim" and tr.periodic and tr.ranks == 2
    assert any(s.name.startswith("cyclic-y:") for s in tr.stages)

    # corner reduction + two partitioned solves + the rank-one update,
    # each step the shared implementation: bitwise, not just close
    ap, bp, cp, u, w = cyclic_reduce(a, b, c)
    y = partitioned_solve_reference(ap, bp, cp, d, 2)
    q = partitioned_solve_reference(ap, bp, cp, u, 2)
    scale = correction_scale(correction_denominator(q, w), n)
    assert np.array_equal(x, apply_cyclic_correction(y, q, w, scale))


def test_float32_supported():
    a, b, c, d = random_batch(3, 256, dtype=np.float32, seed=6)
    ref = _engine_reference(a, b, c, d)
    x = repro.solve_batch(a, b, c, d, ranks=2)
    assert x.dtype == np.float32
    assert np.allclose(x, ref, rtol=1e-4, atol=1e-5)


def test_ranks_session_steps_match_one_shot():
    a, b, c, d = random_batch(3, 64, seed=59)
    session = bind_via(a, b, c, d, ranks=2)
    assert isinstance(session, PerStepSession)
    assert session.request.decision.chosen == "gpusim"
    rng = np.random.default_rng(59)
    try:
        d1 = rng.standard_normal(d.shape)
        x1 = session.step(d1)
        assert np.array_equal(x1, partitioned_solve_reference(a, b, c, d1, 2))
        # transposed-layout step agrees with the straight step
        d2 = rng.standard_normal(d.shape)
        xt = session.step_t(np.ascontiguousarray(d2.T))
        assert np.array_equal(
            xt.T, partitioned_solve_reference(a, b, c, d2, 2)
        )
        out_t = np.empty_like(xt)
        assert session.step_t(np.ascontiguousarray(d2.T), out_t) is out_t
        assert np.array_equal(out_t, xt)
        assert session.steps == 3
        assert repro.last_trace().ranks == 2
    finally:
        session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.step(d)


# ----------------------------------------------------- registry / router


def test_registry_negotiation():
    names = [name for name, _ in repro.list_backends()]
    assert "distributed" not in names

    a, b, c, d = random_batch(4, 64, seed=0)
    req = SolveRequest.build(a, b, c, d, coerced=True, ranks=2)
    engine = default_registry().get("engine")
    gpusim = default_registry().get("gpusim")
    assert reject_reason(engine.capabilities(), req) is not None
    assert reject_reason(gpusim.capabilities(), req) is None
    multi_rank = [
        name for name, caps in repro.list_backends() if caps.max_ranks > 1
    ]
    assert multi_rank == ["gpusim"]


def test_auto_routes_ranks_to_distributed():
    """``ranks > 1`` reaches the partition pipeline by capability
    filtering alone: no router rule names a backend for it."""
    a, b, c, d = random_batch(4, 96, seed=0)
    repro.solve_batch(a, b, c, d, ranks=2)
    tr = repro.last_trace()
    assert tr.backend == "gpusim" and tr.ranks == 2
    assert tr.decision is not None and tr.decision.chosen == "gpusim"
    assert tr.decision.candidates == ("gpusim",)


def test_plain_auto_never_picks_distributed():
    a, b, c, d = random_batch(4, 96, seed=0)
    repro.solve_batch(a, b, c, d)
    tr = repro.last_trace()
    assert tr.backend == "engine" and tr.ranks == 1


def test_gpusim_prices_ranks():
    a, b, c, d = random_batch(4, 256, seed=9)
    x = repro.solve_batch(a, b, c, d, backend="gpusim", ranks=4)
    tr = repro.last_trace()
    assert tr.ranks == 4
    assert tr.predicted_total_us is not None and tr.predicted_total_us > 0
    assert np.array_equal(x, partitioned_solve_reference(a, b, c, d, 4))


def test_retired_process_pool_is_gone():
    retired = "distributed"
    a, b, c, d = random_batch(2, 32, seed=0)
    with pytest.raises(BackendError, match="unknown backend"):
        repro.solve_batch(a, b, c, d, backend=retired, ranks=2)
    assert not [name for name in repro.__all__ if name.startswith("Distributed")]
    probe = "import sys, repro; print('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        check=True,
    )
    assert result.stdout.strip() == "False"


# ----------------------------------------- satellite: executor caps


def test_executor_cap_is_proportional_not_floored():
    assert executor_cap(1) == max(2, EXECUTOR_PER_CPU)
    assert executor_cap(2) == 8
    assert executor_cap(64) == EXECUTOR_HARD_CAP
    cpus = os.cpu_count() or 1
    assert executor_cap() <= max(2, EXECUTOR_PER_CPU * cpus)
    assert executor_cap() <= EXECUTOR_HARD_CAP


def test_backend_caps_respect_executor_cap():
    for name in ("engine", "threaded"):
        caps = default_registry().get(name).capabilities()
        assert caps.max_workers == executor_cap()
        # the old bug: max(32, cpus) pinned >= 32 onto small hosts
        assert caps.max_workers <= EXECUTOR_HARD_CAP


def test_engine_thread_pool_never_oversubscribes():
    engine = default_engine()
    pool = engine.thread_pool(10_000)
    assert pool._max_workers <= executor_cap()


# --------------------------------------- satellite: disk-cache recency


def test_diskcache_lru_deterministic_on_coarse_mtime(tmp_path):
    from repro.engine.diskcache import FactorizationDiskCache

    cache = FactorizationDiskCache(tmp_path, max_bytes=1)
    # simulate a coarse-mtime filesystem: every file lands on the same
    # whole-second stamp...
    paths = []
    for i in range(4):
        p = tmp_path / f"f{i}.npz"
        p.write_bytes(b"x" * 10)
        os.utime(p, ns=(1_000_000_000, 1_000_000_000))
        paths.append(str(p))
    # ...ties break on path, so the order is deterministic
    assert cache.files() == sorted(paths)

    # freshening always advances: repeated touches within one tick
    # must still produce strictly increasing stamps
    stamps = []
    for _ in range(3):
        cache._freshen(paths[0])
        stamps.append(os.stat(paths[0]).st_mtime_ns)
    assert stamps == sorted(set(stamps))
    # the freshened file is now the newest — evicted last
    assert cache.files()[-1] == paths[0]


# --------------------------------- satellite: cyclic fallback timings


def test_periodic_fallback_merges_stages_and_honors_out():
    from repro.backends.registry import default_registry

    rng = np.random.default_rng(12)
    m, n = 3, 64
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))

    numpy_backend = default_registry().get("numpy")
    out = np.empty_like(d)
    x = numpy_backend.solve_batch(a, b, c, d, periodic=True, out=out)
    assert x is out

    ref = repro.solve_periodic_batch(a, b, c, d, backend="engine")
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-11)

    trace = numpy_backend.instrument()
    names = [s.name for s in trace.stages]
    assert names[0] == "cyclic-reduce" and names[-1] == "cyclic-correction"
    # both inner solves' stage breakdowns survive, prefixed
    assert any(nm.startswith("cyclic-y:") for nm in names)
    assert any(nm.startswith("cyclic-q:") for nm in names)
