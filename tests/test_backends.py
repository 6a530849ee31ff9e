"""Backend dispatch layer: registry negotiation, router, cross-backend
agreement, and per-solve traces.

The engine and threaded backends must be *bitwise* identical to the
single-call NumPy reference.  The gpusim backend routes its numerics
through the engine too, but its device planner may choose a different
transition ``k`` / window split than the reference heuristic (shared
memory caps it), so agreement there is to rounding tolerance, not
bitwise — that tolerance is part of its contract.
"""

import numpy as np
import pytest

import repro
from repro.backends import (
    BackendBase,
    BackendError,
    BackendRegistry,
    Capabilities,
    EngineBackend,
    NumpyReferenceBackend,
    Router,
    SolveRequest,
    clear_last_trace,
    default_registry,
    solve_via,
)
from repro.core.periodic import CyclicSingularError, solve_periodic_batch
from repro.workloads.generators import random_batch

ALL_BACKENDS = ("engine", "threaded", "numpy", "gpusim")
#: gpusim's device planner may re-plan k/windows → rounding-level drift.
TOL = {np.float64: 1e-12, np.float32: 1e-4}


def _batch(m=12, n=256, dtype=np.float64, seed=3):
    return random_batch(m, n, dtype=dtype, seed=seed)


def _cyclic_batch(m, n, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    b = (4.0 + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c, d


# ---------------------------------------------------------------- registry


def test_registry_lists_all_four_backends():
    names = [b.name for b in default_registry().backends()]
    # priority order
    assert names == ["engine", "threaded", "numpy", "gpusim"]


def test_auto_picks_the_engine():
    a, b, c, d = _batch()
    repro.solve_batch(a, b, c, d)
    assert repro.last_trace().backend == "engine"


def test_workers_route_to_threaded():
    a, b, c, d = _batch()
    x1 = repro.solve_batch(a, b, c, d)
    xw = repro.solve_batch(a, b, c, d, workers=3)
    trace = repro.last_trace()
    assert trace.backend == "threaded"
    assert trace.workers == 3
    assert np.array_equal(x1, xw)  # sharding is bitwise-invisible


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_named_backend_is_honoured(name):
    a, b, c, d = _batch()
    repro.solve_batch(a, b, c, d, backend=name)
    assert repro.last_trace().backend == name


def test_unknown_backend_name_is_a_clear_error():
    a, b, c, d = _batch(m=2, n=32)
    with pytest.raises(BackendError, match="unknown backend .*registered"):
        repro.solve_batch(a, b, c, d, backend="cuda")


def test_classic_algorithms_reject_backend_selection():
    a, b, c, d = _batch(m=2, n=32)
    with pytest.raises(TypeError, match="backend="):
        repro.solve_batch(a, b, c, d, algorithm="thomas", backend="engine")


def test_unknown_solve_option_is_a_type_error():
    a, b, c, d = _batch(m=2, n=32)
    with pytest.raises(TypeError, match="unknown solve option"):
        repro.solve_batch(a, b, c, d, tile=4)


# ------------------------------------------------- cross-backend agreement


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [0, None], ids=["k0", "kheuristic"])
@pytest.mark.parametrize("backend", ["engine", "threaded", "gpusim"])
def test_cross_backend_agreement(backend, k, dtype):
    a, b, c, d = _batch(m=8, n=256, dtype=dtype)
    opts = {} if k is None else {"k": k}
    ref = repro.solve_batch(a, b, c, d, backend="numpy", **opts)
    x = repro.solve_batch(a, b, c, d, backend=backend, **opts)
    assert x.dtype == ref.dtype
    if backend == "gpusim" and k is None:
        # device plan may differ from the reference heuristic
        assert np.allclose(x, ref, rtol=TOL[dtype], atol=TOL[dtype])
    else:
        assert np.array_equal(x, ref)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("backend", ["engine", "threaded", "gpusim"])
def test_cross_backend_agreement_periodic(backend, dtype):
    rng = np.random.default_rng(11)
    m, n = 4, 128
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    b = (6.0 + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    ref = solve_periodic_batch(a, b, c, d, backend="numpy")
    x = solve_periodic_batch(a, b, c, d, backend=backend)
    if backend == "gpusim":
        assert np.allclose(x, ref, rtol=TOL[dtype], atol=TOL[dtype])
    else:
        assert np.array_equal(x, ref)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("backend", ["engine", "threaded", "gpusim"])
def test_periodic_prepared_matches_unprepared(backend, dtype):
    # k = 0 pins the plan, so the cyclic RHS-only sweep (stored core
    # factorization + q + scale) must change no bits vs re-elimination
    a, b, c, d = _cyclic_batch(48, 96, dtype=dtype, seed=21)
    ref = solve_periodic_batch(
        a, b, c, d, backend=backend, k=0, fingerprint=False
    )
    solve_periodic_batch(a, b, c, d, backend=backend, k=0, fingerprint=True)
    x = solve_periodic_batch(
        a, b, c, d, backend=backend, k=0, fingerprint=True
    )
    trace = repro.last_trace()
    assert trace.backend == backend
    assert trace.periodic is True
    assert trace.factorization == "hit"
    assert trace.rhs_only is True
    assert x.dtype == ref.dtype
    assert np.array_equal(x, ref)


def test_periodic_trace_fields():
    a, b, c, d = _cyclic_batch(4, 64, seed=22)
    solve_periodic_batch(a, b, c, d)
    trace = repro.last_trace()
    assert trace.periodic is True
    assert trace.describe()["periodic"] is True
    assert any("cyclic" in s.name for s in trace.stages)
    # plain solves leave the flag down
    repro.solve_batch(*_batch(m=2, n=64))
    assert repro.last_trace().periodic is False


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_periodic_singular_raises_through_backends(backend):
    # the periodic Laplacian [-1, 2, -1] has the constant nullvector:
    # |1 + v·q| collapses and every backend must surface the guard
    n = 32
    a = np.full((2, n), -1.0)
    c = np.full((2, n), -1.0)
    b = np.full((2, n), 2.0)
    d = np.zeros((2, n))
    with pytest.raises(CyclicSingularError, match="row"):
        solve_periodic_batch(a, b, c, d, backend=backend)


def test_out_parameter_is_written_in_place():
    a, b, c, d = _batch(m=4, n=64)
    out = np.empty_like(d)
    x, trace = solve_via(a, b, c, d, out=out)
    assert x is out
    assert trace.backend == "engine"


# -------------------------------------------------- prepared vs unprepared


@pytest.mark.parametrize("backend", ["engine", "threaded", "gpusim"])
def test_prepared_matches_unprepared_bitwise_k0(backend):
    # k = 0 pins the plan, so the RHS-only sweep with stored
    # denominators must change no bits on any prepared-capable backend
    a, b, c, d = _batch(m=48, n=96, seed=41)
    ref = repro.solve_batch(a, b, c, d, backend=backend, k=0,
                            fingerprint=False)
    repro.solve_batch(a, b, c, d, backend=backend, k=0, fingerprint=True)
    x = repro.solve_batch(a, b, c, d, backend=backend, k=0, fingerprint=True)
    trace = repro.last_trace()
    assert trace.backend == backend
    assert trace.factorization == "hit"
    assert trace.rhs_only is True
    assert np.array_equal(x, ref)


@pytest.mark.parametrize("backend", ["engine", "threaded", "gpusim"])
def test_prepared_matches_unprepared_hybrid(backend):
    a, b, c, d = _batch(m=8, n=320, seed=42)
    ref = repro.solve_batch(a, b, c, d, backend=backend, k=4,
                            fingerprint=False)
    repro.solve_batch(a, b, c, d, backend=backend, k=4, fingerprint=True)
    x = repro.solve_batch(a, b, c, d, backend=backend, k=4, fingerprint=True)
    assert repro.last_trace().rhs_only is True
    assert np.allclose(x, ref, rtol=1e-10, atol=1e-13)


def test_fingerprint_true_rejects_numpy_backend():
    a, b, c, d = _batch(m=4, n=64, seed=43)
    with pytest.raises(BackendError, match="prepared"):
        repro.solve_batch(a, b, c, d, backend="numpy", fingerprint=True)


def test_fingerprint_true_negotiates_past_numpy():
    registry = BackendRegistry(router=Router())
    registry.register(NumpyReferenceBackend())
    registry.register(EngineBackend())
    a, b, c, d = _batch(m=4, n=64, seed=44)
    _, trace = solve_via(a, b, c, d, fingerprint=True, registry=registry)
    assert trace.backend == "engine"


def test_threaded_trace_merges_shard_stages():
    a, b, c, d = _batch(m=32, n=128, seed=45)
    repro.solve_batch(a, b, c, d, workers=4, fingerprint=False)
    trace = repro.last_trace()
    assert trace.backend == "threaded"
    # per-shard stage ledgers are merged into a critical-path view
    assert any("[4 shards]" in s.name for s in trace.stages)


# ------------------------------------------------------------- negotiation


class _Float64Only(BackendBase):
    """Test double: claims top priority but only supports float64."""

    name = "f64only"
    priority = 999

    def __init__(self):
        super().__init__()
        self._inner = NumpyReferenceBackend()

    def capabilities(self):
        return Capabilities(dtypes=("float64",), description="test double")

    def execute(self, request):
        outcome = self._inner.execute(request)
        outcome.trace.backend = self.name
        self._set_trace(outcome.trace)
        return outcome


def _test_registry():
    registry = BackendRegistry(router=Router())
    registry.register(_Float64Only())
    registry.register(EngineBackend())
    return registry


def test_named_backend_dtype_rejection_is_explicit():
    registry = _test_registry()
    a, b, c, d = _batch(m=2, n=64, dtype=np.float32)
    with pytest.raises(BackendError, match="float32"):
        solve_via(a, b, c, d, backend="f64only", registry=registry)


def test_auto_falls_back_past_incapable_backends():
    registry = _test_registry()
    a, b, c, d = _batch(m=2, n=64, dtype=np.float32)
    _, trace = solve_via(a, b, c, d, registry=registry)
    assert trace.backend == "engine"  # f64only outranks it but can't run

    a, b, c, d = _batch(m=2, n=64, dtype=np.float64)
    _, trace = solve_via(a, b, c, d, registry=registry)
    assert trace.backend == "f64only"  # highest capable priority wins


class _NoPeriodic(BackendBase):
    """Test double: top priority but cannot serve cyclic systems."""

    name = "noperiodic"
    priority = 999

    def __init__(self):
        super().__init__()
        self._inner = NumpyReferenceBackend()

    def capabilities(self):
        return Capabilities(periodic=False, description="test double")

    def execute(self, request):
        outcome = self._inner.execute(request)
        outcome.trace.backend = self.name
        self._set_trace(outcome.trace)
        return outcome


def test_periodic_capability_is_negotiated():
    registry = BackendRegistry(router=Router())
    registry.register(_NoPeriodic())
    registry.register(EngineBackend())
    a, b, c, d = _cyclic_batch(2, 48, seed=23)

    # named explicitly: the rejection reason is surfaced
    with pytest.raises(BackendError, match="periodic"):
        solve_via(
            a, b, c, d, periodic=True, backend="noperiodic", registry=registry
        )

    # auto: negotiation skips the periodic-incapable backend ...
    _, trace = solve_via(a, b, c, d, periodic=True, registry=registry)
    assert trace.backend == "engine"
    assert trace.periodic is True

    # ... which still wins plain (non-periodic) dispatch on priority
    _, trace = solve_via(*_batch(m=2, n=48), registry=registry)
    assert trace.backend == "noperiodic"


def test_no_capable_backend_lists_every_rejection():
    registry = BackendRegistry(router=Router())
    registry.register(_Float64Only())
    a, b, c, d = _batch(m=2, n=64, dtype=np.float32)
    with pytest.raises(BackendError, match="f64only.*float32"):
        solve_via(a, b, c, d, registry=registry)


def test_request_validation():
    z = np.zeros((3, 16))
    request = SolveRequest.build(z, z + 2, z, z, coerced=True, k=2)
    assert (request.m, request.n, request.k) == (3, 16, 2)
    assert request.dtype == "float64"
    with pytest.raises(TypeError, match="unknown solve option"):
        SolveRequest.build(z, z + 2, z, z, coerced=True, block_size=32)
    with pytest.raises(ValueError):
        SolveRequest.build(
            np.zeros(16), np.zeros(16), np.zeros(16), np.zeros(16),
            coerced=True,
        )


def test_periodic_requests_are_one_dispatch_seam():
    # periodic is a request attribute, not a separate protocol method:
    # the same solve_via seam serves cyclic systems
    a, b, c, d = _cyclic_batch(3, 48, seed=24)
    x, trace = solve_via(a, b, c, d, periodic=True)
    ref = solve_periodic_batch(a, b, c, d)
    assert trace.periodic is True
    assert np.array_equal(x, ref)


# ------------------------------------------------------------------ traces


def test_plan_cache_hit_recorded_on_warm_solve():
    a, b, c, d = _batch(m=5, n=192, seed=8)
    repro.solve_batch(a, b, c, d, backend="engine")
    first = repro.last_trace().plan_cache
    repro.solve_batch(a, b, c, d, backend="engine")
    assert first in ("hit", "miss")
    assert repro.last_trace().plan_cache == "hit"


def test_trace_records_stages_and_timing():
    a, b, c, d = _batch(m=4, n=128)
    repro.solve_batch(a, b, c, d)
    trace = repro.last_trace()
    stage_names = [s.name for s in trace.stages]
    assert stage_names[:2] == ["validate", "prepare"]
    assert trace.total_s >= 0.0
    assert (trace.m, trace.n) == (4, 128)
    assert trace.describe()["backend"] == "engine"


def test_direct_algorithms_record_traces_too():
    a, b, c, d = _batch(m=2, n=64)
    repro.solve_batch(a, b, c, d, algorithm="thomas")
    assert repro.last_trace().backend == "direct:thomas"


def test_gpusim_trace_carries_predictions():
    a, b, c, d = _batch(m=8, n=512)
    repro.solve_batch(a, b, c, d, backend="gpusim")
    trace = repro.last_trace()
    assert trace.predicted_total_us is not None and trace.predicted_total_us > 0
    assert any(s.predicted_us is not None for s in trace.stages)


def test_clear_last_trace():
    a, b, c, d = _batch(m=2, n=64)
    repro.solve_batch(a, b, c, d)
    assert repro.last_trace() is not None
    clear_last_trace()
    assert repro.last_trace() is None


def test_instrument_before_any_solve_raises():
    backend = EngineBackend()
    with pytest.raises(RuntimeError, match="not executed"):
        backend.instrument()
