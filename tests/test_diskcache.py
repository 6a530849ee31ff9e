"""Factorization spill-to-disk tier: round-trips, sharing, eviction."""

import numpy as np
import pytest

from repro.engine import ExecutionEngine, FactorizationDiskCache
from repro.engine.diskcache import _key_filename


def _batch(m=16, n=64, seed=0, cyclic=False, dtype=np.float64):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    b = (4.0 + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    if not cyclic:
        a[:, 0] = 0.0
        c[:, -1] = 0.0
    return a, b, c, d


def test_spilled_factorization_is_shared_across_engines(tmp_path):
    a, b, c, d = _batch(seed=1)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    info: dict = {}
    eng1.solve_batch(a, b, c, d, k=0, fingerprint=True, info=info)
    assert info["factorization"] == "factored"
    ref = eng1.solve_batch(a, b, c, d, k=0, fingerprint=True)
    assert eng1.disk_cache.stores == 1
    assert len(eng1.disk_cache.files()) == 1

    # a fresh engine (empty memory cache) answers from the directory:
    # no re-elimination, identical bits
    eng2 = ExecutionEngine(cache_dir=tmp_path)
    info2: dict = {}
    x = eng2.solve_batch(a, b, c, d, k=0, fingerprint=True, info=info2)
    assert info2["factorization"] == "hit"
    assert info2["rhs_only"] is True
    assert eng2.stats.factorizations_built == 0
    assert eng2.disk_cache.hits == 1
    assert np.array_equal(x, ref)


def test_hybrid_and_cyclic_factorizations_round_trip(tmp_path):
    a, b, c, d = _batch(m=8, n=256, seed=2)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    ref_h = eng1.solve_batch(a, b, c, d, k=3, fingerprint=True)

    pa, pb, pc, pd = _batch(m=8, n=96, seed=3, cyclic=True)
    ref_p = eng1.solve_periodic(pa, pb, pc, pd, k=0, fingerprint=True)
    assert eng1.disk_cache.stores == 2

    eng2 = ExecutionEngine(cache_dir=tmp_path)
    xh = eng2.solve_batch(a, b, c, d, k=3, fingerprint=True)
    info: dict = {}
    xp = eng2.solve_periodic(pa, pb, pc, pd, k=0, fingerprint=True, info=info)
    assert eng2.stats.factorizations_built == 0
    assert info["factorization"] == "hit"
    assert np.array_equal(xh, ref_h)
    assert np.array_equal(xp, ref_p)


def test_disk_cache_is_off_by_default():
    assert ExecutionEngine().disk_cache is None


def test_size_cap_evicts_oldest_files(tmp_path):
    a, b, c, d = _batch(m=32, n=128, seed=4)
    eng = ExecutionEngine(cache_dir=tmp_path)
    eng.solve_batch(a, b, c, d, k=0, fingerprint=True)
    one_file_bytes = eng.disk_cache.nbytes()
    assert one_file_bytes > 0

    # cap at ~2.5 files: the third spill must evict the oldest
    capped = ExecutionEngine(
        cache_dir=tmp_path, disk_cache_bytes=int(2.5 * one_file_bytes)
    )
    cache = capped.disk_cache
    for seed in (5, 6, 7):
        ai, bi, ci, di = _batch(m=32, n=128, seed=seed)
        capped.solve_batch(ai, bi, ci, di, k=0, fingerprint=True)
    assert cache.evictions >= 1
    assert cache.nbytes() <= cache.max_bytes
    assert len(cache.files()) < 4  # seed-4's file was oldest → gone first


def test_torn_cache_file_is_dropped_not_fatal(tmp_path):
    a, b, c, d = _batch(seed=8)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    eng1.solve_batch(a, b, c, d, k=0, fingerprint=True)
    path = eng1.disk_cache.files()[0]
    with open(path, "wb") as fh:
        fh.write(b"not an npz")

    eng2 = ExecutionEngine(cache_dir=tmp_path)
    info: dict = {}
    x = eng2.solve_batch(a, b, c, d, k=0, fingerprint=True, info=info)
    # torn file: re-factored, file replaced by a good one
    assert info["factorization"] == "factored"
    assert eng2.stats.factorizations_built == 1
    assert np.isfinite(x).all()
    eng3 = ExecutionEngine(cache_dir=tmp_path)
    eng3.solve_batch(a, b, c, d, k=0, fingerprint=True)
    assert eng3.stats.factorizations_built == 0


def test_cache_filenames_are_digest_named():
    key = (16, 64, "<f8", 0, "", "thomas", True, "ab" * 16)
    name = _key_filename(key)
    assert name.startswith("ab" * 16)
    assert "16x64" in name and "float64" in name and "cyclic" in name
    assert name.endswith(".npz")
    # a LAPACK factorization of the same coefficients never aliases it
    lapack = _key_filename(key[:5] + ("lapack",) + key[6:])
    assert lapack != name and "lapack" in lapack


def test_disk_cache_rejects_bad_cap(tmp_path):
    with pytest.raises(ValueError, match="max_bytes"):
        FactorizationDiskCache(tmp_path, max_bytes=0)


#: The spill format: the ``_pack`` key names of every factorization
#: kind.  Files already on disk use these names, so they are frozen.
SPILL_KEYS = {
    "thomas": ["kind", "ta", "cp", "denom"],
    "gttrf": ["kind", "n", "dl", "d", "du", "du2", "ipiv", "zero_pivots"],
    "hybrid": [
        "kind", "k", "lvl0_k1", "lvl0_k2", "lvl1_k1", "lvl1_k2",
        "red_a", "red_cp", "red_inv_denom",
    ],
    "cyclic": [
        "kind", "q", "w", "scale", "singular",
        "core_kind", "core_ta", "core_cp", "core_denom",
    ],
    "penta": ["kind", "te", "beta", "alpha", "gamma", "delta"],
    "blockthomas": ["kind", "A", "Cp", "piv"],
}


def _spill_kind(kind):
    """``(key, factorization, workspace, d)`` for one spilled kind."""
    from repro.backends.request import SolveRequest
    from repro.engine import PreparedWorkspace
    from repro.workloads.generators import random_block_batch, random_penta_batch

    eng = ExecutionEngine()
    if kind in ("penta", "blockthomas"):
        if kind == "penta":
            e, a, b, c, f, d = random_penta_batch(6, 40, seed=21)
            req = SolveRequest.build(a, b, c, d, e=e, f=f, fingerprint=True)
        else:
            A, B, C, d = random_block_batch(6, 10, block_size=2, seed=22)
            req = SolveRequest.build(A, B, C, d, fingerprint=True)
        session = eng.bind(req)
        key = eng._fact_key(session.plan, "cd" * 16)
        return key, session.fact, None, d
    a, b, c, d = _batch(m=6, n=40, seed=23, cyclic=kind == "cyclic")
    opts = {"thomas": dict(k=0), "hybrid": dict(k=2), "cyclic": dict(k=0, periodic=True)}
    handle = eng.prepare(a, b, c, **opts.get(kind, {}))
    key = eng._fact_key(handle.plan, "cd" * 16, periodic=kind == "cyclic")
    return key, handle.factorization, PreparedWorkspace(handle.plan), d


@pytest.mark.parametrize("kind", sorted(SPILL_KEYS))
def test_spill_format_is_pinned_and_round_trips(kind, tmp_path):
    from repro.engine.diskcache import _pack

    key, fact, ws, d = _spill_kind(kind)
    payload: dict = {}
    _pack(fact, payload)
    assert str(payload["kind"]) == kind
    assert sorted(payload) == sorted(SPILL_KEYS[kind])

    cache = FactorizationDiskCache(tmp_path)
    cache.store(key, fact)
    loaded = cache.load(key)
    assert type(loaded) is type(fact) and loaded.nbytes == fact.nbytes
    want, got = np.empty_like(d), np.empty_like(d)
    fact.solve_shard(ws, d, want, 0, d.shape[0])
    loaded.solve_shard(ws, d, got, 0, d.shape[0])
    assert np.array_equal(got, want)
