"""The stored-factorization protocol: one sweep interface for every kind.

Six factorization kinds back the engine's factor-once, solve-many
path (Thomas ``k = 0``, LAPACK ``?gttrf``, hybrid ``k > 0``, cyclic,
pentadiagonal, block-tridiagonal).  Each offers ``solve_shard(ws, d,
out, lo, hi)``, ``nbytes`` and the ``breakdown(ws, x, *, check)``
hook; the tests here pin that protocol, the engine's factorization
byte ledger and the banded breakdown guard.

The pin table (``data/factorization_protocol_pin.json``) records, for
one fixed call sequence per kind, what the instrumented paths publish
— stage names, every :class:`~repro.backends.trace.SolveTrace` field
except timings, the kept factorization kind and the
:class:`~repro.engine.engine.EngineStats` deltas — through one-shot
``run``, ``prepare().solve`` and bound-session ``step_once`` / ``step``
/ ``step_t`` calls.  Refactoring the dispatch behind those paths must
leave the table unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.api
from repro.backends.request import SolveRequest
from repro.core.blocktridiag import BlockThomasFactorization, block_thomas_solve_batch
from repro.core.pentadiag import PentaFactorization, pentadiag_solve_batch
from repro.core.validation import SingularSystemError
from repro.engine import ExecutionEngine, PreparedWorkspace
from repro.engine.diskcache import _pack
from repro.engine.prepared import build_factorization
from repro.workloads.generators import (
    random_batch,
    random_block_batch,
    random_penta_batch,
)

PIN_KINDS = (
    "thomas",
    "lapack",
    "hybrid",
    "cyclic",
    "cyclic-lapack",
    "cyclic-hybrid",
    "penta",
    "block",
    "block1",
)

_TRACE_FIELDS = (
    "backend", "m", "n", "dtype", "k", "k_source", "fuse", "n_windows",
    "workers", "ranks", "plan_cache", "factorization", "rhs_only",
    "periodic", "system", "decision", "predicted_total_us",
)


def _cyclic_batch(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    return a, b, c, d


def _system(kind, seed):
    """``(coefficients, d, request options, prepare options)`` of a kind."""
    if kind == "thomas":
        a, b, c, d = random_batch(6, 40, seed=seed)
        return dict(a=a, b=b, c=c), d, dict(k=0), dict(k=0)
    if kind == "lapack":
        a, b, c, d = random_batch(8, 64, seed=seed)
        return dict(a=a, b=b, c=c), d, {}, {}
    if kind == "hybrid":
        a, b, c, d = random_batch(6, 64, seed=seed)
        return dict(a=a, b=b, c=c), d, dict(k=2, fingerprint=True), dict(k=2)
    if kind.startswith("cyclic"):
        a, b, c, d = _cyclic_batch(6, 40, seed)
        opts = {"cyclic": dict(k=0), "cyclic-lapack": {}}.get(
            kind, dict(k=2, fingerprint=True)
        )
        prep = {key: v for key, v in opts.items() if key == "k"}
        return (
            dict(a=a, b=b, c=c), d,
            dict(periodic=True, **opts), dict(periodic=True, **prep),
        )
    if kind == "penta":
        e, a, b, c, f, d = random_penta_batch(5, 30, seed=seed)
        return dict(a=a, b=b, c=c, e=e, f=f), d, {}, None
    bs = 1 if kind == "block1" else 2
    A, B, C, d = random_block_batch(4, 12, block_size=bs, seed=seed)
    return dict(a=A, b=B, c=C), d, {}, None


#: Counters of pooled-workspace checkouts.  A stored cyclic solve keeps
#: its core buffer and its intermediate ``y`` in one pooled workspace, a
#: buffer layout the pin leaves free, so cyclic kinds omit them.
_POOL_FIELDS = ("workspace_bytes", "workspaces_built", "workspaces_reused")


def _line(label, engine, before, trace=None, kept="-", skip=()):
    after = dataclasses.asdict(engine.stats)
    delta = {
        k: after[k] - before[k]
        for k in after
        if after[k] != before[k] and k not in skip
    }
    parts = [label]
    if trace is not None:
        desc = trace.describe()
        parts.append("stages=" + ",".join(s["name"] for s in desc["stages"]))
        parts.append(" ".join(f"{k}={desc[k]}" for k in _TRACE_FIELDS))
    if kept != "-":
        parts.append(f"kept={type(kept).__name__ if kept is not None else None}")
    parts.append("stats=" + " ".join(f"{k}:{v}" for k, v in sorted(delta.items())))
    return " | ".join(parts)


def _record(kind):
    """Run the kind's fixed call sequence on a fresh engine."""
    coeffs, d, opts, prep = _system(kind, seed=1)
    rng = np.random.default_rng(99)
    d2 = rng.standard_normal(d.shape)
    engine = ExecutionEngine()
    skip = _POOL_FIELDS if kind.startswith("cyclic") else ()
    lines = []

    def line(label, before, trace=None, kept="-"):
        lines.append(_line(label, engine, before, trace, kept, skip))

    def request(**extra):
        return SolveRequest.build(
            coeffs["a"], coeffs["b"], coeffs["c"], d,
            e=coeffs.get("e"), f=coeffs.get("f"), **{**opts, **extra},
        )

    def run(label, **extra):
        before = dataclasses.asdict(engine.stats)
        outcome = engine.run(request(**extra))
        line(label, before, outcome.trace, outcome.factorization)

    for i in range(3):
        run(f"oneshot{i}")
    run("oneshot-w3", workers=3)
    run("oneshot-fp-off", fingerprint=False)

    if prep is not None:
        before = dataclasses.asdict(engine.stats)
        handle = engine.prepare(coeffs["a"], coeffs["b"], coeffs["c"], **prep)
        line("prepare", before)
        for label, workers in (("handle", None), ("handle-w3", 3)):
            before = dataclasses.asdict(engine.stats)
            handle.solve(d2, workers=workers)
            line(label, before, repro.last_trace())
        handle.close()

    fresh, _, _, _ = _system(kind, seed=2)
    for label, cs, extra in (
        ("bound", coeffs, {}),
        ("bound-fresh-w3", fresh, dict(workers=3)),
    ):
        before = dataclasses.asdict(engine.stats)
        session = engine.bind(
            SolveRequest.build(
                cs["a"], cs["b"], cs["c"], d,
                e=cs.get("e"), f=cs.get("f"), **{**opts, **extra},
            )
        )
        line(f"{label}.bind", before)
        for step in ("step_once", "step", "step_once-d2", "step_t"):
            before = dataclasses.asdict(engine.stats)
            if step == "step_once":
                outcome = session.step_once()
            elif step == "step_once-d2":
                outcome = session.step_once(d2)
            elif step == "step":
                session.step(d2)
                outcome = None
            elif d.ndim == 2:
                session.step_t(np.ascontiguousarray(d2.T))
                outcome = None
            else:
                continue
            line(
                f"{label}.{step}", before,
                outcome.trace if outcome else None,
                outcome.factorization if outcome else "-",
            )
        session.close()
    engine.shutdown()
    return lines


PIN_FILE = Path(__file__).parent / "data" / "factorization_protocol_pin.json"


@pytest.mark.parametrize("kind", PIN_KINDS)
def test_protocol_pin(kind):
    expected = json.loads(PIN_FILE.read_text())[kind]
    assert _record(kind) == expected


# ------------------------------------------------------- protocol per kind

KINDS = ("thomas", "gttrf", "hybrid", "cyclic", "penta", "block")


def _factorization(kind, m=7):
    """``(factorization, workspace, d)`` of one stored kind."""
    engine = ExecutionEngine()
    if kind in ("penta", "block"):
        if kind == "penta":
            e, a, b, c, f, d = random_penta_batch(m, 48, seed=7)
            return PentaFactorization.factor(e, a, b, c, f), None, d
        A, B, C, d = random_block_batch(m, 12, block_size=2, seed=8)
        return BlockThomasFactorization.factor(A, B, C), None, d
    if kind == "cyclic":
        a, b, c, d = _cyclic_batch(m, 48, 6)
        handle = engine.prepare(a, b, c, periodic=True, k=0)
    else:
        a, b, c, d = random_batch(m, 48, seed=5)
        handle = engine.prepare(a, b, c, **{"thomas": dict(k=0), "hybrid": dict(k=2)}.get(kind, {}))
        assert handle.plan.algorithm == {"gttrf": "lapack"}.get(kind, kind)
    return handle.factorization, PreparedWorkspace(handle.plan), d


@pytest.mark.parametrize("kind", KINDS)
def test_sharded_solve_shard_equals_one_sweep(kind):
    fact, ws, d = _factorization(kind)
    m = d.shape[0]
    whole = np.empty_like(d)
    fact.solve_shard(ws, d, whole, 0, m)
    sharded = np.empty_like(d)
    for lo, hi in ((0, 2), (2, 5), (5, m)):
        fact.solve_shard(ws, d, sharded, lo, hi)
    assert np.isfinite(whole).all()
    assert np.array_equal(sharded, whole)


@pytest.mark.parametrize("kind", KINDS)
def test_nbytes_is_the_bytes_held(kind):
    fact, _, _ = _factorization(kind)
    payload: dict = {}
    _pack(fact, payload)
    # every spilled array is held state, bar the kind/shape/k scalars
    held = sum(
        v.nbytes for key, v in payload.items()
        if key.rsplit("_", 1)[-1] not in ("kind", "n", "k")
    )
    assert fact.nbytes == held > 0


# ------------------------------------------------ factorization byte ledger


def _ledger_holds(engine):
    return engine.stats.factorization_bytes == sum(
        f.nbytes for f in engine._facts.values()
    )


def test_storing_one_key_twice_counts_its_bytes_once():
    engine = ExecutionEngine()
    a, b, c, _ = random_batch(16, 64, seed=3)
    plan = engine.plan_for(16, 64, np.dtype(np.float64), k=0)
    key = engine._fact_key(plan, "0" * 32)
    for _ in range(2):
        engine._store_factorization(key, build_factorization(plan, a, b, c))
    assert len(engine._facts) == 1
    assert _ledger_holds(engine)


def test_concurrent_misses_on_one_digest_keep_the_ledger():
    a, b, c, _ = random_batch(64, 1024, seed=4)
    for _ in range(10):  # the race needs two misses before either store
        engine = ExecutionEngine()
        barrier = threading.Barrier(4)

        def prepare():
            barrier.wait()
            engine.prepare(a, b, c, k=0)

        threads = [threading.Thread(target=prepare) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(engine._facts) == 1
        assert _ledger_holds(engine)


# ------------------------------------------- banded breakdown (zero pivot)


def _zero_pivot_penta():
    """``e = f = 0``, ``a = b = c = d = 1``: pivot zero at row 1."""
    m, n = 2, 8
    e, f = np.zeros((m, n)), np.zeros((m, n))
    a, b, c, d = (np.ones((m, n)) for _ in range(4))
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    return e, a, b, c, f, d


def _as_block(*arrays):
    """The same scalar system as ``B = 1`` blocks."""
    a, b, c, d = arrays
    return a[..., None, None], b[..., None, None], c[..., None, None], d[..., None]


def _banded_solvers():
    e, a, b, c, f, d = _zero_pivot_penta()
    A, B, C, D = _as_block(a, b, c, d)
    return {
        "penta": (
            lambda **kw: repro.api.gpsv_batch(e, a, b, c, f, d, **kw),
            lambda: pentadiag_solve_batch(e, a, b, c, f, d),
            lambda **kw: repro.backends.bind_via(a, b, c, d, e=e, f=f, **kw),
        ),
        "block": (
            lambda **kw: repro.api.gtsv_block_batch(A, B, C, D, **kw),
            lambda: block_thomas_solve_batch(A, B, C, D),
            lambda **kw: repro.backends.bind_via(A, B, C, D, **kw),
        ),
    }


@pytest.mark.parametrize("kind", ("penta", "block"))
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_banded_zero_pivot_raises_under_check(kind):
    api, _, _ = _banded_solvers()[kind]
    for _ in range(3):  # miss, factored and hit all run the guard
        with pytest.raises(SingularSystemError, match=r"system 0, row 1") as err:
            api()
        assert err.value.systems == (0, 1) and err.value.row == 1


@pytest.mark.parametrize("kind", ("penta", "block"))
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_banded_zero_pivot_warns_under_check_false(kind):
    api, _, _ = _banded_solvers()[kind]
    with pytest.warns(RuntimeWarning, match=r"broke down in system\(s\) \[0, 1\]"):
        x = api(check=False)
    assert (~np.isfinite(x.reshape(2, -1))).any(axis=1).all()


@pytest.mark.parametrize("kind", ("penta", "block"))
def test_banded_core_references_and_session_step_stay_unguarded(kind):
    _, core, bind = _banded_solvers()[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert not np.isfinite(core()).all()
        with bind(backend="engine") as session:
            d = session.request.d
            assert not np.isfinite(session.step(d)).all()
            with pytest.raises(SingularSystemError, match=r"row 1"):
                session.step_once()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_block_guard_names_no_row_for_wide_blocks():
    A, B, C, D = random_block_batch(3, 6, block_size=2, seed=11)
    D[1, 2] = np.inf  # a non-finite right-hand side through an unchecked call
    fact = BlockThomasFactorization.factor(A, B, C)
    x = fact.solve(D)
    with pytest.raises(SingularSystemError, match=r"system 1, row None"):
        fact.breakdown(None, x, check=True)


def _hybrid_zero_pivot(m=3, n=8):
    """``a = b = c = 1``: the hybrid route divides by a zero ``b``.

    System 0 is made dominant; systems ``1..m-1`` break down.
    """
    a, b, c, d = (np.ones((m, n)) for _ in range(4))
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b[0] = 4.0
    return a, b, c, d


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_hybrid_zero_pivot_raises_under_check(k):
    a, b, c, d = _hybrid_zero_pivot()
    engine = ExecutionEngine()
    calls = {
        "cold": lambda: repro.solve_batch(a, b, c, d, k=k, fingerprint=False),
        "cold sharded": lambda: engine.solve_batch(
            a, b, c, d, k=k, workers=2, fingerprint=False
        ),
        # miss, factored and hit: every stored-factorization sweep
        **{
            f"stored {i}": lambda: engine.solve_batch(a, b, c, d, k=k, fingerprint=True)
            for i in range(3)
        },
        "prepared": lambda: engine.prepare(a, b, c, k=k).solve(d),
    }
    for path, call in calls.items():
        with pytest.raises(SingularSystemError, match=r"hybrid elimination") as err:
            call()
        assert err.value.systems == (1, 2), path
        assert err.value.row is None, path

    with pytest.warns(RuntimeWarning, match=r"broke down in system\(s\) \[1, 2\]"):
        x = repro.solve_batch(a, b, c, d, k=k, check=False, fingerprint=False)
    assert np.isfinite(x[0]).all()
    assert not np.isfinite(x[1:]).all(axis=1).any()
