"""The four benchmark workloads and their correctness checks.

Every input is derived from the ``--seed`` argument through
:func:`op_seed`; the library only ever sees the generated arrays.
Each workload is set up on a freshly constructed engine registered in
place of the stock ``"engine"`` backend, so set-up time includes
engine construction and no cache state leaks between set-ups, phases
or workloads.

* ``oneshot-small`` — default-route ``repro.solve_batch`` cycling
  through the paper's small-M shapes (hybrid tiled-PCR + p-Thomas,
  k = 8, 8, 6); fresh coefficients every call.
* ``oneshot-large`` — default-route ``solve_batch`` at 1024×1024, the
  cold ``k = 0`` path (validation, fingerprint, transposed Thomas).
* ``adi-2d`` — ``ADIDiffusion2D.step`` at 1024×1024 on sessions bound
  once: the many-right-hand-side use of the engine.
* ``service-small`` — a closed loop of 64 asyncio callers submitting
  independent 8×1024 fragments to a default ``SolveService``.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.backends import EngineBackend, get_backend, register_backend
from repro.baselines.mkl_proxy import mkl_sequential_proxy
from repro.engine import ExecutionEngine
from repro.workloads.generators import random_batch
from repro.workloads.timestepping import ADIDiffusion2D

from perfbench.trace import Tracer

__all__ = ["WORKLOADS", "PhaseResult", "op_seed", "residual"]

#: scaled residual ‖Ax−d‖∞ / (‖A‖∞‖x‖∞ + ‖d‖∞) accepted for float64
RESIDUAL_TOL = 1e-12
#: relative drift of the ADI field's total mass accepted per run
MASS_TOL = 1e-9
#: relative agreement of the first ADI step with the dense reference
ADI_REF_TOL = 1e-10

MEASURE, WARMUP = 0, 1


def op_seed(seed: int, stream: int, index: int) -> int:
    """Generator seed of input ``index`` in ``stream`` for run ``seed``.

    Stream 0 feeds measured ops; stream ``WARMUP + rep`` feeds the
    warm-up ops of set-up repetition ``rep``, so warm-up coefficients
    never coincide with measured ones.
    """
    return (seed << 40) | (stream << 32) | index


def residual(a, b, c, d, x) -> np.ndarray:
    """Per-row scaled residual of the padded tridiagonal systems."""
    r = b * x - d
    r[:, 1:] += a[:, 1:] * x[:, :-1]
    r[:, :-1] += c[:, :-1] * x[:, 1:]
    scale = (
        (np.abs(a) + np.abs(b) + np.abs(c)).max(axis=1) * np.abs(x).max(axis=1)
        + np.abs(d).max(axis=1)
    )
    return np.abs(r).max(axis=1) / scale


def digest(x: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(x)).digest()


@dataclass
class PhaseResult:
    """What one measured phase produced."""

    latencies: list = field(default_factory=list)  #: seconds per op
    labels: list = field(default_factory=list)  #: shape label per op
    units: list = field(default_factory=list)  #: (ops, seconds) per timed region
    failed: int = 0
    shed: int = 0
    errors: list = field(default_factory=list)  #: first few failure reasons
    digests: list = field(default_factory=list)  #: output digest per op
    mismatches: int = 0  #: ops whose output differs from the other phase

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        """Seconds the timed regions covered."""
        return sum(seconds for _, seconds in self.units)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


class Workload:
    """Shared set-up plumbing: a fresh engine per set-up."""

    name = ""
    #: ops per block of the tail-latency estimate (p90 per block of 100)
    tail_block = 100

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self.engine: ExecutionEngine | None = None
        self._stock = get_backend("engine")

    def fresh_engine(self) -> ExecutionEngine:
        if self.engine is not None:
            self.engine.shutdown()
        self.engine = ExecutionEngine()
        register_backend(EngineBackend(self.engine), replace=True)
        return self.engine

    def warmup_inputs(self, rep: int):
        """Warm-up inputs of set-up ``rep``, generated outside the timer."""
        return None

    def setup(self, rep: int, warm) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()
        register_backend(self._stock, replace=True)


class SerialWorkload(Workload):
    """One caller, one op at a time: generate → timed call → check."""

    #: the paper's CPU baseline, run on the same inputs in traced runs
    yardstick = None

    def make(self, i: int):
        """Inputs of measured op ``i`` (untimed)."""
        raise NotImplementedError

    def run(self, inputs):
        """The timed call; returns the output to check."""
        raise NotImplementedError

    def check(self, i: int, inputs, out) -> str | None:
        """Failure reason, or ``None`` when ``out`` is correct."""
        raise NotImplementedError

    def label(self, inputs) -> str:
        return self.name

    def measure(self, seconds: float, tracer=None, expect=None,
                keep_digests=False) -> PhaseResult:
        res = PhaseResult()
        traced = tracer is not None
        spans = tracer if traced else Tracer()  # an idle tracer records nothing
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            if expect is not None and i >= len(expect):
                break
            inputs = self.make(i)
            label = self.label(inputs)
            out, err = None, None
            spans.active = traced
            with spans.span("op", op=i, shape=label):
                t0 = time.perf_counter()
                try:
                    out = self.run(inputs)
                except Exception as exc:  # counted, run continues
                    err = f"op {i}: {exc!r}"
                t1 = time.perf_counter()
            if traced and self.yardstick is not None:
                with spans.span("baselines.lapack", op=i, shape=label):
                    self.yardstick(inputs)
            spans.active = False
            res.latencies.append(t1 - t0)
            res.labels.append(label)
            res.units.append((1, t1 - t0))
            if err is None:
                err = self.check(i, inputs, out)
            if keep_digests or expect is not None:
                h = digest(out) if err is None else None
                res.digests.append(h)
                if expect is not None and err is None and h != expect[i]:
                    res.mismatches += 1
                    err = f"op {i}: traced output differs from untraced"
            if err is not None:
                res.fail(err)
            i += 1
        return res


class OneShot(SerialWorkload):
    """Default-route ``solve_batch`` calls on never-seen coefficients."""

    def __init__(self, seed: int, shapes):
        super().__init__(seed)
        self.shapes = shapes

    def _batch(self, stream: int, i: int):
        m, n = self.shapes[i % len(self.shapes)]
        return random_batch(m, n, seed=op_seed(self.seed, stream, i))

    def warmup_inputs(self, rep: int):
        return [self._batch(WARMUP + rep, j) for j in range(len(self.shapes))]

    def setup(self, rep: int, warm) -> None:
        self.fresh_engine()
        for a, b, c, d in warm:
            repro.solve_batch(a, b, c, d)

    def make(self, i: int):
        return self._batch(MEASURE, i)

    def run(self, inputs):
        return repro.solve_batch(*inputs)

    def check(self, i: int, inputs, out) -> str | None:
        worst = float(residual(*inputs, out).max())
        if not worst <= RESIDUAL_TOL:
            return f"op {i}: scaled residual {worst:.3g} > {RESIDUAL_TOL:g}"
        return None

    def label(self, inputs) -> str:
        m, n = inputs[1].shape
        return f"{m}x{n}"

    @staticmethod
    def yardstick(inputs) -> None:
        mkl_sequential_proxy(*inputs, check=False)


class OneShotSmall(OneShot):
    name = "oneshot-small"

    def __init__(self, seed: int):
        super().__init__(seed, ((1, 65536), (8, 1024), (128, 1024)))


class OneShotLarge(OneShot):
    name = "oneshot-large"

    def __init__(self, seed: int):
        super().__init__(seed, ((1024, 1024),))


class Adi2D(SerialWorkload):
    """Peaceman–Rachford ADI steps on sessions bound at set-up."""

    name = "adi-2d"
    size = 1024
    alpha, dt = 1.0, 1e-5

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(op_seed(seed, MEASURE, 0))
        self.u0 = 1.0 + rng.random((self.size, self.size))
        self.mass0 = float(self.u0.sum())
        self.sim: ADIDiffusion2D | None = None

    def setup(self, rep: int, warm) -> None:
        self.fresh_engine()
        if self.sim is not None:
            self.sim.close()
        # a copy: the simulator steps its initial field in place
        self.sim = ADIDiffusion2D(
            self.u0.copy(), self.alpha, self.dt, dx=1.0 / self.size
        )
        self.sim.step()

    def make(self, i: int):
        # the first measured step is compared against the dense reference
        return self.sim.u.copy() if i == 0 else None

    def run(self, inputs):
        return self.sim.step()

    def check(self, i: int, inputs, out) -> str | None:
        if not np.isfinite(out).all():
            return f"step {i}: non-finite field"
        drift = abs(float(out.sum()) - self.mass0) / self.mass0
        if not drift <= MASS_TOL:
            return f"step {i}: mass drift {drift:.3g} > {MASS_TOL:g}"
        if inputs is not None:
            ref = self.sim.reference_step(inputs)
            err = float(np.abs(out - ref).max() / np.abs(ref).max())
            if not err <= ADI_REF_TOL:
                return f"step {i}: {err:.3g} from dense reference"
        return None

    def label(self, inputs) -> str:
        return f"{self.size}x{self.size}"

    def close(self) -> None:
        if self.sim is not None:
            self.sim.close()
        super().close()


class ServiceSmall(Workload):
    """Closed loop: 64 callers, each awaiting its reply before resubmitting.

    Fragments are generated a round at a time outside the timed region
    (``ROUND`` requests, four per caller), so the loop's wall time holds
    only submission, coalescing, dispatch and delivery.  After each
    round every fragment is compared bitwise against one ``k = 0``
    solve of the round's stacked fragments on a separate engine — the
    service's bitwise contract makes that identical to each fragment's
    solo ``k = 0`` solve — and the stacked reference is checked by its
    residual.
    """

    name = "service-small"
    callers = 64
    m, n = 8, 1024
    ROUND = 256
    tail_block = 1000  # p99 per block

    def __init__(self, seed: int):
        super().__init__(seed)
        self.loop = asyncio.new_event_loop()
        self.service: repro.SolveService | None = None
        self.reference = ExecutionEngine()

    def _fragments(self, stream: int, index: int, count: int):
        a, b, c, d = random_batch(
            count * self.m, self.n, seed=op_seed(self.seed, stream, index)
        )
        return (a, b, c, d), [
            tuple(v[j * self.m:(j + 1) * self.m] for v in (a, b, c, d))
            for j in range(count)
        ]

    def warmup_inputs(self, rep: int):
        return self._fragments(WARMUP + rep, 0, self.callers)[1]

    def setup(self, rep: int, warm) -> None:
        self.fresh_engine()
        self.loop.run_until_complete(self._setup(warm))

    async def _setup(self, warm) -> None:
        if self.service is not None:
            await self.service.close()
        self.service = repro.SolveService()
        await asyncio.gather(*(self.service.submit(*f) for f in warm))

    async def _round(self, frags, base: int, spans, res: PhaseResult, outs):
        service = self.service
        todo = iter(range(len(frags)))
        lat = [0.0] * len(frags)

        async def caller():
            for j in todo:
                # the key matches the request to the dispatch that served it
                key = float(frags[j][3][0, 0])
                with spans.span("service.request", op=base + j, key=key):
                    t0 = time.perf_counter()
                    outs[j] = await self._submit(service, frags[j], base + j, res)
                    lat[j] = time.perf_counter() - t0

        t0 = time.perf_counter()
        await asyncio.gather(*(caller() for _ in range(self.callers)))
        res.units.append((len(frags), time.perf_counter() - t0))
        res.latencies.extend(lat)
        res.labels.extend([f"{self.m}x{self.n}"] * len(frags))

    @staticmethod
    async def _submit(service, frag, op: int, res: PhaseResult):
        try:
            return await service.submit(*frag)
        except repro.ServiceOverloaded:
            res.shed += 1
            res.fail(f"request {op}: shed")
        except Exception as exc:  # counted, run continues
            res.fail(f"request {op}: {exc!r}")
        return None

    def measure(self, seconds: float, tracer=None, expect=None,
                keep_digests=False) -> PhaseResult:
        res = PhaseResult()
        traced = tracer is not None
        spans = tracer if traced else Tracer()  # an idle tracer records nothing
        deadline = time.perf_counter() + seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline:
            base = r * self.ROUND
            if expect is not None and base >= len(expect):
                break
            stacked, frags = self._fragments(MEASURE, r, self.ROUND)
            outs = [None] * len(frags)
            spans.active = traced
            self.loop.run_until_complete(self._round(frags, base, spans, res, outs))
            spans.active = False
            self._verify(stacked, outs, base, res, expect, keep_digests)
            r += 1
        return res

    def _verify(self, stacked, outs, base, res, expect, keep_digests) -> None:
        ref = self.reference.solve_batch(*stacked, k=0)
        rows_ok = residual(*stacked, ref) <= RESIDUAL_TOL
        for j, x in enumerate(outs):
            lo = j * self.m
            ok = False
            if x is None:
                pass  # shed or raised: already counted as failed
            elif not rows_ok[lo:lo + self.m].all():
                res.fail(f"request {base + j}: reference residual too large")
            elif not np.array_equal(x, ref[lo:lo + self.m]):
                res.fail(f"request {base + j}: not bitwise equal to k=0 solve")
            else:
                ok = True
            if keep_digests or expect is not None:
                h = digest(x) if ok else None
                res.digests.append(h)
                if expect is not None and ok and h != expect[base + j]:
                    res.mismatches += 1
                    res.fail(f"request {base + j}: traced output differs")

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
        self.loop.close()
        self.reference.shutdown()
        super().close()


WORKLOADS = {
    w.name: w for w in (OneShotSmall, OneShotLarge, Adi2D, ServiceSmall)
}
