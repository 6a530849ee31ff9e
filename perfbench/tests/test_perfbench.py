"""Tests of the benchmark itself: seeding, tracing and workload invariants.

Run from the repository root::

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402
from perfbench.bench import END_TO_END, PER_LAYER, block_tail, run, tail  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MEASURE,
    WORKLOADS,
    Adi2D,
    OneShot,
    ServiceSmall,
)


def input_digest(name: str, seed: int) -> str:
    wl = WORKLOADS[name](seed)
    try:
        if isinstance(wl, OneShot):
            arrays = [v for i in range(3) for v in wl.make(i)]
        elif isinstance(wl, Adi2D):
            arrays = [wl.u0]
        else:
            assert isinstance(wl, ServiceSmall)
            arrays = list(wl._fragments(MEASURE, 0, 4)[0])
        arrays += [v for batch in wl.warmup_inputs(0) or () for v in batch]
    finally:
        wl.close()
    h = hashlib.blake2b()
    for v in arrays:
        h.update(v.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    assert input_digest(name, 3) == input_digest(name, 3)
    assert input_digest(name, 3) != input_digest(name, 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_bitwise_equal_to_untraced(name):
    out = run(name, 1, 1.0, True, setup_repeats=1)
    result, details = out["result"], out["details"]
    assert result["correct"] and result["failed"] == 0, details["errors"]
    assert details["samples"]["traced"] >= 1
    assert details["bitwise_mismatches"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)


@pytest.mark.parametrize("name", ["oneshot-small", "oneshot-large"])
@pytest.mark.parametrize("trace", [False, True])
def test_oneshot_coefficients_are_never_seen_twice(name, trace):
    out = run(name, 2, 0.5, trace, setup_repeats=2)
    assert out["result"]["failed"] == 0
    assert out["details"]["engine"]["fingerprint_hits"] == 0


def test_stacked_reference_equals_solo_solves():
    # the service check compares fragments against one stacked k=0 solve
    wl = ServiceSmall(5)
    try:
        stacked, frags = wl._fragments(MEASURE, 0, 6)
        ref = wl.reference.solve_batch(*stacked, k=0)
    finally:
        wl.close()
    for j, frag in enumerate(frags):
        solo = repro.solve_batch(*frag, k=0)
        assert np.array_equal(solo, ref[j * wl.m:(j + 1) * wl.m])


def test_adi_steps_are_rhs_only():
    details = run("adi-2d", 1, 0.5, True, setup_repeats=1)["details"]
    assert details["steps"] >= 2
    assert details["rhs_only_steps"] == 2 * details["steps"]


def test_end_to_end_metrics_are_positive():
    result = run("oneshot-small", 1, 0.5, False, setup_repeats=2)["result"]
    assert result["correct"]
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail(range(100))
    assert value == 89 and pct == 90.0
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_block_tail_fixes_the_percentile():
    lat = [float(i % 100) for i in range(450)]
    assert block_tail(lat, 100) == (89.0, 90.0, 4)
    value, pct, blocks = block_tail(lat[:150], 100)
    assert blocks == 1 and pct == pytest.approx(100 * 140 / 150)


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adi-2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
