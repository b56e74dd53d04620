"""Smoke check of the benchmark itself, on the tiny inputs of every workload.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import TRACE_QUERIES, WORKLOADS, make_jobs  # noqa: E402

SEED = 3


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, repeat: int = 0) -> dict:
    """The last stdout line of one tiny run; `repeat` tells identical runs apart."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_emitted_ones():
    assert declared("end_to_end") == {name: unit for name, unit in END_TO_END}
    emitted = {name: unit for name, unit, _kind, _sel in PER_LAYER}
    emitted["trace_overhead_s"] = "s"
    assert declared("per_layer") == emitted


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = bench(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted_and_calls_repeat(workload):
    first, second = bench(workload, 1, 0), bench(workload, 1, 1)
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == declared("per_layer")
    calls = [name for name in units if name.endswith(".calls")]
    assert calls
    assert {n: first["metrics"][n]["value"] for n in calls} == {n: second["metrics"][n]["value"] for n in calls}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_instances_match_the_cli_report(workload):
    instances = bench(workload, 0)["metrics"]["instances"]["value"]
    if workload == "traces":
        assert instances == TRACE_QUERIES["tiny"]
        return
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    expected = 0
    for job in make_jobs(workload, SEED, "tiny"):
        if job.counts:
            proc = subprocess.run([sys.executable, "-m", "moncatkit.cli", *job.argv],
                                  cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            expected += json.loads(proc.stdout)["universe_size"]
    assert instances == expected
