"""moncatkit benchmark: seeded closed-loop workloads against the `moncat` CLI.

Measure one workload (run from the repository root):

    python3 bench/run.py --workload axioms --seed 0 --seconds 35 --trace 0

Each pass runs in a fresh interpreter (`bench/worker.py`), one at a time,
so set-up is paid the way a CLI user pays it and all load comes from one
process with no extra threads. Passes repeat until the next one would end
after `--seconds`, with at least two. `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics plus `trace_overhead_s`. The last line of stdout is one
JSON object; the full result, with a sha256 of every job's stdout, goes to
`bench/out/`.

List the jobs whose output bytes differ between two result files:

    python3 bench/run.py --compare bench/out/A.json bench/out/B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracer import PER_LAYER  # noqa: E402
from workloads import SIZES, WORKLOADS, make_jobs  # noqa: E402

MIN_PASSES = 2
# Extra fresh interpreters that only set up, so that the setup_s median
# rests on more samples than the few passes a run has time for.
SETUP_SAMPLES = 5
# Every run must end within 180 s; a pass is not started past this point.
HARD_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("instances", "count"),
    ("instances_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("retained_kblocks", "kblocks"),
)


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, size: str, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--size", size,
           *flags]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the worker
        raise BenchError(f"a {workload} pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: int, size: str, trace: bool) -> tuple[list, list, list]:
    """Set-up samples and untraced passes, or pairs of untraced and traced passes."""
    deadline = time.monotonic() + HARD_LIMIT_S
    setups = [] if trace else [
        run_worker(workload, seed, size, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)
    ]
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        round_start = time.monotonic()
        plain.append(run_worker(workload, seed, size, deadline))
        if trace:
            path = OUT / f"trace-{workload}-seed{seed}-{size}-pass{len(traced)}.json"
            result = run_worker(workload, seed, size, deadline, "--trace-out", str(path))
            result["trace_file"] = str(path.relative_to(ROOT))
            traced.append(result)
        now = time.monotonic()
        last = now - round_start
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and (now + last > start + seconds or now + 1.5 * last > deadline):
            return setups, plain, traced


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(setups: list[float], passes: list[dict]) -> dict[str, dict]:
    """Counts, memory and set-up are medians. Timings come from the run's
    slowest pass: the machine these figures come from (a shared VM) runs at
    its normal speed most of the time, with fast spells of tens of seconds
    that make a run's median pass flip between two speeds, while the
    slowest pass tracks the normal speed."""
    slowest = max(passes, key=lambda p: p["wall_s"])
    latencies = slowest["latency_ms"]
    per_pass = {
        "setup_s": setups + [p["setup_s"] for p in passes],
        "instances": [p["instances"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "retained_kblocks": [p["retained_kblocks"] for p in passes],
    }
    timing_samples = f"slowest of {len(passes)} passes, {len(latencies)} jobs"
    metrics = {}
    for name, unit in END_TO_END:
        if name in per_pass:
            q1, median, q3 = quartiles(per_pass[name])
            metrics[name] = {"value": median, "unit": unit, "samples": len(per_pass[name]), "q1": q1, "q3": q3}
        elif name == "wall_s":
            metrics[name] = {"value": slowest["wall_s"], "unit": unit, "samples": timing_samples}
        elif name == "instances_per_s":
            metrics[name] = {"value": slowest["instances"] / slowest["wall_s"], "unit": unit, "samples": timing_samples}
        else:
            p = 50 if name == "query_p50_ms" else 90
            metrics[name] = {"value": percentile(latencies, p), "unit": unit, "samples": timing_samples}
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, dict], bool]:
    metrics = {}
    for name, unit, kind, _selector in PER_LAYER:
        values = [t["per_layer"][name] for t in traced]
        value = values[0] if kind != "self_s" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit, "samples": len(values)}
    overhead = statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain)
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s", "samples": len(traced)}
    counts_repeat = all(
        t["per_layer"][name] == traced[0]["per_layer"][name]
        for t in traced
        for name, _unit, kind, _selector in PER_LAYER
        if kind == "calls"
    )
    return metrics, counts_repeat


def judge_run(workload: str, seed: int, size: str, passes: list[dict]) -> dict:
    """Correctness over every pass: known answers, and identical bytes on every pass."""
    jobs = make_jobs(workload, seed, size)
    attempted = failed = 0
    verdicts_ok = True
    failed_kinds: Counter = Counter()
    for p in passes:
        for job, ok, verdict in zip(jobs, p["ok"], p["verdict_ok"]):
            attempted += 1
            verdicts_ok &= bool(verdict)
            if not ok:
                failed += 1
                failed_kinds[job.kind] += 1
    first = passes[0]
    stable = all(p["sha256"] == first["sha256"] and p["codes"] == first["codes"] for p in passes)
    records = [
        {"index": i, "kind": job.kind, "argv": list(job.argv), "expected_code": job.code,
         "code": code, "ok": bool(ok), "sha256": digest}
        for i, (job, code, ok, digest) in enumerate(zip(jobs, first["codes"], first["ok"], first["sha256"]))
    ]
    return {
        "correct": verdicts_ok and stable,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failed_kinds": dict(sorted(failed_kinds.items())),
        "stdout_identical_across_passes": stable,
        "crashes": [p["crashes"] for p in passes if p["crashes"]],
        "jobs": records,
    }


def measure(args) -> int:
    if not (ROOT / "src" / "moncatkit" / "__init__.py").is_file():
        print(f"error: no moncatkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups, plain, traced = run_passes(args.workload, args.seed, args.seconds, args.size, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    verdict = judge_run(args.workload, args.seed, args.size, plain + traced)
    e2e = end_to_end(setups, plain)
    layers, counts_repeat = per_layer(plain, traced) if args.trace else ({}, True)
    verdict["correct"] = verdict["correct"] and counts_repeat
    reported = layers if args.trace else e2e
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": plain[0]["numpy"],
            "nproc": os.cpu_count(),
        },
        "end_to_end": e2e,
        "per_layer": layers,
        "calls_repeat_across_traced_passes": counts_repeat,
        "setup_only_s": setups,
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "instances", "peak_rss_mb", "retained_kblocks", "latency_ms")}
                   for p in plain],
        "trace_files": [t["trace_file"] for t in traced],
        **verdict,
    }
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    print(f"{'metric':32} {'value':>16} {'unit':8} samples")
    for name, m in {**e2e, **layers}.items():
        print(f"{name:32} {m['value']:16.6g} {m['unit']:8} {m['samples']}")
    print(f"{'failed_share':32} {verdict['failed_share']:16.6g} {'ratio':8} {verdict['attempted']} jobs")
    for kind, count in verdict["failed_kinds"].items():
        print(f"  missed known answer: {kind} x{count}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in reported.items()},
    }))
    return 0


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if (a["workload"], a["seed"], a["size"]) != (b["workload"], b["seed"], b["size"]):
        print("error: the result files are not for the same workload, seed and size", file=sys.stderr)
        return 2
    differ = [
        (ja, jb) for ja, jb in zip(a["jobs"], b["jobs"])
        if ja["argv"] != jb["argv"] or ja["sha256"] != jb["sha256"]
    ]
    for ja, jb in differ:
        print(f"job {ja['index']} ({ja['kind']}): {ja['sha256'][:16]} vs {jb['sha256'][:16]}  "
              f"moncat {shlex.join(ja['argv'])}")
    print(f"{len(differ)} of {len(a['jobs'])} jobs differ in stdout bytes")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="moncatkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35, help="stop starting passes after this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny: the smoke-test inputs")
    parser.add_argument("--compare", nargs=2, metavar="RESULT", help="list jobs whose stdout differs")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
