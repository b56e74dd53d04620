"""One pass of one workload in a fresh interpreter; `run.py` starts it.

The pass generates its jobs, times the set-up a CLI user pays (importing
moncatkit and its `moncat` entry point, then `builtin_fixtures(seed)`), runs
every job through `cli.main` back to back, judges each answer, and prints
one JSON line with its measurements. Per-job records live in preallocated
arrays so that the harness adds no blocks to `retained_kblocks`.

    python3 bench/worker.py --workload traces --seed 0 [--size tiny] [--trace-out FILE | --setup-only]
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from workloads import SIZES, WORKLOADS, judge, make_jobs  # noqa: E402  (sys.path[0] is BENCH)


def set_up(seed: int) -> float:
    """Time the set-up a `moncat` process pays before its first job."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import moncatkit
    import moncatkit.cli  # noqa: F401
    from moncatkit.fixtures import builtin_fixtures

    builtin_fixtures(seed=seed)
    setup_s = time.perf_counter() - start
    if not Path(moncatkit.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"moncatkit was imported from {moncatkit.__file__}, not from {SRC}")
    return setup_s


def run_pass(workload: str, seed: int, size: str, trace_out: str | None) -> dict:
    jobs = make_jobs(workload, seed, size)
    setup_s = set_up(seed)
    cli = sys.modules["moncatkit.cli"]

    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    n = len(jobs)
    latency = array.array("d", bytes(8 * n))
    codes = array.array("b", bytes(n))
    instances = array.array("q", bytes(8 * n))
    ok = bytearray(n)
    verdict_ok = bytearray(n)
    digests = bytearray(32 * n)
    crashes: dict[int, str] = {}

    gc.collect()
    blocks_before = sys.getallocatedblocks()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(job.argv))
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                code = None
                crashes[i] = type(exc).__name__
        latency[i] = time.perf_counter() - t
        text = out.getvalue()
        digests[32 * i : 32 * (i + 1)] = hashlib.sha256(text.encode("utf-8")).digest()
        codes[i] = -1 if code is None else code
        ok[i], verdict_ok[i], instances[i] = judge(job, code, text)
        del out, err, text
    gc.collect()
    retained_blocks = sys.getallocatedblocks() - blocks_before

    result = {
        "setup_s": setup_s,
        "wall_s": sum(latency),
        # on traces the guard counts queries answered instead of law instances
        "instances": sum(c != -1 for c in codes) if workload == "traces" else sum(instances),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "retained_kblocks": retained_blocks / 1000,
        "latency_ms": [x * 1000 for x in latency],
        "codes": list(codes),
        "ok": list(ok),
        "verdict_ok": list(verdict_ok),
        "sha256": [digests[32 * i : 32 * (i + 1)].hex() for i in range(n)],
        "crashes": crashes,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        tracer.stop()
        result["per_layer"] = {name: value for name, (value, _unit) in tracer.per_layer().items()}
        tracer.dump(trace_out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--trace-out", help="trace this pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true", help="time the set-up and stop")
    args = parser.parse_args()
    if not (SRC / "moncatkit" / "__init__.py").is_file():
        print(f"error: no moncatkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        result = {"setup_s": set_up(args.seed)}
    else:
        result = run_pass(args.workload, args.seed, args.size, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
