"""Seeded job lists for the benchmark workloads, with their known answers.

A job is one in-process `moncat` invocation: an argv list for `cli.main`
plus the answer the README's exit-code contract and the law suites demand.
This module never imports moncatkit, so generating inputs costs nothing
that the timed set-up or the jobs would pay.

Workloads:
  axioms  the exhaustive axiom suite over the six shipped models, plus
          `validate` on a planted corruption of ns2 that must fail.
  lifts   the 2-functor and both adjunction suites, where the strict and
          shaped constructions (beta, transport, par_q) do the work.
  traces  a closed-loop stream of interactive coherence / strictify /
          nonstrictify queries with fresh large terms, 5% of them malformed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("axioms", "lifts", "traces")
SIZES = ("full", "tiny")

# Relative to the checkout root, which is every worker's working directory:
# the validate report names the model after the file, so an absolute path
# would make the output bytes depend on where the checkout lives.
CORRUPT_SPEC = str(Path("bench") / "fixtures" / "ns2_corrupt.json")

# Exit codes from the README: 0 all checks passed, 1 a law failed, 2 usage or
# input errors.
PASS, LAW_FAILED, INPUT_ERROR = 0, 1, 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation and its known answer.

    ``check`` names the verdict test applied to stdout on top of the exit
    code. ``counts`` marks jobs whose report `universe_size` adds to the
    workload's `instances`.
    """

    kind: str
    argv: tuple
    code: int
    check: str
    counts: bool = False


def _global(seed: int, *flags: str) -> tuple:
    return ("--seed", str(seed), "--format", "json") + flags


def axioms_jobs(seed: int, size: str) -> list[Job]:
    leaves = "5" if size == "full" else "2"
    return [
        Job("check-axioms", _global(seed, "--max-leaves", leaves, "check", "--suite", "axioms"),
            PASS, "report_ok", counts=True),
        Job("validate-corrupt", _global(seed, "validate", CORRUPT_SPEC), LAW_FAILED, "report_failed"),
    ]


def lifts_jobs(seed: int, size: str) -> list[Job]:
    # 2functor stays below --max-seq-len 4: at 4 it needs about 1 GB of
    # 6561x6561 identity matrices in mat7.
    seq2, seq_adj, leaves = ("3", "4", "5") if size == "full" else ("2", "2", "2")
    return [
        Job("check-2functor", _global(seed, "--max-seq-len", seq2, "check", "--suite", "2functor"),
            PASS, "report_ok", counts=True),
        Job("check-adjunction-str", _global(seed, "--max-seq-len", seq_adj, "check", "--suite", "adjunction-str"),
            PASS, "report_ok", counts=True),
        Job("check-adjunction-q", _global(seed, "--max-leaves", leaves, "check", "--suite", "adjunction-q"),
            PASS, "report_ok", counts=True),
    ]


# -- traces ---------------------------------------------------------------------

# At 1,000 queries the term cache (`terms._pair_cache`) of some seeds ends
# just past a dict resize (699,050 entries) and peak RSS steps by about 40 MB
# from seed to seed; at 800 every seed stays well below that step.
TRACE_QUERIES = {"full": 800, "tiny": 24}
TRACE_SIZES = {"full": (4, 64), "tiny": (4, 8)}
# Shares of the query mix. Sizes and kinds are laid out exactly (see
# `_kind_schedule`) and only then shuffled, so that two seeds differ in which
# terms are asked about, not in how much work the stream holds.
TRACE_MIX = (("coherence", 0.55), ("strictify", 0.30), ("nonstrictify", 0.10), ("malformed", 0.05))
MALFORMED_KINDS = (
    "coherence-syntax",
    "coherence-unknown-label",
    "strictify-thin3-unknown-generator",
    "strictify-ns2-unknown-object",
    "nonstrictify-syntax",
)


def _bracket(rng: random.Random, labels: list[str]) -> str:
    """A random parenthesization of the labels, in `moncat` term syntax."""
    if len(labels) == 1:
        return labels[0]
    k = rng.randint(1, len(labels) - 1)
    return f"({_bracket(rng, labels[:k])} {_bracket(rng, labels[k:])})"


def _thin3_entry(rng: random.Random) -> str:
    labels = [rng.choice("xyz") for _ in range(rng.randint(1, 2))]
    return _bracket(rng, labels)


def _coherence(rng: random.Random, seed: int, n: int) -> tuple:
    word = [rng.choice("xyz") for _ in range(n)]
    return _global(seed, "coherence", _bracket(rng, word), _bracket(rng, word), "--model", "thin3")


def _strictify_parts(rng: random.Random, n: int, model: str) -> tuple[list[str], list[str]]:
    entry = (lambda: rng.choice("IA")) if model == "ns2" else (lambda: _thin3_entry(rng))
    entries = [entry() for _ in range(n)]
    cut = rng.randint(1, n - 1)
    return entries[:cut], entries[cut:]


def _strictify(seed: int, model: str, left: list[str], right: list[str]) -> tuple:
    return _global(seed, "strictify", model, "--left", ",".join(left), "--right", ",".join(right))


def _nonstrictify_terms(rng: random.Random, n: int) -> list[str]:
    a, b = sorted(rng.sample(range(1, n), 2))
    labels = [rng.choice("IA") for _ in range(n)]
    return [_bracket(rng, labels[:a]), _bracket(rng, labels[a:b]), _bracket(rng, labels[b:])]


def _malformed(rng: random.Random, seed: int, n: int, kind: str) -> tuple:
    if kind == "coherence-syntax":
        argv = list(_coherence(rng, seed, n))
        argv[5] = argv[5][:-1]  # drop the source's closing parenthesis
        return tuple(argv)
    if kind == "coherence-unknown-label":
        word = [rng.choice("xyz") for _ in range(n)]
        word[rng.randrange(n)] = "w"
        return _global(seed, "coherence", _bracket(rng, word), _bracket(rng, word), "--model", "thin3")
    if kind == "strictify-thin3-unknown-generator":
        left, right = _strictify_parts(rng, n, "thin3")
        left[rng.randrange(len(left))] = "w"
        return _strictify(seed, "thin3", left, right)
    if kind == "strictify-ns2-unknown-object":
        left, right = _strictify_parts(rng, n, "ns2")
        right[rng.randrange(len(right))] = "B"
        return _strictify(seed, "ns2", left, right)
    if kind == "nonstrictify-syntax":
        terms = _nonstrictify_terms(rng, n)
        terms[1] = "(" + terms[1]
        return _global(seed, "nonstrictify", "ns2", *terms)
    raise ValueError(f"unknown malformed kind {kind!r}")


def _kind_schedule(count: int) -> list[str]:
    """The query kind of each size stratum, smallest first.

    Each kind takes its share of every stretch of the size range (largest
    remainder first), so that no seed hands the large sizes to one kind.
    """
    taken = {kind: 0 for kind, _share in TRACE_MIX}
    schedule = []
    for i in range(1, count + 1):
        kind = max(TRACE_MIX, key=lambda ks: ks[1] * i - taken[ks[0]])[0]
        taken[kind] += 1
        schedule.append(kind)
    return schedule


def traces_jobs(seed: int, size: str) -> list[Job]:
    rng = random.Random(seed * 1_000_003 + 17)
    count = TRACE_QUERIES[size]
    lo, hi = TRACE_SIZES[size]
    jobs: list[Job] = []
    strictify_seen = malformed_seen = 0
    for i, kind in enumerate(_kind_schedule(count)):
        # log-uniform size, one draw inside each of `count` equal slices of [log lo, log hi]
        n = max(lo, min(hi, round(math.exp(math.log(lo) + (i + rng.random()) / count * math.log(hi / lo)))))
        if kind == "coherence":
            jobs.append(Job("coherence", _coherence(rng, seed, n), PASS, "coherence"))
        elif kind == "strictify":
            model = ("ns2", "thin3")[strictify_seen % 2]
            strictify_seen += 1
            left, right = _strictify_parts(rng, n, model)
            jobs.append(Job(f"strictify-{model}", _strictify(seed, model, left, right), PASS, f"strictify-{model}"))
        elif kind == "nonstrictify":
            jobs.append(Job("nonstrictify", _global(seed, "nonstrictify", "ns2", *_nonstrictify_terms(rng, n)),
                            PASS, "nonstrictify"))
        else:
            sub = MALFORMED_KINDS[malformed_seen % len(MALFORMED_KINDS)]
            malformed_seen += 1
            jobs.append(Job(f"malformed:{sub}", _malformed(rng, seed, n, sub), INPUT_ERROR, "rejected"))
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return {"axioms": axioms_jobs, "lifts": lifts_jobs, "traces": traces_jobs}[workload](seed, size)


# -- known answers ----------------------------------------------------------------


def _seq(entries: list[str]) -> str:
    return "(" + ",".join(entries) + ")"


def judge(job: Job, code, out: str) -> tuple[bool, bool, int]:
    """Compare one job's exit code and stdout with its known answer.

    Returns ``(ok, verdict_ok, instances)``. ``ok`` means the exit code and
    output match the contract exactly. ``verdict_ok`` is the weaker claim
    that the program did not give a wrong verdict: lawful inputs pass with
    correct output, the corruption fails, and malformed input is not
    accepted. A malformed query that exits 1 instead of 2 is therefore not
    ok but keeps its verdict. ``code`` is None when `cli.main` raised.
    """
    if job.check == "rejected":
        return code == job.code and out == "", code != PASS, 0
    if code != job.code:
        return False, False, 0
    try:
        payload = json.loads(out)
    except ValueError:
        return False, False, 0
    if job.check == "report_ok":
        good = payload.get("failures") == [] and payload.get("universe_size", 0) > 0
        return good, good, payload["universe_size"] if good and job.counts else 0
    if job.check == "report_failed":
        good = bool(payload.get("failures"))
        return good, good, 0
    if job.check == "coherence":
        source, target = job.argv[5], job.argv[6]
        good = (
            payload.get("verified") is True
            and payload.get("source") == source
            and payload.get("dom") == source
            and payload.get("cod") == target
        )
        return good, good, 0
    if job.check.startswith("strictify-"):
        left, right = job.argv[7].split(","), job.argv[9].split(",")
        good = (
            payload.get("concatenation") == _seq(left + right)
            and payload.get("theta_cod") == payload.get("par_concatenation")
        )
        if job.check == "strictify-thin3":
            good = good and payload.get("theta_dom") == f"({payload['par_left']} {payload['par_right']})"
        return good, good, 0
    if job.check == "nonstrictify":
        assoc = payload.get("associator") or {}
        good = len(payload.get("operands", ())) == 3 and assoc.get("endpoints_equal") is False
        return good, good, 0
    raise ValueError(f"unknown check {job.check!r}")

