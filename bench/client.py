"""One benchmark client: runs a workload as a closed loop and checks it.

Started by `run.py` in a fresh interpreter with `src/` on the path.  Job `j`
of a run gets seed `seed + j`; job 0 is an untimed warm-up whose output is
checked and, for the Monte Carlo workloads, rerun with one worker to check
bit-reproducibility.  Prints one JSON object on standard output; check
failures go to standard error.

    python3 bench/client.py --workload strip --seed 1 --seconds 30 --trace 0
    python3 bench/client.py --setup-only --workload strip --seed 1
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

import sharpmart
from sharpmart import mc, verify

import hostspeed
import spans
from run import PINNED, WORKLOADS

WORKERS = min(2, len(os.sched_getaffinity(0)))

# Checks use literal targets, never the library's own constants.
CATALAN = 0.915965594177219015054603514932384110774
STRIP_TARGET = {1.0: 8 * CATALAN / math.pi**2, 2.0: 1.0}  # 1/K_p^p
PAIRS_BOUND = {0.5: math.sqrt(2.0), 3.0: 27 / 16}  # sharp nonneg constant ^ p
SIGMA_GATE = 4.0

STRIP_KINDS = (("mc-strip", 1.0), ("mc-strip", 2.0), ("harmonic", 1.0), ("harmonic", 2.0))
PAIRS_PS = (0.5, 3.0)
SPECIAL_P, ORTH_P = 3.0, 1.5

# Every job of a workload does the same amount of work, so the median and
# the tail never fall between a cheap and an expensive kind of job.
SIZES = {
    "full": {"strip_n": 1 << 17, "pairs_n": 10_000, "pairs_count": 100, "uweak_n": 10_000, "orth_n": 5},
    "tiny": {"strip_n": 1 << 12, "pairs_n": 1_000, "pairs_count": 4, "uweak_n": 1_000, "orth_n": 2},
}
CYCLE = {"strip": len(STRIP_KINDS), "pairs": len(PAIRS_PS), "special": 1}
# Cores each workload keeps busy, calibrated at once (see hostspeed.py):
# `pairs` ignores `workers` today, and `special` has no pool.
CAL_PROCS = {"strip": WORKERS, "pairs": 1, "special": 1}


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # The floats that must repeat bit for bit at any worker count.
    estimate: Callable[[object], tuple] | None = None


def _strip_stats(suite, report):
    rep = report if suite == "mc-strip" else report["rectangle"]
    return rep["estimate"], rep["std_error"], rep["n"]


def check_strip(suite, p, n, out):
    ok, report = out
    est, se, got_n = _strip_stats(suite, report)
    problems = [] if ok else ["library verdict is false"]
    if got_n != n:
        problems.append(f"report n={got_n}, requested {n}")
    # a standard error this small or large means the sample was not n paths
    if not 0 < se * math.sqrt(n) < 10:
        problems.append(f"std_error {se} implausible for n={n}")
    target = STRIP_TARGET[p]
    if not abs(est - target) <= SIGMA_GATE * se:
        problems.append(f"estimate {est} more than {SIGMA_GATE} sigma from {target}")
    return problems


def check_pairs(p, n, report):
    problems = [] if report["passed"] else ["library verdict is false"]
    if report["n"] != n:
        problems.append(f"report n={report['n']}, requested {n}")
    bound = PAIRS_BOUND[p]
    if abs(report["bound"] - bound) > 1e-12 * bound:
        problems.append(f"bound {report['bound']} != {bound}")
    if not 0 < report["estimate"] <= bound:
        problems.append(f"estimate {report['estimate']} outside (0, {bound}]")
    return problems


def check_special(requested, outs):
    problems = []
    for (suite, kwargs), (ok, report) in zip(requested, outs):
        if not ok:
            problems.append(f"{suite} p={kwargs['p']}: library verdict is false")
        got_n = report.get("n_samples" if suite == "u-orth" else "n")
        if "n" in kwargs and got_n != kwargs["n"]:
            problems.append(f"{suite}: report n={got_n}, requested {kwargs['n']}")
    return problems


def make_job(workload, seed, j, size="full", workers=WORKERS) -> Job:
    sz = SIZES[size]
    if workload == "strip":
        suite, p = STRIP_KINDS[j % len(STRIP_KINDS)]
        n = sz["strip_n"]
        kwargs = dict(p=p, seed=seed + j, n=n, dt=1e-2, workers=workers)
        return Job(
            f"{suite} p={p:g}",
            lambda: verify.run_suite(suite, **kwargs),
            lambda out: check_strip(suite, p, n, out),
            lambda out: _strip_stats(suite, out[1])[:1],
        )
    if workload == "pairs":
        p = PAIRS_PS[j % len(PAIRS_PS)]
        cfg = mc.SimConfig(master_seed=seed + j, n_samples=sz["pairs_n"], workers=workers)
        count = sz["pairs_count"]
        return Job(
            f"pairs p={p:g}",
            lambda: mc.random_subordinate_pair_check(p, cfg, n_pairs=count),
            lambda rep: check_pairs(p, sz["pairs_n"] * count, rep),
            lambda rep: (rep["estimate"],),
        )
    if workload == "special":
        requested = (
            ("ode", dict(p=SPECIAL_P)),
            ("u-weak", dict(p=SPECIAL_P, seed=seed + j, n=sz["uweak_n"])),
            ("u-orth", dict(p=ORTH_P, seed=seed + j, n=sz["orth_n"])),
        )
        return Job(
            "special",
            lambda: [verify.run_suite(suite, **kw) for suite, kw in requested],
            lambda outs: check_special(requested, outs),
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def tail(times):
    """(value, percentile) of the highest percentile with at least 10 jobs
    beyond it, i.e. the 11th slowest job; never below the median."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(n - 11, n // 2)
    return ordered[idx], 100.0 * (idx + 1) / n


def _read(path):
    with open(path) as fh:
        return fh.read()


def _git_commit():
    try:
        head = _read(".git/HEAD").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(f".git/{ref}"):
            return _read(f".git/{ref}").strip()
        for line in _read(".git/packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _dist_version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def run_record(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "clients": 1,
        "workers": WORKERS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": _dist_version("mpmath"),
        "sharpmart": sharpmart.__version__,
        "commit": _git_commit(),
        "blas_env": {k: os.environ.get(k) for k in PINNED},
    }


def peak_rss_mb():
    """Client peak plus WORKERS times the largest pool-worker peak: an
    upper bound, since pool workers run at the same time."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + WORKERS * child) / 1024.0


def run(workload, seed, seconds, trace, size="full", spans_path=None):
    """Run one workload for `seconds` and return the client's result dict.

    With `trace`, the raw spans are written to `spans_path` if one is given.
    """
    cycle = CYCLE[workload]
    tracer = spans.Tracer() if trace else None
    attempted = failed = 0

    def attempt(j, job):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a failed job is counted, the loop goes on
            traceback.print_exc()
            out, problems = None, [f"raised {exc!r}"]
        else:
            problems = job.check(out)
        wall = time.perf_counter() - t0
        if problems:
            failed += 1
            for problem in problems:
                print(f"job {j} ({job.kind}): {problem}", file=sys.stderr)
        return out, wall, bool(problems)

    first = make_job(workload, seed, 0, size)
    first_out, _, first_failed = attempt(0, first)

    with hostspeed.Calibrator(CAL_PROCS[workload]) as calibrate:
        # job times at the reference host speed (see hostspeed.py)
        times = {False: [], True: []}
        walls = {False: [], True: []}
        slowness = [calibrate()]
        traced_blocks = []
        j, block = 1, 0
        start = time.perf_counter()
        while True:
            traced = bool(trace) and block % 2 == 1
            block_jobs = range(j, j + cycle)
            with tracer.installed() if traced else nullcontext():
                for j in block_jobs:
                    if traced:
                        tracer.job = j
                    _, wall, _ = attempt(j, make_job(workload, seed, j, size))
                    slowness.append(calibrate())
                    times[traced].append(hostspeed.scaled(wall, *slowness[-2:]))
                    walls[traced].append(wall)
            if traced:
                traced_blocks.append(block_jobs)
            j += 1
            block += 1
            if time.perf_counter() - start >= seconds and block >= (2 if trace else 1):
                break
        loop_s = time.perf_counter() - start

        if first.estimate is not None:
            # same job, one worker: the estimate must repeat bit for bit
            again, _, again_failed = attempt(0, make_job(workload, seed, 0, size, workers=1))
            if not (first_failed or again_failed) and first.estimate(first_out) != first.estimate(again):
                failed += 1
                print(f"job 0 ({first.kind}): not bit-identical with workers=1", file=sys.stderr)
        # before the calibration helpers are reaped, so only the pool counts
        rss_mb = peak_rss_mb()

    done = times[False] + times[True]
    info = {
        "jobs": len(done),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "wall_job_s_p50": statistics.median(walls[False] + walls[True]),
        "host_slowness_p50": statistics.median(slowness),
        "record": run_record(workload, seed, seconds, trace),
    }
    if trace:
        metrics = tracer.summary(len(times[True]), traced_blocks[0], sum(walls[True]))
        metrics["trace.overhead_frac"] = (
            statistics.median(times[True]) / statistics.median(times[False]) - 1.0
        )
        info["traced_jobs"] = len(times[True])
        if spans_path:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["name", "job", "start", "end", "parent"], "spans": tracer.spans}, fh)
    else:
        value, pct = tail(done)
        metrics = {
            "job_s_p50": statistics.median(done),
            "job_s_tail": value,
            "jobs_per_s": len(done) / sum(done),
            "peak_rss_mb": rss_mb,
        }
        info["tail_pct"] = pct
        info["loop_s"] = loop_s
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="build the inputs and exit")
    args = ap.parse_args(argv)
    if args.setup_only:
        for j in range(CYCLE[args.workload]):
            make_job(args.workload, args.seed, j)
        return 0
    spans_path = os.path.join(".bench_out", f"spans-{args.workload}-{args.seed}.json")
    result = run(args.workload, args.seed, args.seconds, args.trace, spans_path=spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
