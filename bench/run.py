"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload strip --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The launcher pins BLAS/OpenMP pools
to one thread, times `SETUP_RUNS` fresh interpreters that import sharpmart
and build the workload's inputs (`setup_s`, the median), then runs one client
process (`client.py`) for the timed closed loop.  Every time reported is
scaled to a reference host speed measured just before and after it
(`hostspeed.py`); the raw wall medians are in the `run_info` line.  The last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer ones with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
CLIENT_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "job_s_p50": "s",
    "job_s_tail": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("strip", "pairs", "special")
PINNED = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def client_env(src):
    env = dict(os.environ)
    env.update(dict.fromkeys(PINNED, "1"))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, env, timeout):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited with code {proc.returncode}")
    return out


def result_line(client_result, setup_times, trace):
    """The final JSON object: the client's counts plus its metrics with
    units, and `setup_s` when end-to-end metrics are reported."""
    if trace:
        from spans import PER_LAYER, per_layer_unit

        values = client_result["metrics"]
        units = {k: per_layer_unit(k) for k in PER_LAYER}
    else:
        values = dict(client_result["metrics"], setup_s=statistics.median(setup_times))
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {
        "correct": client_result["correct"],
        "attempted": client_result["attempted"],
        "failed": client_result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sharpmart", "__init__.py")):
        print("bench/run.py: no src/sharpmart here; run it from the root of a sharpmart checkout", file=sys.stderr)
        return 2
    env = client_env(src)
    client = [sys.executable, os.path.join(HERE, "client.py"), "--workload", args.workload, "--seed", str(args.seed)]

    def timed(cmd):
        t0 = time.perf_counter()
        run_child(cmd, env, timeout=60)
        return time.perf_counter() - t0

    reference = [sys.executable, *hostspeed.REFERENCE_INTERPRETER]
    setup_times, setup_walls = [], []
    slowness = timed(reference) / hostspeed.REFERENCE_INTERPRETER_S
    for _ in range(SETUP_RUNS):
        setup_walls.append(timed(client + ["--setup-only"]))
        before, slowness = slowness, timed(reference) / hostspeed.REFERENCE_INTERPRETER_S
        setup_times.append(hostspeed.scaled(setup_walls[-1], before, slowness))

    out = run_child(
        client + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, CLIENT_TIMEOUT_S
    )
    client_result = json.loads(out.strip().splitlines()[-1])
    info = client_result["info"]
    info["setup_runs"] = SETUP_RUNS
    info["wall_setup_s_p50"] = statistics.median(setup_walls)
    print("run_record " + json.dumps(info.pop("record"), sort_keys=True))
    print("run_info " + json.dumps(info, sort_keys=True))
    result = result_line(client_result, setup_times, args.trace)
    n = info["jobs"]
    samples = {
        "job_s_p50": f"median of {n} jobs",
        "job_s_tail": f"p{info.get('tail_pct', 0):.1f} of {n} jobs",
        "jobs_per_s": f"{n} jobs over their summed time",
        "setup_s": f"median of {SETUP_RUNS} interpreters",
        "peak_rss_mb": "client plus pool workers",
    }
    for name, m in result["metrics"].items():
        note = samples.get(name, f"{info.get('traced_jobs')} traced jobs")
        print(f"{args.workload:8s} {name:38s} {m['value']:.6g} {m['unit']} ({note})")
    print(f"{args.workload:8s} {'fail_frac':38s} {info['fail_frac']:.6g} "
          f"({info['failed']} of {info['attempted']} jobs failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
