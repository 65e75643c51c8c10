"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workload strip --workload pairs --seeds 10
    python3 bench/collect.py --seeds 3 --trace 1 --out summary.json

For each workload and metric it reports the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
interquartile range as a share of the median.  An end-to-end spread that is
not below a third of the metric's bound in BENCHMARK.json is flagged.  Runs
one seed at a time, from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else None,
        "values": values,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        values, failed, record = {}, 0, None
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            record = record or next(
                json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("run_record ")
            )
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        rows = {name: summarise(v) for name, v in values.items()}
        summary["workloads"][workload] = {"failed": failed, "run_record": record, "metrics": rows}
        ok &= failed == 0
        for name, row in rows.items():
            flag = ""
            if name in bounds and name != "setup_s" and not row["spread"] < bounds[name] / 3:
                flag, ok = "  <-- spread not below bound/3", False
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"{workload:8s} {name:38s} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {spread}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
