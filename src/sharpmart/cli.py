"""Command-line front end: constant tables, verification suites, and
plot-ready figure data, with reproducible seeds and machine-readable output.

Exit codes: 0 pass, 1 assertion/row failure or numerical failure (an
overflow included), 2 usage error (bad option, out-of-domain value,
unusable output directory).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .constants import kp, reference_constants, weak_constant_nonneg
from .extremal import build_section_example, ladder_delta_hint, resolve_params
from .gfun import ConstructionError
from .uweak import REGION_BOUNDARIES, EvaluationError, build_context
from .verify import SUITES, run_suite

OUT_ENV = "SHARPMART_OUT"


def _scipy_version() -> str:
    """scipy's version from its package metadata, or "absent" where scipy is
    not installed (the library does not need it): a manifest imports no
    scipy module, and `import sharpmart.cli` not even the metadata reader."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("scipy")
    except PackageNotFoundError:
        return "absent"


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int
    artifact_version: str = field(default_factory=lambda: __version__)
    python: str = field(default_factory=platform.python_version)
    numpy: str = field(default_factory=lambda: np.__version__)
    scipy: str = field(default_factory=_scipy_version)
    timestamp: str = field(
        default_factory=lambda: time.strftime(
            "%Y-%m-%dT%H:%M:%SZ",
            time.gmtime(int(os.environ.get("SOURCE_DATE_EPOCH", time.time()))),
        )
    )


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    if not os.path.isdir(out):
        raise FileNotFoundError(f"output directory does not exist: {out}")
    return out


def _write_artifact(args, name: str, text: str, manifest: RunManifest) -> str:
    path = os.path.join(_out_dir(args), name)
    with open(path, "w") as fh:
        fh.write(text)
    with open(path + ".manifest.json", "w") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")
    return path


def _emit(args, name: str, text: str, manifest: RunManifest):
    if args.out or os.environ.get(OUT_ENV):
        print(_write_artifact(args, name, text, manifest))
    else:
        sys.stdout.write(text)


def _constants_row(p: float) -> dict:
    row: dict = {"p": p}
    for label, fn in (
        ("kp", lambda: kp(p).value),
        ("weak_nonneg", lambda: weak_constant_nonneg(p).value),
        ("reference", lambda: {c.name: c.value for c in reference_constants(p)}),
    ):
        # a domain error becomes the row's error; any other exception is a bug
        try:
            row[label] = fn()
        except ValueError as exc:
            row[label] = None
            row.setdefault("errors", []).append(f"{label}: {exc}")
    row["ok"] = (
        row["kp"] is not None
        or row["weak_nonneg"] is not None
        or bool(row.get("reference"))
    )
    return row


def cmd_constants(args) -> int:
    rows = [_constants_row(p) for p in args.p]
    manifest = RunManifest(
        "constants", {"p": args.p, "format": args.format}, args.seed
    )
    if args.format == "json":
        text = json.dumps(rows, indent=2, default=str) + "\n"
        _emit(args, "constants.json", text, manifest)
    else:
        buf = io.StringIO()
        names = sorted({k for r in rows for k in r.get("reference") or {}})
        writer = csv.writer(buf)
        writer.writerow(["p", "kp", "weak_nonneg", *names, "errors"])
        for r in rows:
            ref = r.get("reference") or {}
            writer.writerow(
                [r["p"], r["kp"], r["weak_nonneg"]]
                + [ref.get(n) for n in names]
                + ["; ".join(r.get("errors", []))]
            )
        _emit(args, "constants.csv", buf.getvalue(), manifest)
    return 0 if any(r["ok"] for r in rows) else 1


def _single_p(args):
    """The one exponent `verify` and `figures` take, or None if not given."""
    if args.p and len(args.p) > 1:
        raise ValueError(f"{args.command} takes --p at most once, got {len(args.p)}")
    return args.p[0] if args.p else None


def cmd_verify(args) -> int:
    kwargs = {"seed": args.seed, "workers": args.workers}
    p = _single_p(args)
    if p is not None:  # otherwise the suite's own default applies
        kwargs["p"] = p
    if args.n is not None:
        if "n" not in inspect.signature(SUITES[args.suite]).parameters:
            raise ValueError(f"suite {args.suite!r} takes no --n")
        kwargs["n"] = args.n
    ok, report = run_suite(args.suite, **kwargs)
    report["ok"] = ok
    manifest = RunManifest("verify", {"suite": args.suite, **kwargs}, args.seed)
    _emit(args, f"verify_{args.suite}.json", json.dumps(report, indent=2, default=float) + "\n", manifest)
    return 0 if ok else 1


def _regions_csv(p: float) -> str:
    ctx = build_context(p)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["region_a", "region_b", "x", "y"])
    for ra, rb, xs, ys in REGION_BOUNDARIES(ctx, 400):
        for x, y in zip(xs, ys):
            writer.writerow([ra, rb, f"{x:.12g}", f"{y:.12g}"])
    return buf.getvalue()


def _trajectories_csv(p: float, x0: float, delta_hint: float) -> str:
    params = resolve_params(p, x0, delta_hint)
    X, Y = build_section_example(params)
    fine = np.asarray(X.final().bounds)
    mids = (fine[:-1] + fine[1:]) / 2
    # four representative sample points spread over the final partition
    picks = [mids[0], mids[len(mids) // 3], mids[2 * len(mids) // 3], mids[-1]]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["trajectory", "step", "omega_lo", "omega_hi", "X", "Y"])
    for j, om in enumerate(picks):
        for n, (sx, sy) in enumerate(zip(X.steps, Y.steps)):
            i = sx.index(om)
            writer.writerow(
                [j, n, f"{sx.bounds[i]:.12g}", f"{sx.bounds[i + 1]:.12g}",
                 f"{sx.values[i]:.12g}", f"{sy.values[i]:.12g}"]
            )
    return buf.getvalue()


def cmd_figures(args) -> int:
    p = _single_p(args)
    p = 3.0 if p is None else p
    if args.which == "regions":
        text = _regions_csv(p)
        name = f"regions_p{p:g}.csv"
        params = {"which": "regions", "p": p}
    else:
        x0 = args.x if args.x is not None else 1 / (8 * p)
        delta = args.delta if args.delta is not None else ladder_delta_hint(p)
        text = _trajectories_csv(p, x0, delta)
        name = f"trajectories_p{p:g}.csv"
        params = {"which": "trajectories", "p": p, "x": x0, "delta": delta}
    manifest = RunManifest("figures", params, args.seed)
    _emit(args, name, text, manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharpmart",
        description="Sharp martingale inequality constants, checks and figure data.",
    )

    def common(sub):
        sub.add_argument(
            "--p", type=float, action="append", help="exponent (repeatable for constants)"
        )
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--out", default=None, help=f"output dir (default ${OUT_ENV})")

    subs = parser.add_subparsers(dest="command", required=True)
    sc = subs.add_parser("constants", help="table of sharp constants")
    common(sc)
    sc.add_argument("--format", choices=["csv", "json"], default="json")
    sc.set_defaults(func=cmd_constants)

    sv = subs.add_parser("verify", help="run a verification suite")
    sv.add_argument("suite", choices=sorted(SUITES))
    common(sv)
    sv.add_argument("--n", type=int, default=None, help="sample count")
    sv.add_argument("--workers", type=int, default=1, help="threads of the strip walk")
    sv.set_defaults(func=cmd_verify)

    sf = subs.add_parser("figures", help="export plot-ready CSV data")
    sf.add_argument("which", choices=["regions", "trajectories"])
    common(sf)
    sf.add_argument("--x", type=float, default=None, help="start value of X; default 1/(8p)")
    sf.add_argument("--delta", type=float, default=None, help="ladder step size")
    sf.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "constants" and not args.p:
        args.p = [0.5, 1.0, 1.5, 2.0, 3.0]
    try:
        _out_dir(args)  # refuse a missing output directory before any work
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # a finite p can take a constant such as c_p^p past a double
        p = ", ".join(map(str, args.p)) if args.p else "the default p"
        print(f"error: a value overflows a double at p = {p}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
