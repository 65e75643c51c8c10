"""Layer spans recorded from outside the library.

`Tracer.installed()` replaces each public function named in `TARGETS` with a
timing wrapper at every `sharpmart` module that binds it (for example `kp` is
bound in `constants`, `mc`, `orth`, `verify` and the package itself), and
puts the originals back on exit.  Spans and counts stay in memory; `summary`
turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

TARGETS = {
    "verify": ("run_suite",),
    "mc": (
        "strip_exit_moment",
        "harmonic_rectangle_check",
        "random_subordinate_pair_check",
    ),
    "gfun": ("build_g_rk", "build_g_bessel", "h_of", "h_prime"),
    "uweak": (
        "build_context",
        "classify",
        "is_interior",
        "u_value",
        "u_gradient_ext",
        "u_second_derivs",
        "u_branch",
        "tangent_check",
        "majorization_check",
    ),
    "orth": ("u_orth",),
    "constants": ("kp",),
}

# `verify.run_suite` spans are named after the suite they run.
VERIFY_SUITES = ("mc-strip", "harmonic", "ode", "u-weak", "u-orth")

SELF_TIME_SPANS = tuple(f"verify.{s}" for s in VERIFY_SUITES) + tuple(
    f"{mod}.{fn}" for mod, fns in TARGETS.items() if mod != "verify" for fn in fns
)

# The Monte Carlo calls whose CPU use is measured, by group.
CPU_GROUPS = {
    "mc.strip_exit_moment": "mc.strip",
    "mc.harmonic_rectangle_check": "mc.strip",
    "mc.random_subordinate_pair_check": "mc.pairs",
}


def _sim_config(args):
    """The SimConfig among a call's bound arguments."""
    return next(a for a in args.values() if hasattr(a, "n_samples") and hasattr(a, "workers"))


# Work counts per wrapped call: f(bound arguments, result) -> {metric: count}.
COUNTERS = {
    "mc.strip_exit_moment": lambda a, r: {"mc.strip.paths": _sim_config(a).n_samples},
    "mc.harmonic_rectangle_check": lambda a, r: {"mc.strip.paths": _sim_config(a).n_samples},
    "mc.random_subordinate_pair_check": lambda a, r: {
        "mc.pairs.paths": _sim_config(a).n_samples * a["n_pairs"]
    },
    "gfun.build_g_rk": lambda a, r: {"gfun.build_g_rk.nodes": len(r.grid)},
    "gfun.h_of": lambda a, r: {"gfun.h_of.points": int(np.size(r))},
    "uweak.classify": lambda a, r: {"uweak.classify.points": int(np.size(r))},
    "orth.u_orth": lambda a, r: {"orth.u_orth.calls": 1},
    "constants.kp": lambda a, r: {
        "constants.kp.calls": 1,
        "constants.kp.series_terms": r.series_terms_used,
    },
}

COUNT_METRICS = (
    "mc.strip.paths",
    "mc.pairs.paths",
    "gfun.build_g_rk.nodes",
    "gfun.h_of.points",
    "uweak.classify.points",
    "orth.u_orth.calls",
    "constants.kp.calls",
    "constants.kp.series_terms",
)
ERROR_MODULES = ("mc", "gfun", "uweak", "orth")

# Every per-layer metric name, in the order BENCHMARK.json lists them.
PER_LAYER = (
    tuple(f"{name}.s" for name in SELF_TIME_SPANS)
    + COUNT_METRICS
    + tuple(f"{g}.cpu_util" for g in sorted(set(CPU_GROUPS.values())))
    + tuple(f"{m}.errors" for m in ERROR_MODULES)
    + ("trace.overhead_frac", "trace.unaccounted_frac")
)


def per_layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(("_util", "_frac")):
        return "frac"
    return "count"


_TICK = os.sysconf("SC_CLK_TCK")


def _live_children(pid="self"):
    kids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(c) for c in fh.read().split())
        except FileNotFoundError:
            continue
    return kids


def _proc_cpu(pid) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def descendant_cpu_seconds() -> float:
    """CPU seconds of this process, its reaped children, and every live
    descendant (so a worker pool that outlives a call is still counted)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    todo = _live_children()
    while todo:
        pid = todo.pop()
        total += _proc_cpu(pid)
        todo.extend(_live_children(pid))
    return total


def sharpmart_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if name == "sharpmart" or name.startswith("sharpmart.")
    ]


class Tracer:
    """In-memory spans, counts and CPU samples, tagged with the current job."""

    def __init__(self):
        self.job = None
        self.spans = []  # [name, job, start, end, parent index]
        self.counts = []  # (job, metric, value)
        self.cpu = []  # (group, cpu seconds, wall seconds, workers)
        self.errors = dict.fromkeys(ERROR_MODULES, 0)
        self._stack = []
        self._saved = []  # (module, attribute, original)

    def _wrap(self, module, fn):
        name = f"{module}.{fn.__name__}"
        counter = COUNTERS.get(name)
        cpu_group = CPU_GROUPS.get(name)
        sig = inspect.signature(fn) if counter or cpu_group else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"verify.{args[0] if args else kwargs['name']}" if module == "verify" else name
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([label, self.job, time.perf_counter(), None, parent])
            self._stack.append(idx)
            cpu0 = descendant_cpu_seconds() if cpu_group else 0.0
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if module in self.errors:
                    self.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                self.spans[idx][3] = end
                self._stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if cpu_group:
                    wall = end - self.spans[idx][2]
                    cpu = descendant_cpu_seconds() - cpu0
                    self.cpu.append((cpu_group, cpu, wall, _sim_config(bound.arguments).workers))
                if counter:
                    for metric, value in counter(bound.arguments, result).items():
                        self.counts.append((self.job, metric, value))
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = sharpmart_modules()
        by_name = {m.__name__: m for m in mods}
        for module, fns in TARGETS.items():
            home = by_name[f"sharpmart.{module}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(module, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def summary(self, n_jobs, count_jobs, job_wall_s) -> dict:
        """Per-layer metrics over everything recorded while installed.

        Self seconds are per job over the `n_jobs` traced jobs.  Counts are
        per job over `count_jobs` only, a fixed set of jobs whose inputs
        depend on the seed alone, so they repeat exactly for a given seed.
        `job_wall_s` is the summed wall time of the traced jobs.
        """
        count_jobs = set(count_jobs)
        n_jobs = max(n_jobs, 1)
        child_time = [0.0] * len(self.spans)
        for name, job, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SELF_TIME_SPANS, 0.0)
        top_level = 0.0
        for (name, job, start, end, parent), kids in zip(self.spans, child_time):
            if name in self_s:
                self_s[name] += end - start - kids
            if parent is None:
                top_level += end - start
        out = {f"{k}.s": v / n_jobs for k, v in self_s.items()}
        counts = dict.fromkeys(COUNT_METRICS, 0)
        for job, metric, value in self.counts:
            if job in count_jobs:
                counts[metric] += value
        out.update({k: v / max(len(count_jobs), 1) for k, v in counts.items()})
        for group in sorted(set(CPU_GROUPS.values())):
            rows = [r for r in self.cpu if r[0] == group]
            capacity = sum(wall * workers for _, _, wall, workers in rows)
            out[f"{group}.cpu_util"] = sum(r[1] for r in rows) / capacity if capacity else 0.0
        out.update({f"{m}.errors": float(n) for m, n in self.errors.items()})
        out["trace.unaccounted_frac"] = 1.0 - top_level / job_wall_s if job_wall_s else 0.0
        return out
