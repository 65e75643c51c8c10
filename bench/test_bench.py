"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import client  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_workload_names_match_benchmark_json():
    assert client.WORKLOADS == tuple(w["name"] for w in SPEC["workloads"])
    assert set(client.CYCLE) == set(client.WORKLOADS)


def _bindings():
    return {
        (mod.__name__, attr): value
        for mod in spans.sharpmart_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_wraps_every_binding_and_restores_originals():
    before = _bindings()
    originals = {
        id(getattr(sys.modules[f"sharpmart.{mod}"], fn))
        for mod, fns in spans.TARGETS.items()
        for fn in fns
    }
    tracer = spans.Tracer()
    with tracer.installed():
        during = _bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert wrapped == {key for key, value in before.items() if id(value) in originals}
        # kp is bound in several modules; each binding is wrapped
        assert {("sharpmart.constants", "kp"), ("sharpmart.mc", "kp"), ("sharpmart.orth", "kp")} <= wrapped
        assert ("sharpmart.uweak", "h_of") in wrapped
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_restores_originals_when_a_call_raises():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            sys.modules["sharpmart.gfun"].build_g_rk(1.0)  # requires p > 2
    assert tracer.errors["gfun"] == 1
    assert all(_bindings()[key] is value for key, value in before.items())


@pytest.mark.parametrize("workload", client.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_passes_checks_and_emits_benchmark_metrics(workload, trace):
    result = client.run(workload, seed=3, seconds=0, trace=trace, size="tiny")
    assert result["correct"] and result["failed"] == 0
    line = run.result_line(result, setup_times=[1.0], trace=trace)
    kind = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    if trace:
        metrics = result["metrics"]
        busy = {k for k, v in metrics.items() if k.endswith(".s") and v > 0}
        layers = {"strip": {"mc", "verify", "constants"}, "pairs": {"mc"}, "special": {"gfun", "uweak", "orth", "verify", "constants"}}
        assert {k.split(".")[0] for k in busy} == layers[workload]
        assert all(metrics[f"{m}.errors"] == 0 for m in spans.ERROR_MODULES)


def test_checks_reject_wrong_outputs():
    n = 1 << 12
    se = 1.0 / math.sqrt(n)
    good = (True, {"estimate": 1.0, "std_error": se, "n": n})
    assert client.check_strip("mc-strip", 2.0, n, good) == []
    assert client.check_strip("mc-strip", 2.0, n, (True, dict(good[1], estimate=1 + 5 * se)))
    assert client.check_strip("mc-strip", 2.0, n, (True, dict(good[1], n=n - 1)))
    assert client.check_strip("mc-strip", 2.0, n, (True, dict(good[1], std_error=math.inf)))
    assert client.check_strip("mc-strip", 2.0, n, (False, good[1]))
    pairs = {"passed": True, "n": 100, "bound": 27 / 16, "estimate": 1.0}
    assert client.check_pairs(3.0, 100, pairs) == []
    assert client.check_pairs(3.0, 100, dict(pairs, estimate=1.7))
    assert client.check_pairs(3.0, 100, dict(pairs, n=99))
    assert client.check_pairs(3.0, 100, dict(pairs, passed=False))


def test_tail_has_ten_jobs_beyond_it():
    value, pct = client.tail(list(range(40)))
    assert value == 29 and sum(t > value for t in range(40)) == 10 and pct == 75.0
    assert client.tail([3.0, 1.0, 2.0])[0] == 2.0  # too few jobs: the median


def test_scaled_time_divides_by_mean_slowness():
    assert hostspeed.scaled(1.2, 1.0, 2.0) == pytest.approx(0.8)
    assert hostspeed.scaled(0.5, 1.0, 1.0) == 0.5
    assert 0 < hostspeed.calibrate() < 100
