"""Every named verification suite must pass at a fixed seed."""

import functools
import json
import operator
from pathlib import Path

import numpy as np
import pytest

from sharpmart import gfun, uweak
from sharpmart.verify import SUITES, _sample_strip, run_suite

# smaller sample sizes than the suite defaults: this file checks wiring and
# that the properties hold, not tight statistical power
SUITE_KWARGS = {
    "w": {"n": 5_000},
    "u-weak": {"n": 5_000},
    "u-orth": {"n": 20},
    "ode": {},
    "extremal": {},
    "mc-weak-type": {"n": 2_000},
    "mc-strip": {"n": 50_000},
    "harmonic": {"n": 30_000},
}


def test_registry_is_complete():
    assert set(SUITES) == set(SUITE_KWARGS)


@functools.cache
def _run(name):
    """`run_suite(name)` at this file's size, run once for the tests below."""
    return run_suite(name, **SUITE_KWARGS[name])


@pytest.mark.parametrize("name", sorted(SUITE_KWARGS))
def test_suite_passes(name):
    ok, report = _run(name)
    assert ok, report
    assert isinstance(report, dict)


SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _row_passes(value, gate):
    """A row's verdict from its value and gate, read apart from `run_suite`."""
    if gate["sense"] == "is":
        return value is gate["bound"]
    return value is not None and SENSES[gate["sense"]](value, gate["bound"])


def _check_gates(ok, report):
    """ok is the conjunction of the rows, each gate names a report key, and
    each numeric margin is on the side of the bound its row's verdict gives."""
    gates = report["gates"]
    assert gates and set(gates) <= set(report)
    passes = {key: _row_passes(report[key], gate) for key, gate in gates.items()}
    assert ok == all(passes.values())
    for key, gate in gates.items():
        margin = gate["margin"]
        if gate["sense"] == "is" or report[key] is None:
            assert margin is None, key
        elif margin != 0:
            assert (margin > 0) == passes[key], key
        else:
            assert passes[key] == (gate["sense"] in ("<=", ">=")), key


@pytest.mark.parametrize("name", sorted(SUITE_KWARGS))
def test_verdict_is_the_conjunction_of_the_rows(name):
    _check_gates(*_run(name))


def test_verdict_is_the_conjunction_of_failing_rows(monkeypatch):
    # rows that fail, a None row among them, are gated the same way
    monkeypatch.setattr(uweak, "_stable", lambda ctx, x, *_: np.zeros(x.shape, dtype=bool))
    constant = uweak.weak_constant_pth_power
    monkeypatch.setattr(uweak, "weak_constant_pth_power", lambda q: 1.01 * constant(q))
    ok, report = run_suite("u-weak", n=500)
    assert not ok and report["hessian_form_sup_scaled_max"] is None
    assert report["gates"]["boundary_gap_scaled_max"]["margin"] < 0
    _check_gates(ok, report)


def test_a_none_row_fails_alone(monkeypatch):
    # interior points but no Hessian read at them: the row's None fails the
    # verdict while every other row passes
    checks = uweak._sample_checks

    def no_hessian(*args):
        tangent, majorized, inter, _, u_y = checks(*args)
        return tangent, majorized, inter, (np.empty(0),) * 3, u_y

    monkeypatch.setattr(uweak, "_sample_checks", no_hessian)
    ok, report = run_suite("u-weak", n=500)
    assert not ok and report["n_interior"] > 0
    assert report["hessian_form_sup_scaled_max"] is None
    _check_gates(ok, report)


GATES_SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report.schema.json").read_text()
)


@pytest.mark.parametrize("name", sorted(SUITE_KWARGS))
def test_gates_match_the_report_schema(name):
    import jsonschema

    schema = {"$ref": "#/$defs/gates", "$defs": GATES_SCHEMA["$defs"]}
    # as a reader gets it: the CLI writes the report as JSON
    jsonschema.validate(json.loads(json.dumps(_run(name)[1]["gates"])), schema)


def test_unknown_suite_raises():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("name", ["w", "u-weak", "mc-strip"])
def test_suite_refuses_an_empty_sample(name):
    with pytest.raises(ValueError, match="n must be at least 1"):
        run_suite(name, n=0)


@pytest.mark.parametrize(
    "name", ["w", "u-weak", "u-orth", "ode", "extremal", "mc-weak-type", "mc-strip"]
)
def test_suite_refuses_no_workers(name):
    # most suites run no pool, so they would pass on 0 workers unasked
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_suite(name, workers=0)


def test_suite_accepts_p_override():
    ok, report = run_suite("ode", p=4.0)
    assert ok, report
    assert report["p"] == 4.0


@pytest.mark.parametrize("p", [0.5, 3.0])
def test_mc_strip_rejects_p_without_a_bound(p):
    with pytest.raises(ValueError, match="1 <= p <= 2"):
        run_suite("mc-strip", p=p, n=10)


def test_ode_residual_is_measured():
    # the residual is a finite difference of the Bessel closed form: small,
    # never exactly 0
    ok, report = run_suite("ode", p=3.0)
    assert ok, report
    assert 0 < report["ode_residual_max"] < 1e-8


def test_ode_slopes_at_p10():
    # G' and h' come from the gap u, not from t + 1 - G (which read
    # gprime_min 0.9999996 here)
    _, report = run_suite("ode", p=10.0)
    assert report["gprime_min"] >= 1
    assert report["h_prime_max"] <= 1 + 1e-9


def test_ode_reads_the_slope_between_nodes(monkeypatch):
    # a synthetic p = 10 table: the scan's, carried from t* to 10 on nodes of
    # ratio 1 + 5e-4 with the series' gap, and two nodes put between two
    # points of a 2,000-point grid of [2/p, 10], the first with its gap
    # raised by 1e-11 relative: G' is >= 1 at every node and on the grid, but
    # not between the two nodes (LSODA's relative error of 5e-12 in u let G'
    # dip to 1 - 7.1e-9).  The scan's own nodes read G' >= 1.0024, where so
    # small a dip cannot cross 1
    build = gfun.build_g_rk
    t = np.linspace(0.2, 10.0, 2000)
    ta, tb = t[1960] + np.array([1, 2]) * (t[1] - t[0]) / 3

    def dipped(p):
        sol = build(p)
        tail = np.geomspace(sol.grid[-1], 10.0, 6355)[1:]
        grid = np.concatenate((sol.grid, tail, [ta, tb]))
        u = np.concatenate((sol.u_values, sol.gap(tail), sol.gap([ta, tb]) * [1 + 1e-11, 1]))
        order = np.argsort(grid)
        return gfun.GSolution(p, grid[order], u[order])

    sol = dipped(10.0)
    assert np.min(sol.gprime_values) >= 1 and np.min(sol.gprime(t)) >= 1
    monkeypatch.setattr(gfun, "build_g_rk", dipped)
    ok, report = run_suite("ode", p=10.0)
    assert not ok
    assert report["gprime_min"] < 1 - 1e-9


LARGE_P = [("ode", p) for p in (8.0, 9.85, 10.0, 10.2, 10.5, 10.8)] + [
    ("u-weak", p) for p in (8.0, 10.0, 13.5, 16.0, 20.0, 30.0)
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, p", LARGE_P, ids=[n if p == 8 else f"{n}-p{p:g}" for n, p in LARGE_P]
)
def test_large_exponent(name, p):
    # at p = 8 and 10 the gap t + 1 - G falls to 2e-6 and 1e-8, and the ODE
    # for G is stiff; at p = 10 |U| reaches 1e9 on the D5/D6 edge, where the
    # boundary gap is rounding only relative to |U|.  On the LSODA table,
    # ode failed from p = 9.85 (G' dipped below 1 - 1e-9 between nodes) and
    # u-weak from p = 13.25 ("slope < 1"); neither may warn
    ok, report = run_suite(name, p=p, n=20_000)
    assert ok, report


@pytest.mark.filterwarnings("error")
def test_ode_passes_over_its_range():
    # ode's stated range: its cross check of the two G routes, the residual
    # of the Bessel gap and the slope gates hold on a 0.25 grid and at 10.825
    for p in [*np.arange(2.25, 10.76, 0.25), 10.825]:
        ok, report = run_suite("ode", p=float(p))
        assert ok, report


@pytest.mark.parametrize("p", [2.05, 2.5, 4.0, 6.0, 7.1, 9.6, 10.8, 10.9, 12.0, 16.0, 40.0])
def test_extremal_at_any_p_above_two(p):
    # the ratio is 1e2 at p = 6 and 3e5 at p = 9.6, where an absolute 1e-12
    # gap is rounding; a fixed delta hint of 1.5 gave a step weight q <= 0
    # at p = 10.8 and from p = 11.7
    ok, report = run_suite("extremal", p=p)
    assert ok, report
    assert report["primed_ratio_over_constant"] < 1


def _form(uxx, uxy, uyy, s):
    """U's Hessian form U_xx h^2 + 2U_xy hk + U_yy k^2 at h = 1, k = s."""
    return uxx + 2 * uxy * s + uyy * s * s


def _u_weak_by_public_checks(p, seed, n):
    """`verify u-weak` composed of the public checks, each of which
    classifies the sample again: the oracle of the one-classification suite."""
    ctx = uweak.build_context(p)
    rng = np.random.default_rng(seed)
    report = {"suite": "u-weak", "p": p, "n": n}
    gaps, scaled = [], []
    for ra, rb, bx, by in uweak.REGION_BOUNDARIES(ctx, max(200, n // 50)):
        va = uweak.u_branch(ctx, ra, bx, by)
        vb = uweak.u_branch(ctx, rb, bx, by)
        gap = np.abs(va - vb)
        gaps.append(float(np.max(gap)))
        scaled.append(float(np.max(gap / np.maximum(1, np.maximum(np.abs(va), np.abs(vb))))))
    report["boundary_gap_max"] = max(gaps)
    report["boundary_gap_scaled_max"] = max(scaled)

    x, y, h, k = _sample_strip(rng, n, x_hi=1.8)
    report["tangent_ok"] = bool(np.all(uweak.tangent_check(ctx, x, y, h, k)))

    inter = uweak.is_interior(ctx, x, y)
    xi, yi = x[inter], y[inter]
    uxx, uxy, uyy = uweak.u_second_derivs(ctx, xi, yi)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(-uxy / uyy, -1.0, 1.0)
    sup = np.fmax(np.maximum(_form(uxx, uxy, uyy, -1.0), _form(uxx, uxy, uyy, 1.0)),
                  _form(uxx, uxy, uyy, vertex))
    scale = np.maximum(1, np.maximum(np.abs(uxx), np.maximum(np.abs(uxy), np.abs(uyy))))
    report["hessian_form_sup_scaled_max"] = float(np.max(sup / scale))

    report["majorization_ok"] = bool(np.all(uweak.majorization_check(ctx, x, y)))
    xd = np.append(rng.uniform(0.0, 0.99, n // 10), 0.0)
    diag = uweak.u_value(ctx, xd, xd)
    report["diagonal_nonpos_max"] = float(np.max(diag))
    phi, psi = uweak.u_gradient_ext(ctx, x, np.abs(y))
    report["u_y_min_upper_half"] = float(np.min(psi))
    return report


@pytest.mark.parametrize("n", [1, 200])
@pytest.mark.parametrize("p", [2.25, 2.5, 3.0, 10.0, 30.0, 112.0])
def test_u_weak_diagonal_row_reads_its_supremum(p, n):
    # the diagonal sample ends at x = 0, where U(0, 0) lies in D1 and is
    # exactly 0, so the row reads its gate at every n
    ok, report = run_suite("u-weak", p=p, n=n)
    assert ok, report
    assert report["diagonal_nonpos_max"] == 0.0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p", [2.5, 3.0, 6.0, 10.0])
def test_u_weak_matches_the_public_checks(p, seed):
    # one classification of the sample gives the very numbers the public
    # checks give, each classifying it again
    ok, report = run_suite("u-weak", p=p, seed=seed, n=5_000)
    assert ok, report
    assert 0 < report.pop("n_interior") <= 5_000
    report.pop("gates")
    assert report == _u_weak_by_public_checks(p, seed, 5_000)


def test_u_weak_classifies_its_sample_once(monkeypatch):
    # the sample once, the four interior moves, the shifted points of the
    # tangent check and the diagonal: seven classifications
    seen = []
    regions = uweak._regions
    monkeypatch.setattr(
        uweak, "_regions", lambda ctx, x, Y: seen.append((x.copy(), Y.copy())) or regions(ctx, x, Y)
    )
    ok, _ = run_suite("u-weak", p=3.0, seed=0, n=2_000)
    assert ok
    x, y, _, _ = _sample_strip(np.random.default_rng(0), 2_000, x_hi=1.8)
    assert sum(np.array_equal(sx, x) and np.array_equal(sY, np.abs(y)) for sx, sY in seen) == 1
    assert len(seen) == 7


def _grid_sup_scaled_max(uxx, uxy, uyy):
    """The largest Hessian form over 4,001 slopes of [-1, 1] and every point,
    each point's relative to max(1, |U_xx|, |U_xy|, |U_yy|)."""
    s = np.linspace(-1.0, 1.0, 4001)[:, None]
    scale = np.maximum(1, np.maximum(np.abs(uxx), np.maximum(np.abs(uxy), np.abs(uyy))))
    return float(np.max(np.max(_form(uxx, uxy, uyy, s), axis=0) / scale))


# (U_xx, U_xy, U_yy); every vertex -U_xy/U_yy inside [-1, 1] is a grid slope
SYNTHETIC_HESSIANS = {
    "U_yy > 0": (-2.0, -0.5, 3.0),
    "U_yy < 0, vertex inside": (-1.0, 0.5, -1.0),
    "U_yy < 0, vertex inside, |H| 1e9": (-3e9, 1.5e9, -3e9),
    "U_yy < 0, vertex outside": (-1.0, 3.0, -1.0),
    "U_yy = 0, U_xy != 0": (-1.0, -0.25, 0.0),
    "U_yy = U_xy = 0": (-1.0, 0.0, 0.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hess", SYNTHETIC_HESSIANS.values(), ids=SYNTHETIC_HESSIANS)
def test_hessian_form_sup_against_a_slope_grid(monkeypatch, hess):
    # every interior point given one Hessian: the suite's closed-form row is
    # at least the grid's largest form, and exceeds it by rounding only
    checks = uweak._sample_checks

    def fixed(*args):
        tangent, majorized, inter, _, u_y = checks(*args)
        m = np.count_nonzero(inter)
        return tangent, majorized, inter, tuple(np.full(m, v) for v in hess), u_y

    monkeypatch.setattr(uweak, "_sample_checks", fixed)
    _, report = run_suite("u-weak", p=3.0, n=200)
    grid = _grid_sup_scaled_max(*(np.array([v]) for v in hess))
    assert grid <= report["hessian_form_sup_scaled_max"] <= grid + 1e-15


@pytest.mark.filterwarnings("error")
def test_hessian_form_sup_against_a_slope_grid_on_the_suite_points():
    # at p = 3 the sample's interior points have U_yy > 0, or U_xy = U_yy = 0
    # (where U reads x alone): the row is the grid's, to rounding
    n = 5_000
    ok, report = run_suite("u-weak", p=3.0, n=n)
    assert ok, report
    x, y, h, k = _sample_strip(np.random.default_rng(0), n, x_hi=1.8)
    _, _, _, hess, _ = uweak._sample_checks(uweak.build_context(3.0), x, y, h, k)
    grid = _grid_sup_scaled_max(*hess)
    assert grid <= report["hessian_form_sup_scaled_max"] <= grid + 1e-15


@pytest.mark.filterwarnings("error")
def test_u_weak_passes_over_its_range():
    # u-weak's stated range: a 1.0 grid over [2.25, 136] and its top; |U| on
    # the region boundaries grows from 1e9 at p = 10 to 6e223 at p = 112, and
    # the Hessian row is read relative to max(1, |H|).  From p = 112.25 the
    # table past t* read G' = inf ("slope < 1 or not finite")
    for p in [*np.arange(2.25, 135.3, 1.0), 136.0]:
        ok, report = run_suite("u-weak", p=float(p), n=2_000)
        assert ok, report
