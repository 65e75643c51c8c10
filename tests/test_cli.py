"""CLI tests: subcommands, output formats, exit codes, and run manifests.

All invocations go through ``main(argv)`` in-process; stdout/stderr are
captured with capsys, artifacts with tmp_path.
"""

import csv
import json
import math

import pytest

from sharpmart import __version__, cli
from sharpmart.cli import OUT_ENV, main
from sharpmart.constants import kp
from sharpmart.gfun import ConstructionError
from sharpmart.uweak import EvaluationError


# ---------------------------------------------------------------- constants


def test_constants_json_stdout(capsys):
    assert main(["constants", "--p", "1.5", "--p", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in rows] == [1.5, 3.0]
    assert rows[0]["kp"] == pytest.approx(kp(1.5).value, rel=1e-14)
    assert rows[0]["weak_nonneg"] is None  # undefined in 1 <= p < 2
    assert rows[1]["weak_nonneg"] == pytest.approx(1.5 / 2 ** (1 / 3), rel=1e-12)


def test_constants_default_grid(capsys):
    assert main(["constants"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in rows] == [0.5, 1.0, 1.5, 2.0, 3.0]
    assert all(r["ok"] for r in rows)


def test_constants_csv_format(capsys):
    assert main(["constants", "--p", "2", "--format", "csv"]) == 0
    reader = csv.DictReader(capsys.readouterr().out.splitlines())
    (row,) = list(reader)
    assert float(row["kp"]) == pytest.approx(1.0, abs=1e-12)
    assert row["errors"] == ""


def test_constants_negative_p_fails(capsys):
    assert main(["constants", "--p", "-1"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert not rows[0]["ok"]
    assert rows[0]["errors"]


def test_constants_row_keeps_only_domain_errors(monkeypatch):
    # a ValueError is a row error; any other exception is a bug and propagates
    def broken(p):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(cli, "kp", broken)
    with pytest.raises(ZeroDivisionError):
        main(["constants", "--p", "1.5"])


# ----------------------------------------------------------------- verify


def test_verify_suite_exit_codes(capsys):
    assert main(["verify", "ode"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_verify_has_no_format_option():
    # verify always writes JSON; only constants offers a CSV table
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ode", "--format", "csv"])
    assert exc.value.code == 2


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


def test_verify_forwards_sampling_options(capsys):
    assert main(["verify", "mc-strip", "--n", "40000", "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 40000
    assert report["seed"] == 5
    assert report["censored"] == 0 and report["walk_steps"] > report["n"]
    assert report["shell_eps"] == 1e-6


def test_verify_has_no_time_step_option():
    # strip exits are sampled by walk on spheres, which has no time step
    with pytest.raises(SystemExit) as exc:
        main(["verify", "mc-strip", "--dt", "0.01"])
    assert exc.value.code == 2


def test_verify_mc_strip_without_a_bound_is_an_error(capsys):
    # K_p is known only for 1 <= p <= 2: the suite refuses rather than passing
    # with nothing checked, and exits like any other out-of-domain exponent
    assert main(["verify", "mc-strip", "--p", "3"]) == 2
    assert "1 <= p <= 2" in capsys.readouterr().err


def test_verify_mc_strip_one_path_is_an_error(capsys):
    # one path has no standard error: a usage error, not a traceback
    assert cli.main(["verify", "mc-strip", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["w", "--n", "0"], ["mc-strip", "--n", "0"], ["ode", "--n", "5"], ["ode", "--workers", "0"]],
)
def test_verify_n_is_used_or_refused(capsys, argv):
    # --n 0 samples nothing, ode reads no n, and no suite runs on 0 workers:
    # none may run and pass
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", [1, 2, 9])
def test_verify_u_weak_small_n_runs(capsys, n):
    # below n = 10 the diagonal sample still has one point, so --n is used as
    # given rather than ending in an empty reduction
    assert main(["verify", "u-weak", "--n", str(n)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["n"] == n
    assert 1 <= report["n_interior"] <= n


def test_verify_out_of_domain_exponent_is_usage_error(capsys):
    assert main(["verify", "u-weak", "--p", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("p", ["7", "1", "0"])
def test_verify_w_refuses_exponent_outside_unit_interval(capsys, p):
    # the suite checks W <= (2x)^p, which holds only for 0 < p < 1
    assert main(["verify", "w", "--p", p]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_w_reports_its_exponent(capsys):
    assert main(["verify", "w", "--p", "0.25", "--n", "2000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["p"] == 0.25 and report["equality_gap"] == 0.0


def test_verify_missing_out_dir_is_usage_error(tmp_path, capsys):
    assert main(["verify", "ode", "--out", str(tmp_path / "does-not-exist")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not exist" in err


@pytest.mark.parametrize("error", [EvaluationError, ConstructionError])
def test_numerical_failure_exits_one(monkeypatch, capsys, error):
    def fail(name, **kwargs):
        raise error("numerical failure")

    monkeypatch.setattr(cli, "run_suite", fail)
    assert main(["verify", "ode"]) == 1
    assert capsys.readouterr().err == "error: numerical failure\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "u-weak", "--p", "400"], 1),
        (["verify", "ode", "--p", "400"], 1),
        (["verify", "extremal", "--p", "150"], 2),
        (["verify", "extremal", "--p", "400"], 2),
        (["verify", "mc-weak-type", "--p", "400", "--n", "10"], 1),
        (["figures", "regions", "--p", "400"], 1),
        (["verify", "u-weak", "--p", "inf"], 2),
        (["verify", "ode", "--p", "inf"], 2),
        (["verify", "extremal", "--p", "inf"], 2),
        (["verify", "mc-weak-type", "--p", "inf", "--n", "10"], 2),
        (["figures", "regions", "--p", "inf"], 2),
    ],
)
def test_huge_or_infinite_exponent_is_one_error_line(capsys, argv, code):
    # a finite p whose constant overflows a double ((p/2)^(p+1), c_p^p) is a
    # numerical failure, exit 1; the ladder's atoms underflow past p ~ 120,
    # exit 2; either line names p.  An infinite p is a usage error, exit 2
    # (it read "bound G < t+1 violated" or "requires 0 < x0 < 1/p", p = 150
    # and p = 400 ended in a ZeroDivisionError or OverflowError traceback)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    p = float(argv[argv.index("--p") + 1])
    assert (f"p = {p}" if math.isfinite(p) else "inf") in err


@pytest.mark.filterwarnings("error")
def test_weak_type_at_p60_prints_no_warning(capsys):
    # c_p^p is ~7e86 at p = 60 and a pair's error bar can be ~1e-220, so a
    # row's margin (ratio - bound) / se overflows a double; it printed two
    # RuntimeWarnings (overflow, and divide by zero where se underflowed)
    assert main(["verify", "mc-weak-type", "--p", "60", "--n", "10"]) == 0
    out = capsys.readouterr()
    (check,) = json.loads(out.out)["checks"]
    assert check["passed"] and check["margin_sigma"] < 0 and out.err == ""


def test_verify_forwards_p_only_when_given(monkeypatch, capsys):
    seen = []

    def record(name, **kwargs):
        seen.append(kwargs)
        return True, {"suite": name}

    monkeypatch.setattr(cli, "run_suite", record)
    assert main(["verify", "ode"]) == 0
    assert main(["verify", "ode", "--p", "4"]) == 0
    assert "p" not in seen[0]
    assert seen[1]["p"] == 4.0


def test_verify_repeated_exponent_is_usage_error(capsys):
    # one suite run takes one exponent; a second --p is refused, not dropped
    assert main(["verify", "mc-strip", "--p", "1", "--p", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--p" in err


# ----------------------------------------------------------------- figures


def test_figures_repeated_exponent_is_usage_error(tmp_path, capsys):
    assert main(["figures", "regions", "--p", "3", "--p", "4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--p" in err
    assert not list(tmp_path.iterdir())


def test_figures_regions_to_dir(tmp_path, capsys):
    assert main(["figures", "regions", "--p", "3", "--out", str(tmp_path)]) == 0
    path = tmp_path / "regions_p3.csv"
    assert str(path) in capsys.readouterr().out
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert {"region_a", "region_b", "x", "y"} <= set(rows[0])
    assert len(rows) > 100
    manifest = json.loads((tmp_path / "regions_p3.csv.manifest.json").read_text())
    assert manifest["command"] == "figures"
    assert manifest["artifact_version"] == __version__
    assert manifest["parameters"]["p"] == 3.0


def test_manifest_records_library_versions(tmp_path):
    import platform

    import numpy as np
    import scipy

    assert main(["verify", "ode", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "verify_ode.json.manifest.json").read_text())
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__


def test_figures_trajectories_default_parameters(tmp_path):
    assert main(["figures", "trajectories", "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "trajectories_p3.csv").read_text().splitlines()))
    trajectories = {r["trajectory"] for r in rows}
    assert len(trajectories) == 4
    first = [r for r in rows if r["trajectory"] == "0"]
    assert float(first[0]["X"]) == pytest.approx(1 / 24, rel=1e-12)
    assert float(first[0]["Y"]) == pytest.approx(2 / 24, rel=1e-12)


@pytest.mark.parametrize("p", [12, 16, 30])
def test_figures_trajectories_large_p(tmp_path, p):
    # the default delta hint is the ladder's, min(1.5, p / (2(p - 2))): the
    # fixed hint 1.5 gave a negative step weight at 12 and 16 (exit 2); the
    # default x0 is 1/(8p) in (0, 1/p): the fixed 1/24 was refused from p = 24
    assert main(["figures", "trajectories", "--p", str(p), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / f"trajectories_p{p}.csv.manifest.json").read_text())
    assert manifest["parameters"]["delta"] == p / (2 * (p - 2))
    assert manifest["parameters"]["x"] == 1 / (8 * p)


def test_figures_missing_out_dir(tmp_path, capsys):
    missing = tmp_path / "does-not-exist"
    assert main(["figures", "regions", "--out", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_out_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_ENV, str(tmp_path))
    assert main(["constants", "--p", "2"]) == 0
    assert (tmp_path / "constants.json").exists()
    assert (tmp_path / "constants.json.manifest.json").exists()


def test_artifact_reproducibility(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    for out in (out1, out2):
        assert main(["constants", "--p", "1.5", "--out", str(out)]) == 0
    for name in ("constants.json", "constants.json.manifest.json"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


# ------------------------------------------------------------------ usage


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["constants", "--n", "5"], ["constants", "--dt", "0.1"], ["figures", "regions", "--workers", "2"]],
)
def test_sampling_options_only_on_verify(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
