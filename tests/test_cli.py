"""End-to-end tests for the command-line interface and config plumbing."""
import json
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdbridge.distortion import d_max
from rdbridge.errors import InvalidInputError
from rdbridge.io_cli import (
    _json_text,
    _parse_bool,
    build_problem,
    load_nu,
    main,
    parse_config_text,
    resolve_config,
)

LN2 = math.log(2.0)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- config plumbing --------------------------------------------------------


def test_parse_config_text():
    raw = parse_config_text(
        """
        # a comment
        source.kind = bernoulli
        source.p = 0.25   # trailing comment

        source.p = 0.3
        """
    )
    assert raw == {"source.kind": "bernoulli", "source.p": "0.3"}
    with pytest.raises(InvalidInputError):
        parse_config_text("source.kind bernoulli")


def test_resolve_config_layers_and_unknown_key():
    cfg = resolve_config({"source.p": "0.25"}, {"source.p": "0.4"})
    assert cfg["source.p"] == 0.4
    assert cfg["source.kind"] == "bernoulli"
    assert cfg["tol"] == 1e-9
    with pytest.raises(InvalidInputError):
        resolve_config({"source.q": "0.25"}, None)
    with pytest.raises(InvalidInputError, match="unknown config key"):
        resolve_config({"deterministic": "true"}, None)


def test_resolve_config_validation():
    with pytest.raises(InvalidInputError, match="tol out of range"):
        resolve_config(None, {"tol": "0.5"})
    with pytest.raises(InvalidInputError, match="tol out of range"):
        resolve_config(None, {"tol": "0"})
    with pytest.raises(InvalidInputError, match="geometric beta schedule"):
        resolve_config(None, {"betas.lo": "2.0", "betas.hi": "1.0"})
    with pytest.raises(InvalidInputError, match="geometric beta schedule"):
        resolve_config(None, {"betas.count": "1"})
    with pytest.raises(InvalidInputError, match="units"):
        resolve_config(None, {"units": "shannons"})
    with pytest.raises(InvalidInputError, match="source.kind"):
        resolve_config(None, {"source.kind": "poisson"})
    with pytest.raises(InvalidInputError, match="bad value"):
        resolve_config(None, {"source.p": "zero point three"})


def test_parse_bool_words():
    assert _parse_bool("true") and _parse_bool("1") and _parse_bool("YES")
    assert not _parse_bool("false") and not _parse_bool("0") and not _parse_bool("No")
    with pytest.raises(InvalidInputError):
        _parse_bool("maybe")


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["curve", "--betas.list", "1,x"], {}, "expected a list of reals"),
        (["curve", "--max_iter", "0"], {}, "max_iter must be >= 1"),
        (["curve", "--source.p", "1.5"], {}, "source.p must lie in (0, 1)"),
        (["curve", "--source.kind", "custom"], {}, "requires source.weights"),
        (
            ["curve", "--source.kind", "custom", "--source.weights", "0.5,0.5",
             "--distortion.kind", "mse"],
            {},
            "mse distortion needs labelled source atoms",
        ),
        (["curve", "--distortion.kind", "custom"], {}, "requires distortion.file"),
        (
            ["curve", "--distortion.kind", "custom", "--distortion.file", "{loss}"],
            {"loss": "0 1\n1 0\n1 1\n"},
            "distortion matrix has 3 rows for 2 source atoms",
        ),
        (
            ["check", "--beta", "1", "--nu", "{nu}"],
            {"nu": "0.5\n"},
            "JSON must be an object or array",
        ),
        (["curve", "--config", "{missing}"], {}, "cannot read config"),
        (["curve", "--distortion.kind", "bogus"], {}, "distortion.kind must be one of"),
        (
            ["compare", "--oracle", "bernoulli", "--source.kind", "uniform"],
            {},
            "bernoulli oracle needs source.kind=bernoulli",
        ),
        (["check", "--no-such-flag"], {}, "unrecognized arguments: --no-such-flag"),
        # Retired with the iteration floor of the solver.
        (["point", "--beta", "1", "--min_iter", "5"], {}, "unrecognized arguments: --min_iter"),
        (
            ["point", "--beta", "1", "--config", "{conf}"],
            {"conf": "min_iter = 5\n"},
            "unknown config key 'min_iter'",
        ),
        # Malformed files: a missing or ragged loss matrix, non-numeric law entries.
        (
            ["curve", "--distortion.kind", "custom", "--distortion.file", "{missing}"],
            {},
            "cannot read {missing}: ",
        ),
        (
            ["curve", "--distortion.kind", "custom", "--distortion.file", "{loss}"],
            {"loss": "0 1\n1\n"},
            "rho must be a regular array of reals",
        ),
        (
            ["check", "--beta", "1", "--nu", "{nu}"],
            {"nu": '{"weights": ["a", "b"]}'},
            "weights must be a regular array of reals",
        ),
        (
            ["check", "--beta", "1", "--nu", "{nu}"],
            {"nu": '{"weights": {"a": 1}}'},
            "weights must be a regular array of reals",
        ),
        (
            ["check", "--beta", "1", "--nu", "{nu}"],
            {"nu": '{"weights": [0.5, 0.5], "labels": ["a", "b"]}'},
            "labels must be a regular array of reals",
        ),
        (
            ["check", "--beta", "1", "--nu", "{nu}"],
            {"nu": '{"weights": [0.5, 0.5], "labels": {"a": 1}}'},
            "labels must be a regular array of reals",
        ),
    ],
)
def test_input_errors_exit_1_with_their_message(tmp_path, capsys, argv, files, message):
    paths = {"missing": tmp_path / "missing.conf"}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code, out, err = run_cli(capsys, [arg.format(**paths) for arg in argv])
    assert code == 1 and out == ""
    assert message.format(**paths) in err


# --- curve ------------------------------------------------------------------


def test_curve_geometric_schedule(capsys):
    # Without betas.list the schedule is geomspace(betas.lo, betas.hi, betas.count).
    code, out, _ = run_cli(
        capsys, ["curve", "--betas.lo", "0.5", "--betas.hi", "8", "--betas.count", "5"]
    )
    assert code == 0
    betas = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert betas == np.geomspace(0.5, 8.0, 5).tolist()


def test_curve_csv_contract(capsys):
    code, out, _ = run_cli(
        capsys, ["curve", "--betas.list", "0.5,1.0,2.0", "--source.p", "0.3"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,distortion,rate,iterations,certificate_slack,converged"
    assert len(lines) == 4
    for line in lines[1:]:
        beta, d, r, iters, slack, conv = line.split(",")
        # 17 significant digits round-trip doubles exactly.
        for cell in (beta, d, r, slack):
            assert f"{float(cell):.17g}" == cell
        assert iters == str(int(iters))
        assert conv == "1"
    rates = [float(line.split(",")[2]) for line in lines[1:]]
    assert rates == sorted(rates)


def test_curve_degraded_points_exit_2(capsys):
    # Blahut-Arimoto runs out of a budget of 2 at both slopes.  (At the
    # default tol the two-column solve ends each in one step.)
    code, out, _ = run_cli(
        capsys, ["curve", "--betas.list", "1.0,2.0", "--max_iter", "2", "--tol", "1e-3"]
    )
    assert code == 2
    rows = out.strip().splitlines()[1:]
    assert all(row.split(",")[5] == "0" for row in rows)


def test_curve_sweep_never_reports_a_distortion_above_d_max(capsys, caplog):
    # Bernoulli(0.3) under Hamming loss at the default tol 1e-9.  A sweep
    # warm-started by Blahut-Arimoto stopped at beta = 1e-4 after one
    # evaluation, on the beta = 1e-8 optimum mixed with 1e-6 uniform mass,
    # at D = 0.300000199942 > D_max, and warned that the curve broke
    # monotonicity.  A tight solve starts from the uniform law.
    mu, dist, _, _ = build_problem(resolve_config())
    ceiling, _ = d_max(mu, dist)
    with caplog.at_level(logging.WARNING, logger="rdbridge"):
        code, out, _ = run_cli(
            capsys, ["curve", "--betas.lo", "1e-8", "--betas.hi", "1e8", "--betas.count", "5"]
        )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 5
    assert all(float(row[1]) <= ceiling for row in rows), rows
    assert not caplog.records


def test_curve_rejects_bad_tolerance(capsys):
    code, _, err = run_cli(capsys, ["curve", "--tol", "0.5"])
    assert code == 1
    assert "tol out of range" in err


def test_curve_output_is_deterministic(capsys):
    argv = ["curve", "--betas.list", "0.5,1.0,2.0", "--source.p", "0.35"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_curve_writes_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, ["curve", "--betas.list", "1.0,2.0", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("beta,distortion,rate")


# --- point ------------------------------------------------------------------


def test_point_by_beta(capsys):
    code, out, _ = run_cli(
        capsys,
        ["point", "--source.p", "0.5", "--beta", str(math.log(9.0))],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert abs(doc["distortion"] - 0.1) < 1e-8
    assert abs(doc["rate"] - 0.36806420716849707) < 1e-8
    assert doc["report"]["verdict"] == "optimal"
    assert doc["config"]["source.p"] == 0.5
    assert "min_iter" not in doc["config"]
    assert len(doc["nu_star"]["weights"]) == 2
    assert doc["nu_star"]["labels"] == [0.0, 1.0]


def test_point_by_beta_unconverged_exits_2_with_its_report(capsys):
    # The fixed-slope interior point on 21 columns runs out of a budget of 3.
    code, out, _ = run_cli(
        capsys,
        ["point", "--beta", "4", "--max_iter", "3", "--source.kind", "uniform",
         "--source.points", "21", "--distortion.kind", "mse"],
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["iterations"] == 3
    # The report of the partial law is still written, and flags it.
    assert doc["report"]["verdict"] == "suboptimal"


def test_point_by_beta_on_a_sparse_gaussian_law(capsys):
    # Blahut-Arimoto alone needed 146,426 iterations here, more than the
    # default max_iter of 100,000, and the command exited 2.
    code, out, _ = run_cli(
        capsys,
        ["point", "--source.kind", "gaussian", "--source.points", "257",
         "--distortion.kind", "mse", "--beta", "4"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["tol"] == 1e-9 and doc["config"]["max_iter"] == 100000
    assert doc["converged"] is True
    assert doc["iterations"] <= 100
    assert doc["report"]["verdict"] == "optimal"
    assert abs(doc["rate"] - 0.5 * math.log(1.0 / doc["distortion"])) <= 1e-7


def test_point_by_distortion(capsys):
    code, out, _ = run_cli(
        capsys, ["point", "--source.p", "0.5", "--distortion", "0.1"]
    )
    assert code == 0
    doc = json.loads(out)
    # The band is 10 * tol * d_max = 5e-9 at the default tol.
    assert abs(doc["distortion"] - 0.1) < 5e-9
    assert abs(doc["beta"] - math.log(9.0)) < 1e-6
    assert doc["report"]["verdict"] == "optimal"


def test_point_by_distortion_just_below_a_plateau(capsys):
    # Bernoulli(0.1) keeps D = D_max = 0.1 for every beta below ln 9; the
    # target 0.0999 lies 0.1% below that plateau, at beta* = ln(0.9001 / 0.0999).
    code, out, _ = run_cli(
        capsys, ["point", "--source.p", "0.1", "--distortion", "0.0999"]
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["distortion"] - 0.0999) <= 10 * 1e-9 * 0.1
    assert abs(doc["beta"] - math.log(0.9001 / 0.0999)) <= 1e-6
    # 11 interior-point iterations measured; the bound adds a margin of 3.
    assert doc["iterations"] <= 14


@pytest.mark.parametrize("fraction", [0.647, 0.649, 0.651])
def test_point_by_distortion_where_the_uniform_curve_drops(capsys, fraction):
    # 201-point uniform source on [-1, 1] under squared error at tol 1e-3:
    # warm-started bisection once stalled on these targets.  Uniform on
    # [-1, 1] has differential entropy ln 2, so the Shannon lower bound is
    # R >= ln 2 - ln(2 pi e D) / 2.
    source = {"source.kind": "uniform", "source.points": "201", "distortion.kind": "mse"}
    mu, dist, _, _ = build_problem(resolve_config(overrides=source))
    ceiling, _ = d_max(mu, dist)
    target = fraction * ceiling
    argv = ["point", "--tol", "1e-3", "--distortion", repr(target)]
    for key, value in source.items():
        argv += [f"--{key}", value]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    d = doc["distortion"]
    assert abs(d - target) <= 10 * 1e-3 * ceiling
    assert doc["rate"] >= LN2 - 0.5 * math.log(2 * math.pi * math.e * d) - 5e-3
    assert doc["report"]["verdict"] == "optimal"


def test_point_by_distortion_inside_a_jump_of_the_uniform_curve(capsys):
    # 201-point uniform source under squared error at tol 1e-6: D(beta)
    # jumps over 0.999 D_max, where a search over beta once gave up with
    # exit 2.  The saddle-point solve answers with a mixture at the jump.
    source = {"source.kind": "uniform", "source.points": "201", "distortion.kind": "mse"}
    mu, dist, _, _ = build_problem(resolve_config(overrides=source))
    ceiling, _ = d_max(mu, dist)
    argv = ["point", "--tol", "1e-6", "--distortion", repr(0.999 * ceiling)]
    for key, value in source.items():
        argv += [f"--{key}", value]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert abs(doc["distortion"] - 0.999 * ceiling) <= 10 * 1e-6 * ceiling


def test_point_by_distortion_leaves_unreachable_columns_empty(tmp_path, capsys):
    # Column 2 is reached with a finite loss only by the source letter of
    # zero mass.  A target solve that kept it in play once left 4e-12 on
    # it, and the embedded check refused that law with exit 1.
    loss = tmp_path / "loss.txt"
    loss.write_text("0 1 inf 1\n1 0 inf 1\n1 1 0 1\n")
    argv = ["point", "--source.kind", "custom", "--source.weights", "0.5 0.5 0"]
    argv += ["--distortion.kind", "custom", "--distortion.file", str(loss), "--distortion", "0.1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["nu_star"]["weights"][2] == 0.0
    assert doc["report"]["verdict"] == "optimal"


def test_point_beta_zero_endpoint(capsys):
    code, out, _ = run_cli(capsys, ["point", "--source.p", "0.3", "--beta", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == 0.0
    assert doc["distortion"] == 0.3
    assert doc["rate"] == 0.0
    assert doc["iterations"] == 0
    assert doc["converged"] is True
    assert doc["nu_star"]["weights"] == [1.0, 0.0]


def test_point_beta_zero_with_an_infinite_d_max(tmp_path, capsys):
    # Every single column forbids one source letter, so D_max is infinite
    # and the beta -> 0+ limit keeps both columns: D = 0 and R = ln 2.
    loss = tmp_path / "loss.txt"
    loss.write_text("0 inf\ninf 0\n")
    code, out, _ = run_cli(
        capsys,
        [
            "point", "--beta", "0", "--source.kind", "custom", "--source.weights", "0.5,0.5",
            "--distortion.kind", "custom", "--distortion.file", str(loss),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["distortion"] == 0.0
    assert doc["rate"] == pytest.approx(LN2, rel=1e-15)
    assert doc["nu_star"]["weights"] == [0.5, 0.5]


def test_point_distortion_out_of_range(capsys):
    code, _, err = run_cli(
        capsys, ["point", "--source.p", "0.3", "--distortion", "0.4"]
    )
    assert code == 1
    assert "R(D) = 0 for D > D_max" in err


def test_point_needs_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, ["point", "--source.p", "0.3"])
    assert code == 1
    assert "exactly one of" in err
    code, _, err = run_cli(
        capsys, ["point", "--beta", "1.0", "--distortion", "0.1"]
    )
    assert code == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("source.kind = bernoulli\nsource.p = 0.25\ntol = 1e-8\n")
    code, out, _ = run_cli(
        capsys,
        ["point", "--config", str(conf), "--source.p", "0.35", "--beta", "2.0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["source.p"] == 0.35
    assert doc["config"]["tol"] == 1e-8


# --- check ------------------------------------------------------------------


def test_point_check_round_trip(tmp_path, capsys):
    point_file = tmp_path / "point.json"
    code, _, _ = run_cli(
        capsys,
        ["point", "--source.p", "0.3", "--beta", "2.0", "--out", str(point_file)],
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["check", "--source.p", "0.3", "--beta", "2.0", "--nu", str(point_file)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "optimal"


def test_check_flags_suboptimal_law(tmp_path, capsys):
    nu_file = tmp_path / "uniform.txt"
    nu_file.write_text("0.5\n0.5\n")
    code, out, _ = run_cli(
        capsys,
        ["check", "--source.p", "0.3", "--beta", "2.0", "--nu", str(nu_file)],
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "suboptimal"
    assert doc["report"]["l_value"] > 1e-7


def test_check_inconclusive_when_inner_solve_stalls(tmp_path, capsys):
    # At an extreme slope the scaling solve cannot reach its residual
    # target within the default budget, so nothing is certified.
    nu_file = tmp_path / "law.txt"
    nu_file.write_text("0.6\n0.4\n")
    code, out, _ = run_cli(
        capsys,
        ["check", "--source.p", "0.5", "--beta", "1500", "--nu", str(nu_file)],
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "inconclusive"
    assert doc["report"]["l_value"] is None
    assert doc["report"]["detail"] != ""


def test_check_length_mismatch(tmp_path, capsys):
    # Self-labelled law of the wrong size parses fine but is rejected
    # against the problem's reconstruction alphabet.
    nu_file = tmp_path / "bad.txt"
    nu_file.write_text("0.0 0.2\n1.0 0.3\n2.0 0.5\n")
    code, _, err = run_cli(
        capsys,
        ["check", "--source.p", "0.3", "--beta", "1.0", "--nu", str(nu_file)],
    )
    assert code == 1
    assert "atoms" in err
    # A one-column file of the wrong length cannot pair with the problem
    # labels at all; still a clean exit 1.
    short = tmp_path / "short.txt"
    short.write_text("0.2\n0.3\n0.5\n")
    code, _, err = run_cli(
        capsys,
        ["check", "--source.p", "0.3", "--beta", "1.0", "--nu", str(short)],
    )
    assert code == 1
    assert err.startswith("error:")


def test_check_zero_mass_row_outside_the_support(tmp_path, capsys):
    # A zero-mass source atom that reaches only a column outside supp(nu)
    # once made the slack NaN (a bare NaN token in the JSON) and exit 3.
    loss = tmp_path / "loss.txt"
    loss.write_text("0 1 inf\n1 0 inf\ninf inf 0\n")
    nu_file = tmp_path / "law.txt"
    nu_file.write_text("0.5\n0.5\n0\n")
    argv = ["check", "--source.kind", "custom", "--source.weights", "0.5 0.5 0"]
    argv += ["--distortion.kind", "custom", "--distortion.file", str(loss)]
    code, out, _ = run_cli(capsys, argv + ["--beta", "1.0", "--nu", str(nu_file)])
    assert code == 0
    assert "NaN" not in out
    report = json.loads(out)["report"]
    assert report["verdict"] == "optimal"
    assert abs(report["certificate_slack"]) <= 1e-15


def test_commands_with_a_law_need_beta_and_nu(capsys):
    for command in ("check", "sinkhorn"):
        code, _, err = run_cli(capsys, [command, "--nu", "law.txt"])
        assert code == 1 and f"{command} needs --beta" in err
        code, _, err = run_cli(capsys, [command, "--beta", "1.0"])
        assert code == 1 and f"{command} needs --nu FILE" in err


# --- sinkhorn ---------------------------------------------------------------


def test_sinkhorn_json_contract(tmp_path, capsys):
    nu_file = tmp_path / "half.txt"
    nu_file.write_text("0.5\n0.5\n")
    code, out, _ = run_cli(
        capsys,
        ["sinkhorn", "--source.p", "0.5", "--beta", "1.0", "--nu", str(nu_file)],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "config",
        "beta",
        "logF",
        "logG",
        "logK",
        "residuals",
        "iterations",
        "converged",
        "distortion",
        "J",
        "L",
    }
    assert set(doc["residuals"]) == {"row", "col", "eq8"}
    assert doc["converged"] is True
    assert doc["iterations"] >= 1
    assert max(doc["residuals"].values()) <= 1e-10
    # Rebuild the corner of the coupling from the emitted potentials.
    p00 = math.exp(doc["logK"] + doc["logF"][0] + doc["logG"][0]) * 0.25
    assert abs(p00 - 0.36552928931500245) < 1e-11
    assert abs(doc["distortion"] - 1.0 / (1.0 + math.e)) < 1e-11
    assert abs(doc["L"]) < 1e-11


def test_sinkhorn_unconverged_exits_2_without_dual_values(tmp_path, capsys):
    # Column 1 needs mass 0.8 and only row 1, of mass 0.5, reaches it, so
    # the scaling iteration runs out of budget and the pair is stale.
    loss = tmp_path / "loss.txt"
    loss.write_text("0 inf\n0 0\n")
    nu_file = tmp_path / "law.txt"
    nu_file.write_text("0.2\n0.8\n")
    argv = ["sinkhorn", "--source.kind", "custom", "--source.weights", "0.5 0.5"]
    argv += ["--distortion.kind", "custom", "--distortion.file", str(loss)]
    code, out, _ = run_cli(capsys, argv + ["--nu", str(nu_file), "--beta", "1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["iterations"] == 2000
    assert doc["distortion"] is None and doc["J"] is None and doc["L"] is None


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"a": []},
        {"a": [1.0, 2.5e-300, -0.0, 1e300]},
        {"a": [1.0, float("nan")], "b": [float("-inf")]},
        {"a": [1, 2.0], "b": [True, 1.0], "c": [1.0, "x"], "d": [[1.0], [2.0]]},
        {"a": [np.float64(0.1), 3.0]},
        {"x": {"y": [1.0, {"z": None}], "w": "q\u00e9\n"}, "b": True, "s": "str"},
        {"n": None, "i": 3, "f": float("inf")},
        {1: [1.0]},
        # A point-shaped document: nested weights and labels.
        {
            "config": {"tol": 1e-3, "source.kind": "uniform", "betas.list": None, "units": "nats"},
            "beta": 4.5,
            "iterations": 15,
            "converged": True,
            "nu_star": {"weights": [0.25, 0.0, 0.75, 1e-300], "labels": [-1.0, -0.5, 0.5, 1.0]},
            "report": {"l_value": None, "verdict": "optimal", "detail": ""},
        },
        {"nu_star": {"weights": [0.5, 0.5], "labels": None}},
        {"a": {1: [1.0], "b": 2}, "c": [{2.5: "x"}, {"d": {None: [0.5]}}]},
        {"a": {"b": [np.float64(0.5), 1.0], "c": np.float64(2.0)}, "d": [[np.float64(1e-5)]]},
        {"a": {"b": [1.0, float("inf")], "c": [[float("nan")], [float("-inf"), 2.0]]}},
        {"a": [[], {}, [[]], [1.0, [2.0, [3.0]]], ("t", 1.0)]},
    ],
)
def test_json_text_is_indented_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"


json_leaves = st.one_of(
    st.floats(), st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(), st.booleans(), st.none(), st.text(max_size=5),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.floats(), max_size=6),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
def test_json_text_is_indented_json_dumps_on_any_nested_document(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_sinkhorn_output_is_indented_json(tmp_path, capsys):
    nu_file = tmp_path / "half.txt"
    nu_file.write_text("0.5\n0.5\n")
    _, out, _ = run_cli(
        capsys,
        ["sinkhorn", "--source.p", "0.3", "--beta", "2.0", "--nu", str(nu_file)],
    )
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_sinkhorn_beta_zero(tmp_path, capsys):
    nu_file = tmp_path / "half.txt"
    nu_file.write_text("0.5\n0.5\n")
    code, out, _ = run_cli(
        capsys,
        ["sinkhorn", "--source.p", "0.5", "--beta", "0", "--nu", str(nu_file)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["logF"] == [0.0, 0.0]
    assert doc["logG"] == [0.0, 0.0]
    assert abs(doc["logK"]) <= 1e-15
    assert abs(doc["J"]) <= 1e-14
    assert abs(doc["L"]) <= 1e-14


# --- compare ----------------------------------------------------------------


def test_compare_within_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "compare",
            "--oracle",
            "bernoulli",
            "--source.p",
            "0.3",
            "--betas.list",
            "1.0,1.5,2.0",
            "--tol",
            "1e-11",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distortion,rate,rate_oracle,abs_err"
    assert len(lines) == 5
    assert lines[-1].startswith("max_abs_err=")
    assert float(lines[-1].split("=")[1]) <= 1e-6
    errors = []
    for line in lines[1:-1]:
        cells = line.split(",")
        # 17 significant digits round-trip doubles exactly.
        for cell in cells:
            assert f"{float(cell):.17g}" == cell
        _, rate, rate_oracle, abs_err = map(float, cells)
        assert abs_err == abs(rate - rate_oracle)
        errors.append(abs_err)
    assert float(lines[-1].split("=")[1]) == max(errors)


def test_compare_bound_violation_exit_2(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "compare",
            "--oracle",
            "bernoulli",
            "--source.p",
            "0.3",
            "--betas.list",
            "1.0,2.0",
            "--compare.bound",
            "1e-20",
        ],
    )
    assert code == 2
    assert "max_abs_err=" in out


def test_compare_incompatible_oracle(capsys):
    code, _, err = run_cli(
        capsys,
        ["compare", "--oracle", "gaussian", "--betas.list", "1.0,2.0"],
    )
    assert code == 1
    assert "gaussian oracle" in err


def test_compare_gaussian_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "compare", "--oracle", "gaussian", "--source.kind", "gaussian",
            "--distortion.kind", "mse", "--source.points", "129", "--tol", "1e-6",
            "--betas.list", "1,2,4,8",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distortion,rate,rate_oracle,abs_err"
    assert len(lines) == 6
    # The 129-point grid source sits 2.8e-8 from the closed form.
    assert float(lines[-1].split("=")[1]) <= 1e-7


# --- units ------------------------------------------------------------------


def test_rates_convert_to_bits(capsys):
    argv = ["point", "--source.p", "0.5", "--beta", "2.0"]
    _, out_nats, _ = run_cli(capsys, argv)
    _, out_bits, _ = run_cli(capsys, argv + ["--units", "bits"])
    nats = json.loads(out_nats)
    bits = json.loads(out_bits)
    assert bits["rate"] == pytest.approx(nats["rate"] / LN2, abs=1e-15)
    assert bits["distortion"] == nats["distortion"]

    _, csv_nats, _ = run_cli(capsys, ["curve", "--betas.list", "1.0,2.0"])
    _, csv_bits, _ = run_cli(
        capsys, ["curve", "--betas.list", "1.0,2.0", "--units", "bits"]
    )
    for row_n, row_b in zip(
        csv_nats.splitlines()[1:], csv_bits.splitlines()[1:]
    ):
        rate_n = float(row_n.split(",")[2])
        rate_b = float(row_b.split(",")[2])
        assert rate_b == pytest.approx(rate_n / LN2, abs=1e-15)
        assert row_n.split(",")[1] == row_b.split(",")[1]


# --- law files --------------------------------------------------------------


def test_load_nu_layouts(tmp_path):
    one_col = tmp_path / "one.txt"
    one_col.write_text("0.25\n0.75\n")
    nu = load_nu(str(one_col), labels=np.array([0.0, 1.0]))
    assert nu.weights.tolist() == [0.25, 0.75]
    assert nu.labels.tolist() == [0.0, 1.0]

    two_col = tmp_path / "two.txt"
    two_col.write_text("-1.0 0.25\n2.5 0.75\n")
    nu = load_nu(str(two_col))
    assert nu.labels.tolist() == [-1.0, 2.5]

    bare = tmp_path / "bare.json"
    bare.write_text("[0.25, 0.75]")
    assert load_nu(str(bare)).weights.tolist() == [0.25, 0.75]

    labelled = tmp_path / "labelled.json"
    labelled.write_text('{"weights": [0.25, 0.75], "labels": [0.0, 1.0]}')
    nu = load_nu(str(labelled))
    assert nu.labels.tolist() == [0.0, 1.0]

    nested = tmp_path / "point.json"
    nested.write_text('{"beta": 1.0, "nu_star": {"weights": [0.25, 0.75]}}')
    assert load_nu(str(nested)).weights.tolist() == [0.25, 0.75]


def test_load_nu_failures(tmp_path):
    with pytest.raises(InvalidInputError):
        load_nu(str(tmp_path / "missing.txt"))
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("not numbers at all\n")
    with pytest.raises(InvalidInputError):
        load_nu(str(garbled))
    no_weights = tmp_path / "no_weights.json"
    no_weights.write_text('{"beta": 1.0}')
    with pytest.raises(InvalidInputError):
        load_nu(str(no_weights))
    bad_mass = tmp_path / "bad_mass.txt"
    bad_mass.write_text("0.25\n0.25\n")
    with pytest.raises(InvalidInputError):
        load_nu(str(bad_mass))


# --- repeatability and the stop rule ---------------------------------------


def test_repeated_curve_runs_write_identical_output(capsys):
    argv = [
        "curve",
        "--betas.list",
        "0.5,1.0,2.0,4.0",
        "--warm_start",
        "false",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


GAUSSIAN_BETA_10 = [
    "--source.kind", "gaussian", "--source.points", "257", "--distortion.kind", "mse",
    "--tol", "5e-4",
]


def test_solve_stops_on_the_returned_law_slack(capsys):
    # The returned law is the plain step after the stop rule holds.  These
    # solves once stopped after 4 iterations, reporting converged, with a
    # returned law of certificate slack 9.9e-3.
    code, out, _ = run_cli(capsys, ["point", "--beta", "10"] + GAUSSIAN_BETA_10)
    doc = json.loads(out)
    assert code == 0
    assert doc["converged"]
    assert doc["report"]["certificate_slack"] <= 5e-4
    code, out, _ = run_cli(capsys, ["curve", "--betas.list", "10"] + GAUSSIAN_BETA_10)
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert code == 0
    assert row["converged"] == "1"
    assert float(row["certificate_slack"]) <= 5e-4


def test_commands_in_one_process_match_separate_runs(tmp_path, capsys):
    # main() reuses one parser across calls; a run of commands in one
    # process must write what each writes in a fresh process.
    nu_file = tmp_path / "law.txt"
    nu_file.write_text("0.6\n0.4\n")
    law = ["--source.p", "0.3", "--beta", "2.0", "--nu", str(nu_file)]
    runs = [["check"] + law, ["sinkhorn"] + law, ["curve", "--betas.list", "0.5,2.0"]]
    separate = []
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "rdbridge.io_cli"] + argv,
            capture_output=True,
            text=True,
            timeout=120,
        )
        separate.append((proc.returncode, proc.stdout))
    assert [run_cli(capsys, argv)[:2] for argv in runs] == separate
    # A usage error returns 1, and the next command is unchanged.
    assert main(["check", "--no-such-flag"]) == 1
    capsys.readouterr()
    assert run_cli(capsys, runs[0])[:2] == separate[0]


# --- module entry point -----------------------------------------------------


def test_module_entry_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rdbridge.io_cli", "curve", "--betas.list", "1.0,2.0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("beta,distortion,rate")


def test_a_tight_point_writes_the_same_bytes_on_one_and_two_blas_threads():
    # The interior point pins one BLAS thread, so the host's thread count
    # does not reach the last digits of the artifact.
    argv = [
        sys.executable, "-m", "rdbridge.io_cli", "point", "--source.kind", "gaussian",
        "--source.points", "257", "--distortion.kind", "mse", "--beta", "4",
    ]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


PLATEAU_POINT = ["point", "--source.p", "0.1", "--distortion", "0.0999"]
INTERIOR_POINT_END = (
    r"interior point ends after \d+ iterations: beta \S+, \|D - target\| \S+, "
    r"gap \S+, slack \S+, residual \S+"
)


def test_log_level_debug_shows_the_target_solve_and_leaves_the_output_alone(capsys, caplog):
    code, plain, _ = run_cli(capsys, PLATEAU_POINT)
    assert code == 0
    assert not [r for r in caplog.records if r.levelno < logging.WARNING]
    try:
        code, out, _ = run_cli(capsys, PLATEAU_POINT + ["--log-level", "DEBUG"])
    finally:
        logging.getLogger("rdbridge").setLevel(logging.NOTSET)
    assert code == 0
    assert out == plain
    messages = [r.getMessage() for r in caplog.records if r.name == "rdbridge.blahut"]
    [end] = [m for m in messages if m.startswith("interior point ends")]
    assert re.fullmatch(INTERIOR_POINT_END, end)


def test_log_level_sends_records_to_stderr_only(capsys):
    _, plain, _ = run_cli(capsys, PLATEAU_POINT)
    proc = subprocess.run(
        [sys.executable, "-m", "rdbridge.io_cli", *PLATEAU_POINT, "--log-level", "debug"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == plain
    ends = [line for line in proc.stderr.splitlines() if "interior point ends" in line]
    assert len(ends) == 1
    assert re.fullmatch(r"DEBUG rdbridge.blahut: " + INTERIOR_POINT_END, ends[0])


def test_import_loads_no_scipy():
    # scipy.special costs about 0.2 s of CPU to import, scipy.optimize about
    # 0.8 s; only an interior-point solve (a target distortion, or a tight
    # fixed slope on three or more columns) loads scipy.linalg, on first use.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, rdbridge, rdbridge.io_cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_two_column_compare_loads_no_scipy(tmp_path):
    # A Bernoulli compare sweep runs only two-column solves, which need no
    # LAPACK; scipy.linalg alone takes about 0.3 s to import.
    out = tmp_path / "compare.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from rdbridge.io_cli import main; "
            f"code = main(['compare', '--oracle', 'bernoulli', '--out', {str(out)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert out.read_text().startswith("distortion,rate,rate_oracle")


def test_no_command_prints_help(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 1
    assert "curve" in err


@pytest.mark.parametrize("argv", [["--help"], ["curve", "--help"]])
def test_help_returns_0(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.startswith("usage: rdbridge")
