"""End-to-end command-line runs, exit codes, and output determinism."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spps.factorization
from spps.cli import main


DIRICHLET = """
[problem]
order = 2
interval = 0 3.141592653589793
phi1 = 0
phi2 = 0

[mesh]
nodes = 401

[seed_system]
y1 = 1
y2 = x - 1.5707963267948966

[boundary]
row1 = 1 0 ; 0 0
row2 = 0 0 ; 1 0

[initial]
values = 0, 1
lambda = -4

[eig]
region = interval -10 -0.5
samples = 501
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(DIRICHLET, encoding="utf-8")
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify ------------------------------------------------------------------------

def test_verify_ok(config, capsys):
    code, out, _ = run_main(capsys, "verify", "--config", config)
    assert code == 0
    report = json.loads(out)
    assert report["residual_max"] <= 1e-6
    assert report["wronskian_min"] > 1e-6
    assert report["retries"] == 0


def test_verify_fails_on_impossible_tolerance(config, capsys):
    code, out, err = run_main(capsys, "verify", "--config", config,
                              "--tol", "1e-30")
    assert code == 2
    assert out == ""
    assert "residual" in err


# -- factorize / powers ------------------------------------------------------------

def test_factorize_writes_factors(config, capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_main(capsys, "factorize", "--config", config,
                            "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)
    assert len(report["files"]) == 3  # factors 0..n for n = 2
    first = out_dir / "factor0.csv"
    header, row, *_ = first.read_text().splitlines()
    assert header == "x,re,im"
    x, re, im = row.split(",")
    assert float(x) == 0.0 and float(re) == 1.0 and float(im) == 0.0


@pytest.mark.parametrize("order", [5, 30])
def test_powers_reports_count(config, capsys, tmp_path, order):
    # the file's queries read fewer than 30 terms, the dump all up to M
    code, out, _ = run_main(capsys, "powers", "--config", config,
                            "--order", str(order), "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["truncation"] == order
    assert report["count"] == len(report["files"]) == 2 * (order + 1)


def test_powers_writes_files(config, capsys, tmp_path):
    out_dir = tmp_path / "powers"
    code, out, _ = run_main(capsys, "powers", "--config", config,
                            "--order", "3", "--out", str(out_dir),
                            "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["files"]) == 8
    data = json.loads((out_dir / "power_k1_m0.json").read_text())
    assert data["re"][0] == 1.0  # X_1^(0) = 1 everywhere


# -- solve -------------------------------------------------------------------------

def test_solve_to_stdout_csv(config, capsys):
    code, out, _ = run_main(capsys, "solve", "--config", config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 402
    # y'' = -4y, y(pi/2) = 0, y'(pi/2) = 1 -> y = -sin(2x)/2
    xs, res = [], []
    for line in lines[1:]:
        x, re, im = line.split(",")
        xs.append(float(x))
        res.append(float(re))
        assert float(im) == 0.0
    np.testing.assert_allclose(res, -np.sin(2 * np.array(xs)) / 2, atol=1e-12)


def test_solve_json_format(config, capsys):
    code, out, _ = run_main(capsys, "solve", "--config", config,
                            "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"x", "re", "im"}
    assert len(data["x"]) == 401


def test_solve_deterministic(config, capsys):
    _, first, _ = run_main(capsys, "solve", "--config", config)
    _, second, _ = run_main(capsys, "solve", "--config", config)
    assert first == second


def test_solve_past_truncation_exit_code(tmp_path, capsys):
    path = tmp_path / "p.ini"
    path.write_text(DIRICHLET.replace("lambda = -4", "lambda = 1e4"),
                    encoding="utf-8")
    code, out, err = run_main(capsys, "solve", "--config", str(path))
    assert code == 3
    assert "truncation" in err and out == ""


def test_solve_requires_initial_section(tmp_path, capsys):
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\n"
                    "phi1 = 0\nphi2 = 0\n", encoding="utf-8")
    code, _, err = run_main(capsys, "solve", "--config", str(path))
    assert code == 1
    assert "initial" in err


# -- eig ---------------------------------------------------------------------------

def test_eig_reports_eigenvalues(config, capsys):
    code, out, _ = run_main(capsys, "eig", "--config", config)
    assert code == 0
    report = json.loads(out)
    got = [e["lambda_re"] for e in report["eigenvalues"]]
    np.testing.assert_allclose(got, [-9.0, -4.0, -1.0], atol=1e-7)
    assert all(e["lambda_im"] == 0.0 for e in report["eigenvalues"])
    assert all(e["residual"] < 1e-6 for e in report["eigenvalues"])
    assert report["rejected"] == []


def test_eig_deterministic(config, capsys):
    _, first, _ = run_main(capsys, "eig", "--config", config)
    _, second, _ = run_main(capsys, "eig", "--config", config)
    assert first == second


def test_eig_region_truncation_exit_code(config, capsys):
    code, _, err = run_main(capsys, "eig", "--config", config,
                            "--order", "3")
    assert code == 3
    assert "truncation" in err


def test_eig_disk_past_every_truncation_exit_code(tmp_path, capsys):
    # the tail ratio is NaN there; it used to surface as a bare ValueError
    path = tmp_path / "p.ini"
    path.write_text(DIRICHLET.replace("interval -10 -0.5", "disk 0 0 1e200"),
                    encoding="utf-8")
    code, out, err = run_main(capsys, "eig", "--config", str(path))
    assert code == 3
    assert "raise the truncation" in err and out == ""


def test_eig_requires_boundary(tmp_path, capsys):
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\n"
                    "phi1 = 0\nphi2 = 0\n[eig]\nregion = interval -10 -1\n",
                    encoding="utf-8")
    code, _, err = run_main(capsys, "eig", "--config", str(path))
    assert code == 1
    assert "boundary" in err


# -- error paths -------------------------------------------------------------------

def test_missing_config_file(capsys):
    code, _, err = run_main(capsys, "verify", "--config", "/no/such/file.ini")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["factorize", "powers", "solve"])
def test_unwritable_output_exit_code(config, capsys, tmp_path, command):
    # an existing file as --out used to end in a FileExistsError traceback
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, out, err = run_main(capsys, command, "--config", config,
                              "--out", str(taken))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {taken}")


def test_bad_expression_exit_code(tmp_path, capsys):
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\n"
                    "phi1 = 2*x +\nphi2 = 0\n", encoding="utf-8")
    code, _, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 1
    assert "offset 5" in err


def test_pole_in_coefficient_exit_code(tmp_path, capsys):
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = -1 1\n"
                    "phi1 = 1/x\nphi2 = 0\n", encoding="utf-8")
    code, _, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 1
    assert "not finite" in err


@pytest.mark.parametrize("nodes, flags, message", [
    (400, [], "node count must be 1 (mod 4), got 400"),
    (401, ["--mesh", "7"], "mesh needs at least 9 nodes, got 7")])
def test_bad_node_count_is_a_config_error(tmp_path, capsys, nodes, flags,
                                          message):
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\n"
                    f"phi2 = 0\n[mesh]\nnodes = {nodes}\n", encoding="utf-8")
    code, _, err = run_main(capsys, "verify", "--config", str(path), *flags)
    assert code == 1
    assert f"[mesh]: {message}" in err


@pytest.mark.parametrize("flag, section, key, value, message", [
    ("--order", "series", "truncation", "0",
     "[series]: truncation must be positive"),
    ("--order", "series", "truncation", "-1",
     "[series]: truncation must be positive"),
    ("--seed", "random", "seed", "-1", "[random]: seed must be nonnegative"),
    ("--tol", "tolerances", "residual", "-1",
     "[tolerances]: residual must be positive"),
    # the seed-draw budget and the Wronskian floor are constants: the keys
    # are refused at any value
    (None, "random", "max_retries", "2", "[random]: unknown keys max_retries"),
    (None, "tolerances", "wronskian_floor", "1e-7",
     "[tolerances]: unknown keys wronskian_floor")])
def test_out_of_range_value_is_a_config_error(config, tmp_path, capsys, flag,
                                              section, key, value, message):
    # a flag and the INI key it overrides fail alike, before any numerics
    path = tmp_path / "p.ini"
    path.write_text(DIRICHLET + f"[{section}]\n{key} = {value}\n",
                    encoding="utf-8")
    runs = [[str(path)]] + ([[config, flag, value]] if flag else [])
    for argv in runs:
        code, out, err = run_main(capsys, "eig", "--config", *argv)
        assert (code, out) == (1, "")
        assert message in err


@pytest.mark.parametrize("old, new, message", [
    ("interval = 0 3.141592653589793", "interval = 0 inf",
     "[problem]: interval endpoints must be finite"),
    ("interval = 0 3.141592653589793", "interval = -1e308 1e308",
     "[mesh]: need finite x1, x2 and spacing"),
    ("samples = 501", "samples = 20000",
     "[eig]: samples must be in 2..16384, got 20000")])
def test_value_refused_before_any_numerics(tmp_path, capsys, old, new,
                                           message):
    # each used to exit 2: a numpy warning and a NaN node, or a contour
    # integral that never started ("diverge")
    path = tmp_path / "p.ini"
    path.write_text(DIRICHLET.replace(old, new), encoding="utf-8")
    for command in ("solve", "eig"):
        code, out, err = run_main(capsys, command, "--config", str(path))
        assert (code, out) == (1, "")
        assert message in err


def test_bad_seed_system_exit_code(tmp_path, capsys):
    # y1, y2 dependent: numerical validation failure, not a config error
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\n"
                    "phi1 = 0\nphi2 = 0\n[seed_system]\ny1 = 1\ny2 = 2\n",
                    encoding="utf-8")
    code, _, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 2


def test_wrong_seed_solutions_exit_code(tmp_path, capsys):
    # exp(x) does not solve y'' = 0
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\n"
                    "phi1 = 0\nphi2 = 0\n[seed_system]\ny1 = exp(x)\ny2 = x\n",
                    encoding="utf-8")
    code, _, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 2
    assert "residual" in err


def test_wronskian_floor_reaches_factorization(tmp_path, capsys, monkeypatch):
    # W_1 = y1 dips to 5e-7 of its maximum at x = 1: below the floor of
    # 1e-6, above 1e-7, which the run reads at call time
    monkeypatch.setattr(spps.factorization, "WRONSKIAN_FLOOR", 1e-7)
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\n"
                    "phi1 = 0\nphi2 = 0\n"
                    "[seed_system]\ny1 = 1.0000005 - x\ny2 = 1\n",
                    encoding="utf-8")
    code, out, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 0, err
    assert json.loads(out)["wronskian_min"] == pytest.approx(5e-7, rel=1e-6)


def test_small_wronskian_floor_is_honoured(tmp_path, capsys, monkeypatch):
    # W_1 = y1 dips to 1e-8 of its maximum at x = 1, above a floor of 1e-9;
    # the factor W_0 W_2 / W_1^2 divides by W_1 twice, and WRONSKIAN_FLOOR
    # is the only floor that W_1 meets on the way
    monkeypatch.setattr(spps.factorization, "WRONSKIAN_FLOOR", 1e-9)
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\n"
                    "phi1 = 0\nphi2 = 0\n"
                    "[seed_system]\ny1 = 1.00000001 - x\ny2 = 1\n",
                    encoding="utf-8")
    code, out, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 0, err
    assert json.loads(out)["wronskian_min"] == pytest.approx(1e-8, rel=1e-6)


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_seed_changing_sign_between_nodes_is_refused(tmp_path, capsys, command):
    # y1 = cos(x) passes the floor at every node, yet vanishes at x = pi/2
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 3\n"
                    "phi1 = 0\nphi2 = 1\n"
                    "[seed_system]\ny1 = cos(x)\ny2 = sin(x)\n"
                    "[initial]\nvalues = 0, 1\nlambda = -3\n",
                    encoding="utf-8")
    code, out, err = run_main(capsys, command, "--config", str(path))
    assert (code, out) == (2, "")
    assert "W_1" in err and "node 209 (x=1.5675)" in err


def test_residual_tolerance_reaches_random_seed(tmp_path, capsys):
    text = "[problem]\norder = 2\ninterval = 0 1\nphi1 = x\nphi2 = 1\n"
    path = tmp_path / "p.ini"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_main(capsys, "verify", "--config", str(path))
    assert code == 0
    residual = json.loads(out)["residual_max"]
    path.write_text(text + f"[tolerances]\nresidual = {residual / 10:.3e}\n",
                    encoding="utf-8")
    code, out, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "residual" in err


def test_verify_reports_seed_truncations(config, tmp_path, capsys):
    code, out, _ = run_main(capsys, "verify", "--config", config)
    assert json.loads(out)["truncations"] == []  # an explicit seed
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 3\ninterval = 0 1\nphi1 = x\n"
                    "phi2 = 1\nphi3 = 2\n", encoding="utf-8")
    # the seed's series at -1 stops by its own tail, whatever the truncation
    for argv in ((), ("--order", "4")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_main(capsys, "verify", "--config", str(path), *argv)
        assert code == 0
        assert json.loads(out)["truncations"] == [8, 8]

def test_wronskian_floor_reaches_random_seed(tmp_path, capsys):
    # W_2 = exp(-40 x) spans e^-40 on [0, 1], below the floor at x = 1, and
    # no redraw can lift it
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\nphi1 = 40\n"
                    "phi2 = 1\n", encoding="utf-8")
    code, out, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "W_2" in err and "node 400 (x=1)" in err


def test_basepoint_off_the_coarse_strides_verifies(tmp_path, capsys):
    # i0 = 1016 divides none of the ladder's coarse strides 10, 16, 20, 25;
    # the full mesh alone measured a residual of 2.9e-2 and exit 2
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 4\ninterval = 0 1\n"
                    "phi1 = 0.3*cos(x)\nphi2 = 0.2\nphi3 = -0.1*sin(x)\n"
                    "phi4 = 0.4\nbasepoint = 0.635\n[mesh]\nnodes = 1601\n",
                    encoding="utf-8")
    code, out, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 0, err
    assert json.loads(out)["residual_max"] <= 1e-6


def test_large_disk_eig_exit_code(tmp_path, capsys):
    # a disk whose degree-130 determinant expansion would overflow a double
    # is searched like any other: y'' = lam y, lam = -(k pi)^2, k = 1..5
    path = tmp_path / "p.ini"
    path.write_text("[problem]\norder = 2\ninterval = 0 1\n"
                    "phi1 = 0\nphi2 = 0\n[mesh]\nnodes = 201\n"
                    "[series]\ntruncation = 60\n"
                    "[boundary]\nrow1 = 1 0 ; 0 0\nrow2 = 0 0 ; 1 0\n"
                    "[eig]\nregion = disk 0 0 300\n", encoding="utf-8")
    code, out, err = run_main(capsys, "eig", "--config", str(path))
    assert code == 0, err
    got = sorted(e["lambda_re"] for e in json.loads(out)["eigenvalues"])
    np.testing.assert_allclose(
        got, [-(np.pi * k) ** 2 for k in range(5, 0, -1)], rtol=1e-8)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- console entry point -----------------------------------------------------------

def test_installed_script_runs(config):
    proc = subprocess.run(
        [sys.executable, "-m", "spps.cli", "verify", "--config", config],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["retries"] == 0
