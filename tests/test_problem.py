"""Problem files: parsing, validation, assembly."""

import configparser
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from spps.errors import ConfigError
from spps.problem import ProblemConfig, load_config, parse_config
from spps.spectral import Disk, Interval


DIRICHLET = """
[problem]
order = 2
interval = 0 3.141592653589793
phi1 = 0
phi2 = 0
weight = 1

[mesh]
nodes = 401

[series]
truncation = 30

[seed_system]
y1 = 1
y2 = x - 1.5707963267948966

[boundary]
row1 = 1 0 ; 0 0
row2 = 0 0 ; 1 0

[eig]
region = interval -10 -0.5
samples = 501
"""


def parse_text(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return parse_config(parser)


def test_full_example_parses():
    cfg = parse_text(DIRICHLET)
    assert cfg.order == 2
    assert cfg.interval == (0.0, 3.141592653589793)
    assert cfg.phi == ("0", "0")
    assert cfg.nodes == 401
    assert cfg.truncation == 30
    assert cfg.seeds == ("1", "x - 1.5707963267948966")
    assert cfg.boundary_rows == (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    assert cfg.region == Interval(-10.0, -0.5)
    assert cfg.samples == 501


def test_defaults():
    cfg = parse_text("""
[problem]
order = 2
interval = 0 1
phi1 = 0
phi2 = x
""")
    assert cfg.weight == "1"
    assert cfg.nodes == 401
    assert cfg.truncation == 30
    assert cfg.rng_seed == 0
    assert cfg.residual_tol == 1e-6
    assert cfg.seeds is None
    assert cfg.boundary_rows is None
    assert cfg.region is None


def test_file_round_trip(tmp_path):
    cfg = parse_text(DIRICHLET)
    path = tmp_path / "problem.ini"
    path.write_text(DIRICHLET, encoding="utf-8")
    again = load_config(str(path))
    assert again == cfg


def test_round_trip_with_disk_and_initial():
    cfg = parse_text("""
[problem]
order = 2
interval = 0 1
phi1 = 0
phi2 = -1
basepoint = 0.5

[initial]
values = 1, 2*i
lambda = -1 + 0.5*i

[eig]
region = disk 0 5 4.75
max_count = 3
""")
    assert cfg.basepoint == 0.5
    assert cfg.initial_values == (1.0, 2.0j)
    assert cfg.initial_lambda == -1 + 0.5j
    assert cfg.region == Disk(5.0j, 4.75)
    assert cfg.max_count == 3


def test_round_trip_of_every_setting():
    # every value unlike the others and unlike its default, so a key read
    # into the wrong field shows
    cfg = parse_text("""
[problem]
order = 2
interval = -1 2
phi1 = x
phi2 = -3
weight = 2 + x
basepoint = 0.25

[mesh]
nodes = 205

[series]
truncation = 17

[random]
seed = 3

[tolerances]
residual = 2.5e-07

[initial]
values = 0.5, -6
lambda = 8 - 9*i

[eig]
region = interval -40 -20
samples = 777
max_count = 5
""")
    defaults = ProblemConfig(order=2, interval=(-1.0, 2.0), phi=("x", "-3"))
    got = {"weight": "2 + x", "basepoint": 0.25, "nodes": 205,
           "truncation": 17, "rng_seed": 3,
           "residual_tol": 2.5e-7,
           "initial_values": (0.5, -6.0), "initial_lambda": 8 - 9j,
           "samples": 777, "max_count": 5}
    assert {field: getattr(cfg, field) for field in got} == got
    assert all(getattr(defaults, field) != value
               for field, value in got.items())


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/problem.ini")


@pytest.mark.parametrize("mutation, fragment", [
    ("[problem]\norder = 1\ninterval = 0 1\nphi1 = 0", "order"),
    ("[problem]\norder = 2\nphi1 = 0\nphi2 = 0", "interval"),
    ("[problem]\norder = 2\ninterval = 1 0\nphi1 = 0\nphi2 = 0", "increase"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0", "phi2"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\nphi3 = 0",
     "phi3"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "basepoint = 7", "basepoint"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[unknown]\nkey = 1", "unknown"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[mesh]\nnodes = ten", "integer"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[seed_system]\ny1 = 1", "expected 2"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[boundary]\nrow1 = 1 0 ; 0 0\nrow2 = 1 0", "LEFT ; RIGHT"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[boundary]\nrow1 = 1 ; 0\nrow2 = 0 1 ; 0 0", "coefficients"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[initial]\nvalues = 1", "expected 2"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[initial]\nlambda = 1", "values"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[eig]\nsamples = 100", "region"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[eig]\nregion = square 0 1", "region"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[eig]\nregion = interval 0 1\nmax_count = 0", "max_count"),
    ("[problem]\norder = 2\ninterval = 0 1\nphi1 = 0\nphi2 = 0\n"
     "[eig]\nregion = interval 0 1\nsamples = 1", "samples"),
])
def test_rejects_bad_config(mutation, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_text(mutation)


@pytest.mark.parametrize("field, value, fragment", [
    ("truncation", 0, "truncation"), ("truncation", -1, "truncation"),
    ("rng_seed", -1, "seed"),
    ("residual_tol", -1.0, "residual"), ("residual_tol", float("nan"), "residual"),
    ("samples", 1, "samples"),
    ("max_count", 0, "max_count")])
def test_replaced_fields_are_checked(field, value, fragment):
    cfg = parse_text(DIRICHLET)
    with pytest.raises(ConfigError, match=fragment):
        replace(cfg, **{field: value})


def test_missing_problem_section():
    with pytest.raises(ConfigError, match="problem"):
        parse_text("[mesh]\nnodes = 101")


def test_boundary_expression_coefficients():
    cfg = parse_text("""
[problem]
order = 2
interval = 0 1
phi1 = 0
phi2 = 0

[boundary]
row1 = 1+i, 0 ; 0, 0
row2 = 0, 0 ; 2^2, 0
""")
    assert cfg.boundary_rows[0][0] == (1 + 1j, 0)
    assert cfg.boundary_rows[1][1] == (4.0, 0)


# -- assembly ----------------------------------------------------------------------

def test_make_mesh_and_operator():
    cfg = parse_text(DIRICHLET)
    mesh = cfg.make_mesh()
    assert mesh.n == 401
    assert mesh.x1 == 0.0
    op = cfg.make_operator(mesh)
    assert op.n == 2
    assert np.all(op.r.values == 1.0)


def test_make_mesh_honors_basepoint():
    cfg = parse_text("""
[problem]
order = 2
interval = 0 1
phi1 = 0
phi2 = 0
basepoint = 0
""")
    assert cfg.make_mesh().i0 == 0


@pytest.mark.parametrize("nodes", [1, 7])
def test_make_mesh_with_basepoint_refuses_bad_node_count(nodes):
    cfg = replace(parse_text(DIRICHLET), basepoint=1.0, nodes=nodes)
    with pytest.raises(ConfigError, match="at least 9 nodes"):
        cfg.make_mesh()


def test_make_workspace_with_explicit_seed():
    cfg = parse_text(DIRICHLET)
    ws = cfg.make_workspace()
    assert ws.n == 2
    assert ws.truncation == 30
    assert ws.seed.retries == 0


def test_make_workspace_with_random_seed():
    cfg = parse_text("""
[problem]
order = 2
interval = 0 1
phi1 = 0
phi2 = -1

[random]
seed = 9
""")
    ws = cfg.make_workspace()
    assert ws.seed.residual_max <= 1e-6


def test_make_boundary():
    cfg = parse_text(DIRICHLET)
    bc = cfg.make_boundary()
    assert bc.n == 2
    assert bc.left[0, 0] == 1.0
    assert bc.right[1, 0] == 1.0


def test_make_boundary_rejects_dependent_rows():
    cfg = parse_text("""
[problem]
order = 2
interval = 0 1
phi1 = 0
phi2 = 0

[boundary]
row1 = 1 0 ; 0 0
row2 = 2 0 ; 0 0
""")
    with pytest.raises(ConfigError, match="dependent"):
        cfg.make_boundary()
