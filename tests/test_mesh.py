"""Mesh substrate: quadrature, differentiation, pointwise algebra, emission."""

import copy
import pickle

import numpy as np
import pytest

from spps import (
    Mesh,
    MeshMismatchError,
    SampledFunction,
    StencilError,
    VanishingValueError,
    constant,
    coordinate,
    cumulative_integral,
    differentiate,
    format_csv,
    ones,
    reciprocal,
    tabulate,
)
from spps.mesh import QUADRATURE_DEGREE, centered_margin, ladder_strides


# -- mesh construction -------------------------------------------------------

def test_mesh_basic():
    m = Mesh(0.0, 1.0, 401, 0)
    assert m.h == pytest.approx(1 / 400)
    assert m.x0 == 0.0
    assert m.nodes[0] == 0.0 and m.nodes[-1] == 1.0


def test_mesh_default_basepoint_is_middle():
    m = Mesh(0.0, 1.0, 401)
    assert m.i0 == 200
    assert m.x0 == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [8, 10, 11, 12, 100])
def test_mesh_rejects_bad_node_counts(bad):
    with pytest.raises(ValueError):
        Mesh(0.0, 1.0, bad)


def test_mesh_rejects_reversed_interval():
    with pytest.raises(ValueError):
        Mesh(1.0, 0.0, 401)


@pytest.mark.parametrize("x1, x2", [
    (0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)])
def test_mesh_rejects_non_finite_spacing(x1, x2):
    # these used to warn and build NaN nodes; the last overflows x2 - x1
    with pytest.raises(ValueError, match="finite"):
        Mesh(x1, x2, 9)


def test_mesh_rejects_basepoint_outside():
    with pytest.raises(ValueError):
        Mesh(0.0, 1.0, 401, 401)


def test_with_basepoint_snaps_to_node():
    m = Mesh.with_basepoint(0.0, 1.0, 401, 0.50001)
    assert m.i0 == 200
    # the nearest node, also for basepoints far outside the interval
    for x0 in [-1e308, *np.linspace(-0.1, 1.1, 97), 1e308]:
        m = Mesh.with_basepoint(0.0, 1.0, 401, x0)
        assert m.i0 == np.argmin(np.abs(m.nodes - np.clip(x0, 0.0, 1.0)))


def test_decimate_preserves_basepoint():
    m = Mesh(0.0, 1.0, 401, 200)
    d = m.decimate(4)
    assert d.n == 101 and d.i0 == 50
    assert d.x0 == m.x0


def test_decimate_refuses_dropping_basepoint():
    m = Mesh(0.0, 1.0, 401, 1)
    with pytest.raises(ValueError):
        m.decimate(4)


@pytest.mark.parametrize("x1, x2, x0", [
    (0.0, 0.0, 0.0), (0.0, 1.0, np.inf), (0.0, 1.0, -np.inf), (0.0, 1.0, np.nan)])
def test_with_basepoint_refuses_degenerate_input(x1, x2, x0):
    with pytest.raises(ValueError):
        Mesh.with_basepoint(x1, x2, 401, x0)


def test_mesh_equality_ignores_default_basepoint_spelling():
    m = Mesh(0, 1, 9)
    assert m == Mesh(0.0, 1.0, 9, 4)
    assert hash(m) == hash(Mesh(0.0, 1.0, 9, 4))
    assert {m: "a"}[Mesh(0.0, 1.0, 9, 4)] == "a"
    assert m != Mesh(0.0, 1.0, 9, 3)


def test_fields_cannot_be_assigned():
    m = Mesh(0.0, 1.0, 9)
    f = ones(m)
    with pytest.raises(AttributeError):
        m.n = 13
    with pytest.raises(AttributeError):
        f.values = np.zeros(9)


@pytest.mark.parametrize("copier", [
    copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))])
def test_copies_are_rebuilt_read_only(copier):
    m = Mesh(0.0, 1.0, 9, 2)
    f = tabulate(m, np.sin)
    m2, f2 = copier(m), copier(f)
    assert m2 == m and m2.h == m.h and np.array_equal(m2.nodes, m.nodes)
    assert f2.mesh == m and np.array_equal(f2.values, f.values)
    for arr in (m2.nodes, f2.mesh.nodes, f2.values):
        with pytest.raises(ValueError):
            arr[0] = 1.0


# -- sampled functions --------------------------------------------------------

def test_values_are_immutable():
    f = ones(Mesh(0.0, 1.0, 9))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_nonfinite_values_rejected():
    m = Mesh(0.0, 1.0, 9)
    vals = np.ones(9)
    vals[3] = np.inf
    with pytest.raises(VanishingValueError) as exc:
        SampledFunction(m, vals)
    assert exc.value.node == 3


def test_mesh_mismatch_raises():
    f = ones(Mesh(0.0, 1.0, 9))
    g = ones(Mesh(0.0, 1.0, 13))
    with pytest.raises(MeshMismatchError):
        f + g


def test_pointwise_algebra():
    m = Mesh(0.0, 1.0, 101)
    x = coordinate(m)
    f = x * x + 1.0
    g = 2.0 * x - 0.5
    np.testing.assert_allclose((f + g).values, m.nodes**2 + 2 * m.nodes + 0.5)
    np.testing.assert_allclose((f - g).values, m.nodes**2 - 2 * m.nodes + 1.5)
    np.testing.assert_allclose((f * g).values, (m.nodes**2 + 1) * (2 * m.nodes - 0.5))
    np.testing.assert_allclose((f * 2j).values, 2j * (m.nodes**2 + 1))
    # scalar - and / in both orders; / by a function keeps reciprocal's floor
    np.testing.assert_allclose((f - 2.0).values, m.nodes**2 - 1.0)
    np.testing.assert_allclose((2.0 - f).values, 1.0 - m.nodes**2)
    np.testing.assert_allclose((f / 2.0).values, (m.nodes**2 + 1) / 2.0)
    np.testing.assert_allclose((2.0 / f).values, 2.0 / (m.nodes**2 + 1))
    np.testing.assert_allclose((g / f).values, (2 * m.nodes - 0.5) / (m.nodes**2 + 1))
    with pytest.raises(ZeroDivisionError):
        f / 0
    with pytest.raises(VanishingValueError):
        1.0 / x


@pytest.mark.parametrize("other", ["2", [1.0], None])
def test_unsupported_operands_raise_type_error(other):
    f = ones(Mesh(0.0, 1.0, 9))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(f, other)
        with pytest.raises(TypeError):
            op(other, f)


def test_reciprocal_of_exponential():
    m = Mesh(0.0, 1.0, 101)
    f = tabulate(m, np.exp)
    np.testing.assert_allclose(reciprocal(f).values, np.exp(-m.nodes), rtol=1e-14)


def test_reciprocal_names_offending_node():
    m = Mesh(-1.0, 1.0, 101)
    f = coordinate(m)  # vanishes at x=0
    with pytest.raises(VanishingValueError) as exc:
        reciprocal(f)
    assert exc.value.node == 50
    assert exc.value.x == pytest.approx(0.0)


# -- cumulative quadrature ----------------------------------------------------

def test_integral_of_constant():
    m = Mesh(0.0, 1.0, 101, 0)
    F = cumulative_integral(constant(m, 3.0 - 1.0j))
    np.testing.assert_allclose(F.values, (3.0 - 1.0j) * m.nodes, atol=1e-14)


def test_integral_anchored_at_basepoint():
    m = Mesh(0.0, 2.0, 401, 100)
    F = cumulative_integral(tabulate(m, np.sin))
    assert F.values[m.i0] == 0.0  # exactly


def test_cubic_is_exact():
    # integral of x^3 from basepoint 0 is x^4/4, exact up to rounding
    m = Mesh(0.0, 1.0, 401, 0)
    x = m.nodes
    F = cumulative_integral(tabulate(m, lambda t: t**3))
    np.testing.assert_allclose(F.values, x**4 / 4, atol=5e-16)


@pytest.mark.parametrize("p", range(QUADRATURE_DEGREE + 1))
def test_polynomial_exactness_up_to_rule_degree(p):
    m = Mesh(0.0, 1.0, 101, 0)
    F = cumulative_integral(tabulate(m, lambda t: t**p))
    np.testing.assert_allclose(F.values, m.nodes ** (p + 1) / (p + 1), atol=2e-15)


def test_linearity_to_machine_precision():
    m = Mesh(0.0, 3.0, 201, 50)
    f = tabulate(m, lambda t: np.exp(1j * t))
    g = tabulate(m, lambda t: np.cos(3 * t) + t)
    a, b = 2.0 - 1.5j, -0.25j
    lhs = cumulative_integral(a * f + b * g)
    rhs = a * cumulative_integral(f) + b * cumulative_integral(g)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13 * max(1.0, lhs.max_abs())


def test_fundamental_theorem_consistency_with_exp():
    # F' recovers f, and error shrinks at 4th order or better with refinement
    errs = []
    for n in (101, 201):
        m = Mesh(0.0, 1.0, n, 0)
        f = tabulate(m, np.exp)
        F = cumulative_integral(f)
        np.testing.assert_allclose(F.values, np.exp(m.nodes) - 1.0, atol=1e-12)
        errs.append(np.max(np.abs(differentiate(F).values - f.values)))
    assert errs[1] < errs[0] / 10


def test_integral_from_midpoint_matches_closed_form():
    m = Mesh(0.0, np.pi, 401)
    F = cumulative_integral(tabulate(m, np.sin))
    expected = -np.cos(m.nodes) + np.cos(m.x0)
    np.testing.assert_allclose(F.values, expected, atol=1e-13)


# -- differentiation ----------------------------------------------------------

def test_derivative_of_sine_fourth_order():
    m = Mesh(0.0, np.pi, 401)
    d = differentiate(tabulate(m, np.sin))
    err = np.max(np.abs(d.values - np.cos(m.nodes)))
    assert err <= 25 * m.h**4


def test_higher_derivatives_of_polynomials_are_exact():
    m = Mesh(0.0, 1.0, 101)
    x = m.nodes
    f = tabulate(m, lambda t: t**5)
    np.testing.assert_allclose(differentiate(f, 2).values, 20 * x**3, atol=1e-9)
    np.testing.assert_allclose(differentiate(f, 3).values, 60 * x**2, atol=1e-7)
    np.testing.assert_allclose(differentiate(f, 4).values, 120 * x, atol=1e-5)


def test_derivative_convergence_order():
    errs = []
    for n in (101, 201):
        m = Mesh(0.0, 1.0, n)
        d = differentiate(tabulate(m, lambda t: np.exp(2 * t)), 2)
        errs.append(np.max(np.abs(d.values - 4 * np.exp(2 * m.nodes))))
    assert errs[1] < errs[0] / 10


def test_stencil_error_on_tiny_mesh():
    m = Mesh(0.0, 1.0, 9)
    with pytest.raises(StencilError):
        differentiate(ones(m), 8)


def test_centered_margin():
    assert centered_margin(1) == 2
    assert centered_margin(2) == 3
    assert centered_margin(4) == 4


# -- emission -----------------------------------------------------------------

def test_csv_format_roundtrip_precision():
    m = Mesh(0.0, 1.0, 9, 0)
    f = tabulate(m, lambda t: np.exp(1j * t) / 3)
    text = format_csv(f)
    lines = text.strip().split("\n")
    assert lines[0] == "x,re,im"
    assert len(lines) == 10
    x, re, im = (float(s) for s in lines[4].split(","))
    assert x == m.nodes[3]
    assert re == f.values[3].real  # 17 significant digits round-trips doubles
    assert im == f.values[3].imag


def test_csv_deterministic():
    m = Mesh(0.0, 1.0, 9, 0)
    f = tabulate(m, lambda t: np.sqrt(2) * t)
    assert format_csv(f) == format_csv(f)


# -- ladder strides -----------------------------------------------------------

def test_ladder_strides_for_standard_meshes():
    m = Mesh(0.0, 1.0, 801, 400)
    strides = ladder_strides(m)
    assert strides[0] == 1
    assert 8 in strides
    for s in strides[1:]:
        sub = m.decimate(s)
        assert 65 <= sub.n <= 161
