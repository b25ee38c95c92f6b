"""Mesh substrate: quadrature, differentiation, emission."""

import copy
import pickle
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spps.mesh
from spps import (
    Mesh,
    OperatorSpec,
    SampledFunction,
    StencilError,
    VanishingValueError,
    build_workspace,
    constant,
    cumulative_integral,
    differentiate,
    find_eigenvalues,
    format_csv,
    load_config,
    ones,
    tabulate,
)
from spps.mesh import (
    QUADRATURE_DEGREE,
    _antiderivative,
    _centred_sums,
    centered_margin,
    ladder_strides,
)

from oracles import loop_antiderivative, loop_derivative


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


@pytest.mark.parametrize("n, i0, fragment", [
    (9.7, None, "node count must be an integer, got 9.7"),
    (9.0, None, "node count must be an integer"), (True, None, "node count"),
    (9, 2.5, "basepoint index 2.5"), (9, True, "basepoint index True")])
def test_mesh_refuses_counts_that_are_not_integers(n, i0, fragment):
    # Mesh(0, 1, 9.7) used to build 9 nodes, and i0 = 2.5 basepoint 2
    with pytest.raises(ValueError, match=fragment):
        Mesh(0.0, 1.0, n, i0)
    m = Mesh(0.0, 1.0, np.int64(9), np.int64(2))  # numpy integers are integers
    assert (m.n, m.i0) == (9, 2) and type(m.n) is int and type(m.i0) is int


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


@pytest.mark.parametrize("stride", [2.5, 2.0, True])
def test_decimate_refuses_strides_that_are_not_integers(stride):
    # decimate(2.5) and decimate(2.0) used to keep every second node, and
    # decimate(True) every node
    with pytest.raises(ValueError, match=f"stride {stride!r}"):
        Mesh(0.0, 1.0, 17).decimate(stride)
    assert Mesh(0.0, 1.0, 17).decimate(np.int64(2)).n == 9


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
    lhs = cumulative_integral(SampledFunction(m, a * f.values + b * g.values))
    rhs = a * cumulative_integral(f).values + b * cumulative_integral(g).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-13 * max(1.0, lhs.max_abs())


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


@pytest.mark.parametrize("order", [1.5, 1.0, True])
def test_differentiate_refuses_orders_that_are_not_integers(order):
    # each of these used to give the first derivative
    f = tabulate(Mesh(0.0, 1.0, 17), np.sin)
    with pytest.raises(ValueError, match=f"must be an integer >= 1, got {order!r}"):
        differentiate(f, order)
    assert np.array_equal(differentiate(f, np.int64(1)).values,
                          differentiate(f, 1).values)


def test_stencil_error_on_tiny_mesh():
    m = Mesh(0.0, 1.0, 9)
    with pytest.raises(StencilError):
        differentiate(ones(m), 8)


def test_centered_margin():
    assert centered_margin(1) == 2
    assert centered_margin(2) == 3
    assert centered_margin(4) == 4


# -- kernels against the tap loops ---------------------------------------------
# The kernels must add their taps in the loops' order: these compare with ==,
# so a numpy or BLAS build that sums in another order fails here instead of
# moving every result in its last bits.

KERNEL_NODES = [9, 13, 401, 1601]


def kernel_samples(n, seed):
    """Random complex samples at magnitudes 1e-5, 1 and 1e5, magnitudes
    mixed from 1e-5 to 1e5 node by node, and real samples."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return [z * 1e-5, z, z * 1e5, z * 10.0 ** rng.uniform(-5, 5, n),
            z.real * 1e3, z.imag * 1e-4]


@pytest.mark.parametrize("n", KERNEL_NODES)
def test_quadrature_matches_tap_loop(n):
    m = Mesh(-1.0, 2.0, n)
    for v in kernel_samples(n, n):
        v = v.astype(np.complex128)  # as every caller passes them
        for i0 in sorted({0, 1, n // 3, m.i0, n - 2, n - 1}):
            want = loop_antiderivative(v, m.h, i0)
            assert np.all(_antiderivative(v, m.h, i0) == want)
            f = SampledFunction(replace(m, i0=i0), v)
            assert np.all(cumulative_integral(f).values == want)


def test_every_quadrature_caller_passes_complex_samples(monkeypatch):
    # the clamped rows are complex, so real samples would be summed by
    # complex dots, unlike the tap loop; no package path may pass them
    original = spps.mesh._antiderivative
    dtypes = []

    def recording(v, h, i0):
        dtypes.append(v.dtype)
        return original(v, h, i0)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spps" and \
                getattr(module, "_antiderivative", None) is original:
            monkeypatch.setattr(module, "_antiderivative", recording)
    problems = Path(__file__).resolve().parents[1] / "bench" / "problems"
    for path in sorted(problems.glob("*.ini")):
        cfg = load_config(str(path))
        find_eigenvalues(cfg.make_workspace(), cfg.make_boundary(), cfg.region)
    m = Mesh(0.0, 1.0, 401)
    op = OperatorSpec(4, tuple(tabulate(m, lambda x, a=a: 0.5 * np.cos(a * x))
                               for a in range(4)), ones(m))
    build_workspace(op, truncation=20)
    assert len(dtypes) > 1000 and set(dtypes) == {np.dtype(np.complex128)}


@pytest.mark.parametrize("n", KERNEL_NODES)
def test_stencil_sums_match_tap_loop(n):
    m = Mesh(-1.0, 2.0, n)
    for v in kernel_samples(n, n + 1):
        f = SampledFunction(m, v)
        for order in range(1, 7):
            half = centered_margin(order)
            if n <= 2 * half:
                with pytest.raises(StencilError):
                    differentiate(f, order)
                continue
            want = loop_derivative(f.values, m.h, order)
            assert np.all(differentiate(f, order).values == want)
            # the residual ladder's windows start at the margins of orders
            # up to 6, and a window of one node is the smallest
            want = loop_derivative(v, m.h, order)
            for start in range(half, min(centered_margin(6), n // 2) + 1):
                for stop in (n - start, start + 1):
                    got = _centred_sums(v, order, start, stop) / m.h ** order
                    assert np.all(got == want[start:stop])


def test_quadrature_of_an_infinite_imaginary_part_names_its_first_window():
    # the first segment whose window holds node 20, as with the tap loop
    m = Mesh(0.0, 1.0, 41, 0)
    v = np.ones(m.n, dtype=np.complex128)
    v[20] = complex(1.0, np.inf)
    f = ones(m)
    object.__setattr__(f, "values", v)  # past the constructor's check
    with np.errstate(invalid="ignore"), pytest.raises(VanishingValueError) as exc:
        cumulative_integral(f)
    assert exc.value.node == 17


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


@pytest.mark.parametrize("n, want", [(401, (1, 4, 5)), (801, (1, 5, 8, 10)),
                                     (1201, (1, 10, 12, 15)),
                                     (1601, (1, 10, 16, 20, 25))])
def test_ladders_of_the_benchmark_meshes(n, want):
    assert ladder_strides(Mesh(0.0, 1.0, n)) == want


@pytest.mark.parametrize("n, i0", [(401, 200), (801, 400), (801, 0), (1201, 600),
                                   (1601, 800), (1601, 13), (1601, 1017), (9, 4)])
def test_ladder_strides_are_every_stride_a_decimation_allows(n, i0):
    # the ladder reads no basepoint: a stride may drop it, so the strides
    # are those a mesh with its basepoint at node 0 can be decimated by
    m = Mesh(0.0, 1.0, n, i0)
    want = [1]
    for s in range(2, n):
        try:
            sub = Mesh(0.0, 1.0, n, 0).decimate(s)
        except ValueError:  # breaks the panels
            continue
        if 65 <= sub.n <= 161:
            want.append(s)
    assert ladder_strides(m) == tuple(want)
