"""Initial-value propagation and eigenvalue search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spps.powers
from spps import Mesh, constant, ones, tabulate, zeros
from spps.errors import RegionTruncationError
from spps.factorization import OperatorSpec, SolutionSystem, operator_residual
from spps.powers import evaluate_derivatives, evaluate_solution, formal_powers
from spps.spectral import (
    BoundaryConditions,
    CharacteristicFunction,
    Disk,
    EigenOptions,
    Interval,
    Workspace,
    build_workspace,
    characteristic_polynomials,
    eigenfunction,
    find_eigenvalues,
    _bisect_roots,
    solve_initial_value,
    with_truncation,
)

from oracles import integrate_ivp, refine_eigenvalue


def monomial_seed(op):
    mesh = op.mesh
    funcs = []
    fact = 1.0
    for k in range(op.n):
        if k > 0:
            fact *= k
        funcs.append(tabulate(mesh, lambda t, k=k, f=fact: (t - mesh.x0) ** k / f))
    return SolutionSystem.from_functions(op, funcs)


def pure_workspace(mesh, n, truncation=30):
    op = OperatorSpec(n, tuple(zeros(mesh) for _ in range(n)), ones(mesh))
    return build_workspace(op, seed=monomial_seed(op), truncation=truncation)


def dirichlet_workspace(nmesh=401, truncation=30, basepoint=None):
    if basepoint is None:
        mesh = Mesh(0.0, np.pi, nmesh)
    else:
        mesh = Mesh(0.0, np.pi, nmesh, basepoint)
    return pure_workspace(mesh, 2, truncation)


def double_well_workspace():
    """y'' - 50 exp(-8 (x - pi)^2) y = lam y on [0, 2 pi], random seed."""
    mesh = Mesh(0.0, 2 * np.pi, 801)
    well = tabulate(mesh, lambda t: -50.0 * np.exp(-8.0 * (t - np.pi) ** 2))
    op = OperatorSpec(2, (zeros(mesh), well), ones(mesh))
    return build_workspace(op, truncation=60, rng_seed=0)


def scalar_bisect(fn, lo, hi, flo, fhi):
    """Reference: the one-bracket-at-a-time bisection, fn called per point."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) != (fmid < 0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-15 * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def assert_bisect_matches_scalar(fn, lo, hi):
    """_bisect_roots gives the scalar roots and evaluates the same points."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    scalar_points = []

    def scalar_fn(x):
        scalar_points.append(x)
        return fn(np.array([x]))[0]

    want = np.array([scalar_bisect(scalar_fn, a, b, fn(np.array([a]))[0],
                                   fn(np.array([b]))[0])
                     for a, b in zip(lo.tolist(), hi.tolist())])
    batch_points = []

    def batch_fn(x):
        batch_points.extend(x.tolist())
        return fn(x)

    got = _bisect_roots(batch_fn, lo, hi, fn(lo), fn(hi))
    assert np.array_equal(got, want)
    assert sorted(batch_points) == sorted(scalar_points)


# -- initial-value problems -------------------------------------------------------

def test_ivp_hyperbolic_closed_form():
    ws = pure_workspace(Mesh(0.0, 1.0, 401, 0), 2)
    y = solve_initial_value(ws, [1.0, 0.0], 4.0)  # y'' = 4y, y(0)=1, y'(0)=0
    np.testing.assert_allclose(y.values, np.cosh(2 * ws.mesh.nodes), rtol=1e-12)
    y = solve_initial_value(ws, [0.0, 2.0], 4.0)
    np.testing.assert_allclose(y.values, np.sinh(2 * ws.mesh.nodes), atol=1e-12)


def test_ivp_from_interior_basepoint():
    ws = pure_workspace(Mesh(-1.0, 1.0, 401), 2)
    y = solve_initial_value(ws, [1.0, 3.0], -9.0)
    x = ws.mesh.nodes
    want = np.cos(3 * x) + np.sin(3 * x)
    np.testing.assert_allclose(y.values, want, atol=1e-10)


def test_ivp_complex_initial_data_against_reference():
    mesh = Mesh(0.0, 1.0, 401, 0)
    op = OperatorSpec(2, (constant(mesh, -3.0), constant(mesh, 2.0)), ones(mesh))
    sys = SolutionSystem.from_functions(
        op, [tabulate(mesh, np.exp), tabulate(mesh, lambda t: np.exp(2 * t))])
    ws = build_workspace(op, seed=sys)
    lam = 1.5 + 0.5j
    y0 = [1.0 - 1.0j, 0.25j]
    y = solve_initial_value(ws, y0, lam)
    ref = integrate_ivp(2, [lambda x: -3.0, lambda x: 2.0], lambda x: 1.0,
                        0.0, 1.0, y0, lam, t_eval=mesh.nodes)
    assert np.max(np.abs(y.values - ref[0])) < 1e-8


def test_ivp_rejects_wrong_count():
    ws = pure_workspace(Mesh(0.0, 1.0, 401, 0), 2)
    with pytest.raises(ValueError):
        solve_initial_value(ws, [1.0, 0.0, 0.0], 1.0)


def test_ivp_third_order_against_reference():
    mesh = Mesh(0.0, 1.0, 401)
    op = OperatorSpec(
        3, (tabulate(mesh, lambda t: t), ones(mesh), tabulate(mesh, np.sin)),
        ones(mesh))
    ws = build_workspace(op, truncation=25, rng_seed=5)
    lam = -0.75
    y0 = [1.0, -1.0, 0.5]
    y = solve_initial_value(ws, y0, lam)
    x0 = mesh.x0
    fwd = integrate_ivp(3, [lambda x: x, lambda x: 1.0, np.sin],
                        lambda x: 1.0, x0, 1.0, y0, lam,
                        t_eval=mesh.nodes[mesh.i0:])
    bwd = integrate_ivp(3, [lambda x: x, lambda x: 1.0, np.sin],
                        lambda x: 1.0, x0, 0.0, y0, lam,
                        t_eval=mesh.nodes[mesh.i0::-1])
    ref = np.concatenate([bwd[0][::-1][:-1], fwd[0]])
    assert np.max(np.abs(y.values - ref)) < 1e-6


# -- boundary conditions ------------------------------------------------------------

def test_separated_layout():
    bc = BoundaryConditions.separated(4, [0, 2], [0, 2])
    assert bc.left[0, 0] == 1.0 and bc.left[1, 2] == 1.0
    assert bc.right[2, 0] == 1.0 and bc.right[3, 2] == 1.0
    assert np.count_nonzero(bc.left) == 2
    assert np.count_nonzero(bc.right) == 2


def test_dependent_rows_rejected():
    left = np.array([[1.0, 0.0], [1.0, 0.0]])
    right = np.zeros((2, 2))
    with pytest.raises(ValueError):
        BoundaryConditions(left, right)


def test_separated_validates_orders():
    with pytest.raises(ValueError):
        BoundaryConditions.separated(2, [0], [2])
    with pytest.raises(ValueError):
        BoundaryConditions.separated(2, [0], [0, 1])


# -- characteristic function ---------------------------------------------------------

def direct_boundary_matrix(ws, bc, lam):
    """Boundary matrix from full-mesh series values at the two end nodes."""
    n, last = ws.n, ws.mesh.n - 1
    left = np.zeros((n, n), dtype=complex)
    right = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        for ell in range(n):
            if ell == 0:
                y = evaluate_solution(ws.table, ws.b0, k, lam)
            else:
                y = evaluate_derivatives(ws.table, ws.coeffs, k, lam, ell)
            left[ell, k - 1] = y.values[0]
            right[ell, k - 1] = y.values[last]
    return bc.left @ left + bc.right @ right


def test_polynomials_match_direct_matrix():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    charfn = characteristic_polynomials(ws, bc)
    for lam in (0.5, -3.0, 2.0 - 1.0j):
        direct = direct_boundary_matrix(ws, bc, lam)
        viapoly = charfn.matrix(lam)
        assert np.max(np.abs(direct - viapoly)) < 1e-12 * max(
            1.0, np.max(np.abs(direct)))
        assert charfn.det(lam) == pytest.approx(
            complex(np.linalg.det(direct)), rel=1e-10)


def test_matrices_match_per_entry_horner():
    rng = np.random.default_rng(7)
    poly = rng.standard_normal((4, 4, 46)) + 1j * rng.standard_normal((4, 4, 46))
    charfn = CharacteristicFunction(poly)
    lams = np.array([0.3, -2.0 + 0.5j, 7.5, -11.0j, 25.0])
    want = np.zeros((len(lams), 4, 4), dtype=complex)
    for s, lam in enumerate(lams):
        for i in range(4):
            for k in range(4):
                acc = 0j
                for c in poly[i, k][::-1]:
                    acc = acc * lam + c
                want[s, i, k] = acc
    assert np.array_equal(charfn._matrices(lams), want)
    assert np.array_equal(charfn.det_samples(lams), np.linalg.det(want))
    for lam in lams:
        assert charfn.det(lam) == charfn.det_samples([lam])[0]


@pytest.mark.parametrize("size", [1, 3, 8, 33])
def test_det_samples_batch_equals_single_points(size):
    rng = np.random.default_rng(size)
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    poly = rng.standard_normal((4, 4, 41)) + 1j * rng.standard_normal((4, 4, 41))
    lams = np.concatenate([rng.uniform(-30.0, 5.0, size),
                           rng.uniform(-5.0, 5.0, size) * (1 + 1j)])
    for charfn in (characteristic_polynomials(ws, bc),
                   CharacteristicFunction(poly)):
        batch = charfn.det_samples(lams)
        single = [charfn.det_samples([lam])[0] for lam in lams]
        assert np.array_equal(batch, single)
        assert np.array_equal(charfn.det_samples(lams.real[:size]),
                              single[:size])


def test_determinant_roots_at_known_eigenvalues():
    # Dirichlet on [0, pi]: det vanishes at lam = -k^2 and nowhere between
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    charfn = characteristic_polynomials(ws, bc)
    for k in (1, 2, 3):
        assert abs(charfn.det(-(k**2)).real) < 1e-10
    assert abs(charfn.det(-2.5)) > 1e-3


def test_det_polynomial_agrees_with_det():
    ws = dirichlet_workspace(truncation=12)
    bc = BoundaryConditions.separated(2, [0], [0])
    charfn = characteristic_polynomials(ws, bc)
    coeffs = charfn.det_polynomial()
    for lam in (0.3, -1.2, 0.5 + 0.25j):
        horner = 0.0 + 0.0j
        for c in coeffs[::-1]:
            horner = horner * lam + c
        assert horner == pytest.approx(charfn.det(lam), rel=1e-9, abs=1e-15)


# -- interval eigenvalue search -------------------------------------------------------

def test_dirichlet_eigenvalues_on_interval():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-30.0, -0.5))
    got = result.values
    want = [-25.0, -16.0, -9.0, -4.0, -1.0]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.imag == 0.0
        assert g.real == pytest.approx(w, abs=1e-8)
    assert all(e.residual < 1e-6 for e in result.eigenvalues)
    assert result.rejected == ()


def test_bisect_roots_matches_scalar_bisection():
    def fn(x):  # exact zeros at -3, 0.5 and 2; a rounded one near 0.3
        return (x - 0.5) * (x + 3.0) * (x - 2.0) * (x - 0.3)

    one = 1.0 + 4 * np.finfo(float).eps
    lo = [0.5, -4.0, 1.5, 1.0, 1.0, 0.2, 0.1, -3.7, 1.2, 3.0]
    hi = [1.0, -3.0, 2.5, one, np.nextafter(1.0, 2.0), 0.45, 0.4, -2.1, 2.9, 4.0]
    # zero at lo, zero at hi, zero at the first midpoint, below the width
    # floor, adjacent floats, the rounded root from two brackets, the root -3
    # and the root 2 from non-dyadic brackets, no sign change
    assert_bisect_matches_scalar(fn, lo, hi)
    got = _bisect_roots(fn, lo, hi, fn(np.array(lo)), fn(np.array(hi)))
    assert got[0] == 0.5 and got[1] == -3.0 and got[2] == 2.0
    assert abs(got[5] - 0.3) < 1e-15


def test_bisect_roots_of_no_brackets_calls_nothing():
    def fn(x):
        raise AssertionError("evaluated with no open bracket")

    empty = np.array([])
    assert _bisect_roots(fn, empty, empty, empty, empty).shape == (0,)
    # every bracket closes before a midpoint is needed
    got = _bisect_roots(fn, [0.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 0.0])
    assert np.array_equal(got, [0.0, 2.0])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(roots=st.lists(st.integers(-24, 24), min_size=1, max_size=4),
       scale=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
       shift=st.sampled_from([0.0, 1e-3, -0.37]),
       brackets=st.lists(st.tuples(st.floats(-3.5, 3.5), st.floats(0.0, 4.0)),
                         min_size=1, max_size=12))
def test_bisect_roots_matches_scalar_property(roots, scale, shift, brackets):
    # roots at multiples of 1/8, so midpoints often hit them exactly
    coeffs = scale * np.polynomial.polynomial.polyfromroots(np.array(roots) / 8)
    coeffs[0] += shift

    def fn(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    lo = [a for a, _ in brackets]
    hi = [a + w for a, w in brackets]
    assert_bisect_matches_scalar(fn, lo, hi)


@pytest.mark.parametrize("case", ["dirichlet", "double_well"])
def test_interval_search_batches_determinant_calls(case, monkeypatch):
    if case == "dirichlet":
        ws, region, least = dirichlet_workspace(), Interval(-30.0, -0.5), 5
    else:
        ws, region, least = double_well_workspace(), Interval(-20.0, -0.1), 6
    bc = BoundaryConditions.separated(2, [0], [0])
    calls = {"det": 0, "det_samples": 0}
    for name in calls:
        method = getattr(CharacteristicFunction, name)

        def counting(self, lams, name=name, method=method):
            calls[name] += 1
            return method(self, lams)

        monkeypatch.setattr(CharacteristicFunction, name, counting)
    result = find_eigenvalues(ws, bc, region)
    assert len(result.eigenvalues) >= least
    # 1 grid, 1 for both persistence window ends, and at most 64 steps for
    # each of the coarse and refined bisections, however many brackets
    assert calls["det"] == 0
    assert calls["det_samples"] <= 131


def test_empty_region_yields_nothing():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(1.0, 20.0))
    assert result.eigenvalues == ()


def test_boundary_margin_excludes_endpoint_eigenvalues():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-4.0, -1.0))
    assert result.values == []


def test_max_count_truncates():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    opts = EigenOptions(max_count=2)
    result = find_eigenvalues(ws, bc, Interval(-30.0, -0.5), opts)
    assert len(result.eigenvalues) == 2


def test_random_seed_basis_gives_same_eigenvalues():
    # the same problem through the random seed construction: eigenvalues are
    # properties of the operator, not of the basis used to expand it
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, truncation=30, rng_seed=17)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-10.0, -0.5))
    got = result.values
    assert len(got) == 3
    for g, w in zip(got, [-9.0, -4.0, -1.0]):
        assert g.real == pytest.approx(w, abs=1e-7)


def test_hinged_beam_eigenvalues():
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(4, tuple(zeros(mesh) for _ in range(4)), ones(mesh))
    ws = build_workspace(op, seed=monomial_seed(op), truncation=30)
    bc = BoundaryConditions.separated(4, [0, 2], [0, 2])
    result = find_eigenvalues(ws, bc, Interval(0.5, 20.0))
    got = result.values
    assert len(got) == 2
    assert got[0].real == pytest.approx(1.0, abs=1e-8)
    assert got[1].real == pytest.approx(16.0, abs=1e-8)


def test_region_truncation_error_when_series_cannot_reach():
    ws = dirichlet_workspace(truncation=4)
    bc = BoundaryConditions.separated(2, [0], [0])
    with pytest.raises(RegionTruncationError):
        find_eigenvalues(ws, bc, Interval(-100.0, 0.0))


def test_interval_mode_refuses_complex_problems():
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)),
                      constant(mesh, 1.0j))  # weight i
    ws = build_workspace(op, seed=monomial_seed(op))
    bc = BoundaryConditions.separated(2, [0], [0])
    with pytest.raises(ValueError, match="disk"):
        find_eigenvalues(ws, bc, Interval(-10.0, -0.5))


# -- eigenfunctions ---------------------------------------------------------------------

def test_eigenfunction_is_sine():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    y = eigenfunction(ws, bc, -4.0)
    s = np.sin(2 * ws.mesh.nodes)
    err = min(np.max(np.abs(y.values - s)), np.max(np.abs(y.values + s)))
    assert err < 1e-10
    assert np.max(np.abs(y.values)) == pytest.approx(1.0)


def test_eigenfunction_residual_small_only_at_eigenvalue():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    y_eig = eigenfunction(ws, bc, -9.0)
    y_off = eigenfunction(ws, bc, -7.5)
    assert operator_residual(ws.op, y_eig, lam=-9.0) < 1e-8
    # off-eigenvalue the best kernel vector still fails the boundary problem,
    # but the residual check is about the equation, which any combination of
    # basis solutions satisfies; verify the boundary values expose it instead
    assert abs(y_off.values[0]) + abs(y_off.values[-1]) > 1e-3


def test_eigenfunction_from_characteristic_function():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    fine = with_truncation(ws, ws.truncation + 5)
    charfn_fine = characteristic_polynomials(fine, bc)
    for lam in (-4.0, -9.0 + 1e-9j, -7.5):
        assert np.array_equal(eigenfunction(fine, charfn_fine, lam).values,
                              eigenfunction(fine, bc, lam).values)
    with pytest.raises(ValueError, match="does not belong"):
        eigenfunction(ws, charfn_fine, -4.0)


# -- disk eigenvalue search ---------------------------------------------------------------

def test_disk_mode_finds_real_eigenvalues():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Disk(-5.0 + 0.0j, 4.9))
    got = sorted(result.values, key=lambda z: z.real)
    want = [-9.0, -4.0, -1.0]
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.real == pytest.approx(w, abs=1e-7)
        assert g.imag == 0.0


def test_disk_mode_complex_weight():
    # y'' = lam * i * y with Dirichlet ends: i lam = -k^2, lam = i k^2
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), constant(mesh, 1.0j))
    ws = build_workspace(op, seed=monomial_seed(op), truncation=35)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Disk(3.0j, 2.5))
    got = result.values
    assert len(got) == 2
    got = sorted(got, key=lambda z: z.imag)
    assert got[0] == pytest.approx(1.0j, abs=1e-7)
    assert got[1] == pytest.approx(4.0j, abs=1e-7)


def test_disk_empty_when_no_eigenvalues_inside():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Disk(10.0 + 0.0j, 5.0))
    assert result.eigenvalues == ()


@pytest.mark.parametrize("disk", [Disk(0.0, 300.0), Disk(0, 300)],
                         ids=["float", "int"])
def test_disk_too_large_for_truncation_raises(disk):
    # y'' = lam y on [0, 1]: the fine determinant polynomial has degree 130,
    # and 300**130 overflows a double (or wraps an int64 for an int radius)
    mesh = Mesh(0.0, 1.0, 201)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, truncation=60)
    bc = BoundaryConditions.separated(2, [0], [0])
    found = find_eigenvalues(ws, bc, Interval(-300.0, -0.5)).values
    np.testing.assert_allclose(
        sorted(z.real for z in found), [-(np.pi * k) ** 2 for k in range(5, 0, -1)],
        rtol=1e-8)
    with pytest.raises(RegionTruncationError, match="radius 300 .* degree-130"):
        find_eigenvalues(ws, bc, disk)


# -- truncation refresh ------------------------------------------------------------------

def test_with_truncation_extends_table():
    ws = dirichlet_workspace(truncation=10)
    ws2 = with_truncation(ws, 15)
    assert ws2.truncation == 15
    assert ws2.fac is ws.fac
    assert with_truncation(ws, 10) is ws
    rebuilt = formal_powers(ws.fac, ws.op.r, 15)
    for k in (1, 2):
        row, old = ws2.table.x[k - 1], ws.table.x[k - 1]
        assert len(row) == len(rebuilt.x[k - 1]) == 15 * 2 + k
        for got, want in zip(row, rebuilt.x[k - 1]):
            assert np.array_equal(got.values, want.values)
        assert all(a is b for a, b in zip(row, old))


@pytest.mark.parametrize("n", [2, 3])
def test_with_truncation_integrates_only_new_powers(n, monkeypatch):
    ws = pure_workspace(Mesh(0.0, 1.0, 201), n, truncation=8)
    calls = []
    original = spps.powers.cumulative_integral

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(spps.powers, "cumulative_integral", counting)
    with_truncation(ws, 13)
    # each of the n solution indices gains 5 n formal powers, one
    # integration each; a rebuild would integrate all (M + 5) n + k - 1
    assert len(calls) == n * 5 * n


def test_with_truncation_lower_keeps_prefix():
    ws = dirichlet_workspace(truncation=10)
    low = with_truncation(ws, 6)
    assert low.truncation == 6
    for k in (1, 2):
        row, old = low.table.x[k - 1], ws.table.x[k - 1]
        assert len(row) == 6 * 2 + k
        assert all(a is b for a, b in zip(row, old))
    with pytest.raises(ValueError):
        with_truncation(ws, -1)


# -- against the shooting oracle ------------------------------------------------------------

def test_eigenvalues_match_shooting_oracle():
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(
        2, (zeros(mesh), tabulate(mesh, lambda t: 0.3 * np.cos(t))), ones(mesh))
    ws = build_workspace(op, truncation=35, rng_seed=2)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-12.0, 2.0))
    assert len(result.eigenvalues) >= 3
    for eig in result.eigenvalues:
        ref = refine_eigenvalue(
            2, [lambda x: 0.0, lambda x: 0.3 * np.cos(x)], lambda x: 1.0,
            0.0, np.pi, bc.left, bc.right, eig.lam)
        assert abs(eig.lam - ref) < 1e-4 * max(1.0, abs(ref))
