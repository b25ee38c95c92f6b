"""Initial-value propagation and eigenvalue search."""

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spps.powers
import spps.spectral
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
    _roots_in,
    _trimmed,
    build_workspace,
    characteristic_polynomials,
    eigenfunction,
    find_eigenvalues,
    solve_initial_value,
    with_truncation,
)

from oracles import integrate_ivp, refine_eigenvalue, shooting_determinant


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


def double_well_workspace(depth=50.0):
    """y'' - H exp(-8 (x - pi)^2) y = lam y on [0, 2 pi], random seed."""
    mesh = Mesh(0.0, 2 * np.pi, 801)
    well = tabulate(mesh, lambda t: -depth * np.exp(-8.0 * (t - np.pi) ** 2))
    op = OperatorSpec(2, (zeros(mesh), well), ones(mesh))
    return build_workspace(op, truncation=60, rng_seed=0)


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


@pytest.mark.parametrize("values", [[np.nan, 0.0], [np.inf, 1.0],
                                    [1.0, complex(0.0, np.nan)]])
def test_ivp_rejects_non_finite_values(values):
    # NaN used to surface as a vanishing value at node 0, inf as a numpy
    # divide warning in the forward substitution
    ws = dirichlet_workspace(nmesh=201)
    with pytest.raises(ValueError, match="finite initial values"):
        solve_initial_value(ws, values, -1.0)


@pytest.mark.parametrize("lam", [1e4, 1e30])
def test_ivp_past_its_truncation_raises(lam):
    # y'' = lam y from the middle of [0, pi] at M = 30: at 1e4 the tail
    # ratio is far above TAIL_ERROR and the sum misses the true max|y| of
    # cosh(50 pi) ~ 1e68 by many orders; at 1e30 the sums are not finite
    ws = dirichlet_workspace(nmesh=201, truncation=30)
    with pytest.raises(RegionTruncationError, match="raise the truncation"):
        solve_initial_value(ws, [1.0, 1.0], lam)


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


# -- built seeds whose Wronskians change sign between nodes --------------------------

def shifted_workspace(rng_seed):
    """y'' + 5y = lam y on [0, pi]: the first draw of the seed builder keeps
    y_1 real, and b_0 = y_1 changes sign between two nodes."""
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), constant(mesh, 5.0)), ones(mesh))
    return build_workspace(op, rng_seed=rng_seed)


@pytest.mark.parametrize("rng_seed, tol", [(0, 1e-7), (1, 1e-4)])
def test_seed_with_sign_change_between_nodes_is_redrawn(rng_seed, tol):
    ws = shifted_workspace(rng_seed)
    assert ws.seed.retries == 1
    y = solve_initial_value(ws, [0.0, 1.0], -4.0)  # y'' + 9y = 0
    x = ws.mesh.nodes - ws.mesh.x0
    assert np.max(np.abs(y.values - np.sin(3 * x) / 3)) < tol


def test_eigenvalues_with_a_redrawn_seed():
    ws = shifted_workspace(0)
    bc = BoundaryConditions.separated(2, [0], [0])
    got = find_eigenvalues(ws, bc, Interval(-30.0, -0.5)).values
    np.testing.assert_allclose(got, [-20.0, -11.0, -4.0], atol=1e-11)


def test_third_order_seed_with_sign_change_between_nodes_is_redrawn():
    mesh = Mesh(0.0, 2 * np.pi, 1201)
    op = OperatorSpec(3, (zeros(mesh), zeros(mesh), constant(mesh, 3.0)),
                      ones(mesh))
    ws = build_workspace(op, truncation=40, rng_seed=1)
    assert ws.seed.retries == 1
    lam, y0 = -2.0 + 1.0j, [1.0, -1.0, 0.5]
    y = solve_initial_value(ws, y0, lam)
    phi = [lambda x: 0.0, lambda x: 0.0, lambda x: 3.0]
    fwd = integrate_ivp(3, phi, lambda x: 1.0, mesh.x0, mesh.x2, y0, lam,
                        t_eval=mesh.nodes[mesh.i0:])
    bwd = integrate_ivp(3, phi, lambda x: 1.0, mesh.x0, mesh.x1, y0, lam,
                        t_eval=mesh.nodes[mesh.i0::-1])
    ref = np.concatenate([bwd[0][::-1][:-1], fwd[0]])
    assert np.max(np.abs(y.values - ref)) < 1e-8 * np.max(np.abs(ref))


def test_build_workspace_refuses_a_seed_of_another_operator():
    mesh = Mesh(0.0, np.pi, 401)
    pure = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    seed = monomial_seed(pure)
    finer = Mesh(0.0, np.pi, 405)
    for op in (OperatorSpec(2, (zeros(mesh), constant(mesh, 5.0)), ones(mesh)),
               OperatorSpec(2, (zeros(finer), zeros(finer)), ones(finer)),
               OperatorSpec(3, (zeros(mesh),) * 3, ones(mesh))):
        with pytest.raises(ValueError, match="another"):
            build_workspace(op, seed=seed)
    # the weight is free: the seed solves L y = 0
    weighted = OperatorSpec(2, pure.phi, constant(mesh, 2.0))
    ws = build_workspace(weighted, seed=seed)
    y = solve_initial_value(ws, [0.0, 1.0], -2.0)  # y'' + 4y = 0
    x = mesh.nodes - mesh.x0
    assert np.max(np.abs(y.values - np.sin(2 * x) / 2)) < 1e-10


def test_workspace_copies_solve_bitwise_equal():
    ws = dirichlet_workspace()
    want = solve_initial_value(ws, [0.0, 1.0], -4.0).values
    for copy_ in (copy.deepcopy(ws), pickle.loads(pickle.dumps(ws))):
        assert np.array_equal(solve_initial_value(copy_, [0.0, 1.0], -4.0).values,
                              want)
        assert not copy_.mesh.nodes.flags.writeable
        assert not copy_.op.r.values.flags.writeable
        assert not copy_.b0.values.flags.writeable


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


def test_separated_takes_generators():
    bc = BoundaryConditions.separated(4, (d for d in (0, 2)), iter([0, 2]))
    want = BoundaryConditions.separated(4, [0, 2], [0, 2])
    assert np.array_equal(bc.left, want.left)
    assert np.array_equal(bc.right, want.right)


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


@pytest.mark.parametrize("n", [6, 7, 8])
def test_det_polynomial_matches_det_beyond_order_6(n):
    # order 6 expands over permutations, orders 7 and 8 sample at roots of unity
    rng = np.random.default_rng(1)
    poly = rng.standard_normal((n, n, 4)) + 1j * rng.standard_normal((n, n, 4))
    charfn = CharacteristicFunction(poly)
    coeffs = charfn.det_polynomial()
    assert len(coeffs) == 3 * n + 1
    for lam in (0.7, -0.4 + 0.9j):
        horner = 0j
        for c in coeffs[::-1]:
            horner = horner * lam + c
        assert horner == pytest.approx(charfn.det(lam), rel=1e-10)


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


def test_accepted_residuals_are_those_of_eigenfunction():
    # a random seed mixes the basis, so each eigenvalue has its own null vector
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, truncation=30, rng_seed=0)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-10.0, -0.5))
    assert [round(v.real) for v in result.values] == [-9, -4, -1]
    fine = with_truncation(ws, ws.truncation + spps.spectral.PERSISTENCE_EXTRA)
    for e in result.eigenvalues:
        y = eigenfunction(fine, bc, e.lam)
        assert e.residual == operator_residual(op, y, lam=e.lam)


@pytest.mark.parametrize("case", ["dirichlet", "double_well"])
def test_interval_search_batches_matrix_evaluations(case, monkeypatch):
    if case == "dirichlet":
        ws, region, least = dirichlet_workspace(), Interval(-30.0, -0.5), 5
    else:
        ws, region, least = double_well_workspace(), Interval(-20.0, -0.1), 8
    bc = BoundaryConditions.separated(2, [0], [0])
    batches = []
    original = spps.spectral._log_derivative

    def counting(charfn, lams):
        batches.append(len(lams))
        return original(charfn, lams)

    monkeypatch.setattr(spps.spectral, "_log_derivative", counting)
    for name in ("det", "det_samples", "det_polynomial"):
        monkeypatch.setattr(CharacteristicFunction, name, None)
    result = find_eigenvalues(ws, bc, region)
    assert len(result.eigenvalues) == least
    # the contour levels, the joint polish steps and the Newton steps at the
    # raised truncation, each one batch however many roots there are
    contour = [size for size in batches if size >= 1001]
    assert 1 <= len(contour) <= 3 and len(batches) <= 10
    assert all(size == least for size in batches if size < 1001)


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


GATED = {
    "eigenfunction": lambda ws, bc: eigenfunction(ws, bc, -1e4),
    "evaluate_derivatives": lambda ws, bc: evaluate_derivatives(
        ws.table, ws.coeffs, 1, -1e4, 1),
    "evaluate_solution": lambda ws, bc: evaluate_solution(
        ws.table, ws.b0, 1, -1e4),
    "evaluate_solution_nan": lambda ws, bc: evaluate_solution(
        ws.table, ws.b0, 1, -1e30),
    "huge_disk": lambda ws, bc: find_eigenvalues(ws, bc, Disk(0, 1e200)),
    "huge_interval": lambda ws, bc: find_eigenvalues(
        ws, bc, Interval(-1e300, -1e299)),
}


@pytest.mark.parametrize("call", GATED.values(), ids=GATED.keys())
def test_every_series_sum_past_its_truncation_raises(call):
    # y'' = lam y, Dirichlet on [0, pi], M = 30: at -1e4 (the eigenvalue
    # -100^2) the sums miss their functions by orders of magnitude, and
    # past |lam| ~ 1e30 the tail ratio is NaN; none may return or warn
    # from numpy
    ws = dirichlet_workspace(nmesh=201, truncation=30)
    bc = BoundaryConditions.separated(2, [0], [0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RegionTruncationError, match="raise the truncation"):
            call(ws, bc)


def test_wrong_size_conditions_refused_before_the_tail(monkeypatch):
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(3, [0], [0, 1])
    calls = []
    monkeypatch.setattr(spps.spectral, "with_truncation",
                        lambda *args: calls.append(args))
    for region in (Interval(-300.0, -0.5), Interval(-10.0, -0.5)):
        with pytest.raises(ValueError, match="3-dimensional"):
            find_eigenvalues(ws, bc, region)
    assert calls == []


def test_interval_search_of_complex_problem_finds_nothing():
    # weight i: the eigenvalues i, 4i, 9i, ... lie off the real interval
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)),
                      constant(mesh, 1.0j))
    ws = build_workspace(op, seed=monomial_seed(op))
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-10.0, -0.5))
    assert result.eigenvalues == ()


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
def test_large_disk_matches_interval_search(disk):
    # y'' = lam y on [0, 1]: the determinant is never expanded as one
    # polynomial, so a disk whose degree-130 expansion would overflow (or
    # wrap an int64 for an int radius) is searched like the interval
    mesh = Mesh(0.0, 1.0, 201)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, truncation=60)
    bc = BoundaryConditions.separated(2, [0], [0])
    want = [-(np.pi * k) ** 2 for k in range(5, 0, -1)]
    found = find_eigenvalues(ws, bc, Interval(-300.0, -0.5)).values
    np.testing.assert_allclose(sorted(z.real for z in found), want, rtol=1e-8)
    found = find_eigenvalues(ws, bc, disk).values
    np.testing.assert_allclose(sorted(found, key=lambda z: z.real), want,
                               rtol=1e-8)


@pytest.mark.parametrize("region", [Interval(-1e5, -1.0), Disk(-5e4, 5e4)],
                         ids=["interval", "disk"])
def test_far_search_does_not_overflow(region):
    # y'' = lam y on [0, 0.1]: at |lam| ~ 1e5 the power lam**65 alone
    # overflows while the series, and T, stay finite
    mesh = Mesh(0.0, 0.1, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, truncation=60)
    bc = BoundaryConditions.separated(2, [0], [0])
    # the finite-difference residual of the tenth mode is about 1e-2
    result = find_eigenvalues(ws, bc, region, EigenOptions(residual_tol=0.1))
    want = [-(10 * np.pi * k) ** 2 for k in range(10, 0, -1)]
    np.testing.assert_allclose(result.values, want, rtol=1e-8)
    assert result.rejected == ()


def test_tail_checked_first_and_where_circles_reached(monkeypatch):
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    calls = []
    monkeypatch.setattr(spps.spectral, "with_truncation",
                        lambda *args: calls.append(args))
    with pytest.raises(RegionTruncationError):
        find_eigenvalues(ws, bc, Interval(-300.0, -0.5))
    assert calls == []
    monkeypatch.undo()
    # a circle far out, and estimates never confirmed in and off the region
    original = spps.spectral._roots_in

    def far_roots(*args, **kwargs):
        roots, _, far = original(*args, **kwargs)
        return roots, [-2.5 + 0j, -2.5 + 1j, -40.0 + 0j], far
    monkeypatch.setattr(spps.spectral, "_roots_in", far_roots)
    result = find_eigenvalues(ws, bc, Interval(-10.0, -0.5))
    np.testing.assert_allclose(result.values, [-9.0, -4.0, -1.0], atol=1e-8)
    assert result.rejected == ((-2.5, "counted but not confirmed as a root"),)
    monkeypatch.setattr(spps.spectral, "_roots_in",
                        lambda *args: ([], [], -300.0 + 0j))
    with pytest.raises(RegionTruncationError, match="lam=\\(-300"):
        find_eigenvalues(ws, bc, Interval(-10.0, -0.5))


def test_root_leaving_region_at_refined_truncation_is_rejected(monkeypatch):
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    original = spps.spectral._newton

    def drifting(charfn, z, steps, deflate):
        z, done = original(charfn, z, steps, deflate)
        return (z, done) if deflate else (z - 0.08, done)
    monkeypatch.setattr(spps.spectral, "_newton", drifting)
    monkeypatch.setattr(spps.spectral, "PERSISTENCE_TOL", 0.02)
    monkeypatch.setattr(spps.spectral, "MARGIN_TOL", 0.0)
    result = find_eigenvalues(ws, bc, Interval(-9.05, -0.5))
    lam, reason = result.rejected[0]
    assert lam == pytest.approx(-9.0) and reason == (
        "outside the region at refined truncation")


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
            assert np.array_equal(got, want)
        assert all(a is b for a, b in zip(row, old))


@pytest.mark.parametrize("n", [2, 3])
def test_with_truncation_integrates_only_new_powers(n, monkeypatch):
    ws = pure_workspace(Mesh(0.0, 1.0, 201), n, truncation=8)
    calls = []
    original = spps.powers._antiderivative

    def counting(v, h, i0):
        calls.append(v)
        return original(v, h, i0)

    monkeypatch.setattr(spps.powers, "_antiderivative", counting)
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


def test_with_truncation_norms_match_rebuild_and_share_prefix():
    ws = dirichlet_workspace(truncation=10)
    assert ws.table.norms == tuple(tuple(
        float(np.max(np.abs(x))) for x in row) for row in ws.table.x)
    for t in (15, 6):
        norms = with_truncation(ws, t).table.norms
        assert norms == formal_powers(ws.fac, ws.op.r, t).norms
        for row, old in zip(norms, ws.table.norms):
            assert all(a is b for a, b in zip(row, old))


def test_ivp_series_sums_stop_after_few_terms(monkeypatch):
    # an order-4 operator, basepoint mid-interval, M = 40 and |lam| <= 85:
    # each sum needs well under the 41 terms of the table
    mesh = Mesh(0.0, 1.0, 401)
    phi = (tabulate(mesh, lambda t: 0.3 * np.cos(2 * t)),
           tabulate(mesh, lambda t: 0.2 * t), constant(mesh, -0.4),
           tabulate(mesh, lambda t: 0.5 * np.sin(3 * t)))
    op = OperatorSpec(4, phi, tabulate(mesh, lambda t: 1.0 + 0.3 * np.cos(t)))
    ws = build_workspace(op, truncation=40, rng_seed=1)
    adds, counts = [], []
    add, total = spps.powers._kahan_add, spps.powers._solution_sum

    def counting_sum(table, k, lam):
        adds.clear()
        out = total(table, k, lam)
        counts.append(len(adds))
        return out

    monkeypatch.setattr(spps.powers, "_kahan_add",
                        lambda *args: adds.append(add(*args)))
    monkeypatch.setattr(spps.powers, "_solution_sum", counting_sum)
    lams = [85.0, -85.0, 85j, 60.0 - 60.0j, -60.0 + 60.0j, 0.0, 3.0 + 1.0j]
    for lam in lams:
        solve_initial_value(ws, [1.0, -0.5j, 0.25, 2.0], lam)
    assert len(counts) == 4 * len(lams)
    assert max(counts) <= 10


@pytest.mark.parametrize("bad", [
    {"samples": 0}, {"samples": -3}, {"samples": 1}, {"max_count": 0},
    {"max_count": -1}, {"residual_tol": 0.0}, {"residual_tol": -1e-4},
    {"residual_tol": float("nan")}, {"samples": 16385},
])
def test_eigen_options_reject_out_of_range_values(bad):
    # max_count=-1 used to drop the largest accepted eigenvalue, samples=0
    # to fail inside numpy, and samples past MAX_POINTS = 16384 to never
    # start the root count; ProblemConfig takes its [eig] limits from here
    with pytest.raises(ValueError, match=next(iter(bad))):
        EigenOptions(**bad)
    EigenOptions(samples=2, max_count=1, residual_tol=1e-300)
    EigenOptions(samples=16384)


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


# -- multiple eigenvalues and close pairs -------------------------------------------------

#: Sturm-count eigenvalues in [-20, -0.1] of the double well of depth H,
#: from ``python3 bench/references.py --well-depth H``.
DEEP_WELLS = {
    150.0: [-11.963125304700, -11.962579027115, -5.375316915296,
            -5.375162016082, -1.353110558115, -1.353081390467],
    300.0: [-12.627531391642, -12.627525704165, -5.664492183775,
            -5.664490526844, -1.424478625930, -1.424478308372],
}


@pytest.mark.parametrize("region", [Interval(-5.0, -0.5), Disk(-2.5, 2.0)],
                         ids=["interval", "disk"])
def test_periodic_double_eigenvalues_found_once(region):
    # y'' = lam y on [0, 2 pi], y(0) = y(2 pi), y'(0) = y'(2 pi): cos(k x)
    # and sin(k x) share lam = -k^2, a double root of det T
    mesh = Mesh(0.0, 2 * np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, truncation=40, rng_seed=0)
    bc = BoundaryConditions(np.eye(2), -np.eye(2))
    result = find_eigenvalues(ws, bc, region)
    assert len(result.values) == 2
    for got, want in zip(result.values, [-4.0, -1.0]):
        assert abs(got - want) < 1e-8
    assert result.rejected == ()


@pytest.mark.parametrize("depth", sorted(DEEP_WELLS))
def test_deep_double_well_finds_both_of_each_pair(depth):
    # the pairs split by 5e-4 down to 3e-7 (H = 300, near -1.42)
    ws = double_well_workspace(depth)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-20.0, -0.1))
    got = sorted(z.real for z in result.values)
    want = DEEP_WELLS[depth]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-5 * max(1.0, abs(w))
    # the shooting oracle's real determinant changes sign at each root of
    # the closest pair that it resolves (split 3e-5 at H = 150)
    if depth == 150.0:
        lo, hi = got[4], got[5]
        phi = [lambda x: 0.0,
               lambda x: -depth * np.exp(-8.0 * (x - np.pi) ** 2)]
        dets = [shooting_determinant(2, phi, lambda x: 1.0, 0.0, 2 * np.pi,
                                     bc.left, bc.right, lam).real
                for lam in (lo - 1e-5, 0.5 * (lo + hi), hi + 1e-5)]
        assert dets[0] * dets[1] < 0 and dets[1] * dets[2] < 0


def test_trimmed_polynomials_agree_within_reach():
    # entries like exp(a lam): the terms past about m = 35 stay below 1e-18
    # of the largest for |lam| <= 5 and are dropped; entry (0, 1) is zero
    rng = np.random.default_rng(3)
    factorial = np.cumprod(np.r_[1.0, np.arange(1.0, 60.0)])
    poly = (rng.standard_normal((2, 2, 60)) + 1j) / factorial
    poly[0, 1] = 0.0
    trimmed = _trimmed(CharacteristicFunction(poly), 5.0)
    assert 30 < trimmed.degree < 50
    lams = 5.0 * np.exp(2j * np.pi * rng.uniform(size=20)) * rng.uniform(size=20)
    full = CharacteristicFunction(poly)._matrices(lams, derivative=True)
    for got, want in zip(trimmed._matrices(lams, derivative=True), full):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(grid=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                     max_size=6, unique=True),
       double=st.booleans(), coupling=st.sampled_from([0.0, 1.0, 2.5j]))
def test_contour_finds_roots_of_polynomial_matrices(grid, double, coupling):
    # T = [[p1, c], [0, p2]] with det T = p1 p2 and roots on a grid of
    # step 1/8 inside |lam| < 0.9; ``double`` repeats the first root
    roots = [complex(a, b) / 8 for a, b in grid]
    if double and roots:
        roots.append(roots[0])
    p1 = np.polynomial.polynomial.polyfromroots(roots[::2])
    p2 = np.polynomial.polynomial.polyfromroots(roots[1::2])
    poly = np.zeros((2, 2, 8), dtype=complex)
    poly[0, 0, :len(p1)] = p1
    poly[1, 1, :len(p2)] = p2
    poly[0, 1, 0] = coupling
    found, unconfirmed, far = _roots_in(
        CharacteristicFunction(poly), (0j, 1.0, 1.0), EigenOptions(),
        radius=1.05)
    # each to within its persistence window (1e-7 here); a root on the line
    # between two halves of a split box is found in both, and
    # find_eigenvalues merges such copies, as it does those of a double root
    assert unconfirmed == [] and abs(far) >= 1.05
    for want in roots:
        assert min(abs(np.asarray(found) - want)) < 1e-7
    for got in found:
        assert min(abs(np.asarray(roots) - got)) < 1e-7
