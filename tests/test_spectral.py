"""Initial-value propagation and eigenvalue search."""

import copy
import dataclasses
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spps.factorization
import spps.powers
import spps.spectral
from spps import Mesh, constant, load_config, ones, tabulate, zeros
from spps.errors import (
    RegionTruncationError,
    ResidualVerificationError,
    TriangularDefectError,
    TruncationWarning,
)
from spps.factorization import (
    OperatorSpec,
    SolutionSystem,
    build_seed_system,
    operator_residual,
    polya_factors,
    wronskians,
)
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


@pytest.mark.parametrize("scale", [1e-13, 1e13])
def test_ivp_does_not_depend_on_the_scale_of_the_seed(scale):
    # the seed scales the whole triangle, so its diagonal is measured against
    # its rows; the scaled workspace is sound, as its eigenvalues show
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    seed = monomial_seed(op)
    want = solve_initial_value(build_workspace(op, seed=seed), [0.0, 1.0], -4.0)
    ws = build_workspace(op, seed=SolutionSystem.from_functions(
        op, [tabulate(mesh, lambda t, y=y: scale * y) for y in seed.derivs[:, 0].real]))
    got = solve_initial_value(ws, [0.0, 1.0], -4.0)
    assert np.max(np.abs(got.values - want.values)) <= 1e-14
    result = find_eigenvalues(ws, BoundaryConditions.separated(2, [0], [0]),
                              Interval(-10.0, -0.5))
    np.testing.assert_allclose(result.values, [-9.0, -4.0, -1.0], atol=1e-8)


@pytest.mark.parametrize("ell", [0, 1])
def test_ivp_refuses_a_zero_diagonal(ell):
    ws = dirichlet_workspace(nmesh=201)
    coeffs = ws.coeffs.copy()
    coeffs[ell, ell] = 0.0
    with pytest.raises(TriangularDefectError, match=f"diagonal {ell} is 0.000e"):
        solve_initial_value(dataclasses.replace(ws, coeffs=coeffs), [1.0, 0.0], -1.0)


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


@pytest.mark.parametrize("lam", [np.nan, np.inf, complex(1.0, -np.inf),
                                 complex(np.nan, 0.0)])
def test_non_finite_lambda_is_refused(lam):
    # solve_initial_value used to raise RegionTruncationError ("raise the
    # truncation", exit 3 from the CLI) and eigenfunction a LinAlgError
    ws = dirichlet_workspace(nmesh=201)
    with pytest.raises(ValueError, match="finite lambda"):
        solve_initial_value(ws, [1.0, 0.0], lam)
    with pytest.raises(ValueError, match="finite lambda"):
        eigenfunction(ws, BoundaryConditions.separated(2, [0], [0]), lam)


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


def trig(a0, a1, b1):
    """a0 + a1 cos(2 pi x) + b1 sin(2 pi x)."""
    return lambda x: a0 + a1 * np.cos(2 * np.pi * x) + b1 * np.sin(2 * np.pi * x)


unit = st.floats(-1.0, 1.0)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(2, 4),
       phi=st.lists(st.tuples(unit, unit, unit), min_size=4, max_size=4),
       lam=st.tuples(unit, unit), y0=st.lists(st.tuples(unit, unit),
                                             min_size=4, max_size=4),
       i0=st.integers(0, 1600))
def test_ivp_matches_the_integrator_for_random_coefficients(n, phi, lam, y0, i0):
    # degree-1 trigonometric phi_1..phi_n with coefficients in [-0.5, 0.5],
    # a built seed, lam in the box [-60, 60]^2, from any node of [0, 1]
    phi = [trig(*(0.5 * c for c in p)) for p in phi[:n]]
    lam = 60.0 * complex(*lam)
    y0 = np.array([complex(*v) for v in y0[:n]])
    assume(np.any(y0))
    y0 /= np.max(np.abs(y0))  # of order one: the integrator has atol 1e-12
    mesh = Mesh(0.0, 1.0, 1601, i0)
    op = OperatorSpec(n, tuple(tabulate(mesh, f) for f in phi), ones(mesh))
    y = solve_initial_value(build_workspace(op, truncation=40), y0, lam).values
    x = mesh.nodes

    def toward(t):  # the integrator along the nodes t, from t[0] = x[i0]
        if len(t) == 1:
            return y0[:1]
        return integrate_ivp(n, phi, lambda s: 1.0, t[0], t[-1], y0, lam,
                             t_eval=t)[0]

    ref = np.concatenate([toward(x[i0::-1])[:0:-1], toward(x[i0:])])
    assert np.max(np.abs(y - ref)) <= 1e-8 * np.max(np.abs(ref))


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


@pytest.mark.parametrize("rng_seed", [1, 3])
def test_interval_roots_off_the_real_axis_are_rejected(rng_seed):
    # on 201 nodes these seeds put the roots -20, -11 and -4 off the axis
    # by more than their windows: each is reported, none is dropped
    mesh = Mesh.with_basepoint(0.0, np.pi, 201, 0.0)
    op = OperatorSpec(2, (zeros(mesh), constant(mesh, 5.0)), ones(mesh))
    ws = build_workspace(op, truncation=40, rng_seed=rng_seed)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-30.0, -0.5))
    assert result.eigenvalues == ()
    lams = [lam for lam, _ in result.rejected]
    np.testing.assert_allclose(sorted(lam.real for lam in lams),
                               [-20.0, -11.0, -4.0], atol=2e-3)
    for lam, reason in result.rejected:
        assert type(lam) is complex
        assert abs(lam.imag) > spps.spectral._window(lam)
        assert reason == f"off the real axis by {abs(lam.imag):.1e}"


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


def test_a_seed_constructed_directly_is_measured():
    # cosh/sinh rows solve y'' = y, not y'' = 0: used as given, they missed
    # the IVP at lam = -4 by 0.236 and nothing raised
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    x = mesh.nodes - mesh.x0
    wrong = SolutionSystem(op, [[np.cosh(x), np.sinh(x)], [np.sinh(x), np.cosh(x)]])
    with pytest.raises(ResidualVerificationError, match="seed residual"):
        build_workspace(op, seed=wrong)
    # exact rows pass the same check and keep their retries and truncations
    right = SolutionSystem(op, [[np.ones_like(x), 0 * x], [x, np.ones_like(x)]],
                           retries=3, truncations=(8,))
    ws = build_workspace(op, seed=right)
    assert ws.seed.residual_max <= 1e-12 and ws.seed.wronskian_min == 1.0
    assert (ws.seed.retries, ws.seed.truncations) == (3, (8,))
    y = solve_initial_value(ws, [0.0, 1.0], -4.0)
    assert np.max(np.abs(y.values - np.sin(2 * x) / 2)) < 1e-10


def test_measured_seeds_are_not_measured_again(monkeypatch):
    mesh = Mesh(0.0, np.pi, 201)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    seeds = [build_seed_system(op), monomial_seed(op)]
    calls = []
    original = spps.factorization.operator_residual

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spps.factorization, "operator_residual", counting)
    for seed in seeds:
        assert build_workspace(op, seed=seed).seed is seed
    assert calls == []


@pytest.mark.parametrize("truncation", [2.5, 8.0, True])
def test_truncation_must_be_an_integer(truncation):
    # 2.5 and 8.0 used to raise a raw TypeError ("slice indices must be
    # integers"), and True was kept as the workspace's truncation
    ws = dirichlet_workspace(nmesh=201, truncation=6)
    message = "truncation order must be a nonnegative integer"
    for call in (lambda: build_workspace(ws.op, truncation=truncation),
                 lambda: build_workspace(ws.op, seed=ws.seed, truncation=truncation),
                 lambda: formal_powers(ws.b, ws.op.r, truncation),
                 lambda: with_truncation(ws, truncation)):
        with pytest.raises(ValueError, match=message):
            call()
    assert build_workspace(ws.op, seed=ws.seed, truncation=np.int64(6)).truncation == 6


def test_workspace_copies_solve_bitwise_equal():
    ws = dirichlet_workspace()
    want = solve_initial_value(ws, [0.0, 1.0], -4.0).values
    for copy_ in (copy.deepcopy(ws), pickle.loads(pickle.dumps(ws))):
        assert np.array_equal(solve_initial_value(copy_, [0.0, 1.0], -4.0).values,
                              want)
        assert not copy_.mesh.nodes.flags.writeable
        assert not copy_.op.r.values.flags.writeable
        assert not copy_.b[0].values.flags.writeable


def test_factors_are_those_of_the_seed_rows():
    # a built, a from_functions and a directly constructed seed, and a pickle
    # and a deepcopy of each, factorize to the factors of fresh nested
    # Wronskians of their rows
    mesh = Mesh(0.0, 1.0, 201)
    op = OperatorSpec(4, tuple(tabulate(mesh, lambda x, j=j: np.cos(j * x) + 0.5j)
                               for j in range(4)), ones(mesh))
    built = build_workspace(op, truncation=10, rng_seed=1).seed
    pure = OperatorSpec(3, (zeros(mesh),) * 3, ones(mesh))
    seeds = [(op, built), (pure, monomial_seed(pure)),
             (op, SolutionSystem(op, built.derivs))]
    for seed_op, seed in seeds:
        fresh = polya_factors(wronskians(seed))
        for s in (seed, pickle.loads(pickle.dumps(seed)), copy.deepcopy(seed)):
            ws = build_workspace(seed_op, seed=s, truncation=6)
            for got, w in zip(ws.b, fresh, strict=True):
                assert np.array_equal(got.values, w.values)


def arrays(obj):
    """Every ndarray reachable through dataclass fields, tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from arrays(getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays(item)


def writeable(a):
    """Whether ``a``, or the array whose memory it views, takes writes."""
    return a.flags.writeable or (isinstance(a.base, np.ndarray)
                                 and a.base.flags.writeable)


def test_workspace_copies_keep_every_array_read_only():
    ws = double_well_workspace()  # a built seed, so truncations are set
    want = list(arrays(ws))
    # the table's rows view one block, which takes no writes either
    assert len({id(x.base) for x in ws.table.x} - {id(None)}) == 1
    assert not any(writeable(a) for a in want)
    for copy_ in (copy.deepcopy(ws), pickle.loads(pickle.dumps(ws))):
        got = list(arrays(copy_))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert not writeable(a)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_ivps_equal_on_copies_and_prefix_views():
    # copies hold each row block contiguous, a lower truncation views a
    # prefix of the wider block; all sum as a table built at that truncation
    mesh = Mesh(0.0, 1.0, 401)
    phi = tuple(tabulate(mesh, lambda x, j=j: np.cos((j + 1) * x) + 0.5j * x)
                for j in range(3))
    ws = build_workspace(OperatorSpec(3, phi, ones(mesh)), truncation=30)
    data, lams = [1.0, -0.5j, 0.25], [-60.0, 20.0 + 20.0j, 2.0]
    for M in (30, 12):
        built = ws if M == 30 else build_workspace(ws.op, seed=ws.seed, truncation=M)
        want = [solve_initial_value(built, data, lam).values for lam in lams]
        view = with_truncation(ws, M)
        assert all(np.shares_memory(x, y) for x, y in zip(view.table.x, ws.table.x))
        for w in (view, copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
            got = [solve_initial_value(w, data, lam).values for lam in lams]
            assert all(np.array_equal(g, v) for g, v in zip(got, want))


def test_truncation_warning_points_at_the_caller():
    mesh = Mesh(0.0, np.pi, 201)
    ws = build_workspace(OperatorSpec(2, (zeros(mesh),) * 2, ones(mesh)),
                         truncation=12)  # y'' = lam y
    bc = BoundaryConditions.separated(2, [0], [0])
    for call in (lambda: solve_initial_value(ws, [1.0, 0.0], -10.0),
                 lambda: evaluate_solution(ws.table, ws.b[0], 1, -10.0),
                 lambda: eigenfunction(ws, bc, -10.0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert caught
        assert all(w.category is TruncationWarning and w.filename == __file__
                   for w in caught)


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
    with pytest.raises(ValueError, match="linearly dependent"):
        BoundaryConditions(1e-12 * left, right)
    with pytest.raises(ValueError, match="linearly dependent"):
        BoundaryConditions(np.zeros((2, 2)), right)


def test_independence_is_relative_to_the_rows_scale():
    # the rank tolerance was an absolute 1e-10, which refused these
    dirichlet = BoundaryConditions.separated(2, [0], [0])
    for scale in (1e-12, 1e12):
        bc = BoundaryConditions(scale * dirichlet.left, scale * dirichlet.right)
        assert np.array_equal(bc.left, scale * dirichlet.left)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_boundary_entries_are_refused(bad):
    # a NaN used to raise LinAlgError: SVD did not converge
    left, right = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    right[1, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
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


@pytest.mark.parametrize("left", [[0.5], [0.0], [True]])
def test_separated_orders_must_be_integers(left):
    # 0.5 and 0.0 used to raise a raw IndexError, and True to build the
    # condition y(x1) + y'(x1) = 0
    with pytest.raises(ValueError, match="derivative orders must be integers"):
        BoundaryConditions.separated(2, left, [0])
    with pytest.raises(ValueError, match="an integer"):  # was a raw TypeError
        BoundaryConditions.separated(2.0, [0], [0])
    bc = BoundaryConditions.separated(2, [np.int64(1)], [0])
    assert np.array_equal(bc.left, [[0, 1], [0, 0]])


# -- characteristic function ---------------------------------------------------------

def direct_boundary_matrix(ws, bc, lam):
    """Boundary matrix from full-mesh series values at the two end nodes."""
    n, last = ws.n, ws.mesh.n - 1
    left = np.zeros((n, n), dtype=complex)
    right = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        for ell in range(n):
            if ell == 0:
                y = evaluate_solution(ws.table, ws.b[0], k, lam)
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
    # the search kept fewer than 30 - PERSISTENCE_EXTRA terms, so the
    # eigenfunctions are summed from the stored table
    for e in result.eigenvalues:
        y = eigenfunction(ws, bc, e.lam)
        assert e.residual == operator_residual(op, y, lam=e.lam)


def _counting_truncations(monkeypatch):
    calls = []
    original = spps.spectral.with_truncation

    def counting(ws, truncation):
        calls.append((ws.truncation, truncation))
        return original(ws, truncation)
    monkeypatch.setattr(spps.spectral, "with_truncation", counting)
    return calls


def test_persistence_reads_the_stored_table_when_it_reaches(monkeypatch):
    calls = _counting_truncations(monkeypatch)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(dirichlet_workspace(), bc, Interval(-10.0, -0.5))
    np.testing.assert_allclose(result.values, [-9.0, -4.0, -1.0], atol=1e-8)
    problem = Path(__file__).resolve().parents[1] / "bench" / "problems"
    cfg = load_config(str(problem / "double_well.ini"))
    result = find_eigenvalues(cfg.make_workspace(), cfg.make_boundary(),
                              cfg.region, EigenOptions(samples=cfg.samples))
    assert len(result.values) == 8
    assert calls == []


def test_persistence_extends_a_table_the_search_read_to_its_end(monkeypatch):
    # at |lam| = 20 the trim keeps all 17 terms of M = 16, so persistence
    # needs the table extended by PERSISTENCE_EXTRA
    calls = _counting_truncations(monkeypatch)
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, truncation=16, rng_seed=0)
    bc = BoundaryConditions.separated(2, [0], [0])
    with pytest.warns(TruncationWarning, match="lam=-20.4875"):
        result = find_eigenvalues(ws, bc, Interval(-20.0, -0.5))
    np.testing.assert_allclose(result.values, [-16.0, -9.0, -4.0, -1.0],
                               atol=1e-8)
    assert calls == [(16, 16 + spps.spectral.PERSISTENCE_EXTRA)]


def test_persistence_leaves_the_table_alone_without_a_root(monkeypatch):
    # at |lam| = 15.5 the trim keeps a term within PERSISTENCE_EXTRA of the
    # end of M = 16, but no root lies in the region to confirm
    calls = _counting_truncations(monkeypatch)
    mesh = Mesh(0.0, np.pi, 401)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, truncation=16, rng_seed=0)
    bc = BoundaryConditions.separated(2, [0], [0])
    with pytest.warns(TruncationWarning, match="lam=-15.6375"):
        result = find_eigenvalues(ws, bc, Interval(-15.5, -10.0))
    assert result.values == [] and result.rejected == ()
    assert calls == []


@pytest.mark.parametrize("case", ["dirichlet", "double_well", "disk"])
def test_terms_past_what_persistence_reads_do_not_matter(case):
    region = {"dirichlet": Interval(-10.0, -0.5),
              "double_well": Interval(-20.0, -0.1),
              "disk": Disk(-10.0, 10.0)}[case]
    ws = dirichlet_workspace() if case == "dirichlet" else double_well_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    got = [find_eigenvalues(w, bc, region)
           for w in (ws, with_truncation(ws, ws.truncation + 10))]
    assert got[0].values
    assert got[0] == got[1]


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
    # the contour levels, the joint polish steps and the Newton steps of the
    # persistence check, each one batch however many roots there are
    contour = [size for size in batches if size >= 1001]
    assert 1 <= len(contour) <= 3 and len(batches) <= 10
    assert all(size == least for size in batches if size < 1001)


def test_empty_region_yields_nothing():
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(1.0, 20.0))
    assert result.eigenvalues == ()


@pytest.mark.parametrize("region, want", [
    (Interval(-4.0, -1.0), [-4.0, -1.0]),
    (Interval(-4.0000001, -0.5), [-4.0, -1.0]),
    (Interval(-9.0000005, -3.9999995), [-9.0, -4.0]),
    # a root within its window (4e-7 at -4) of the region is in it, however
    # narrow the region; one farther out is not
    (Interval(-3.9999997, -3.5), [-4.0]),
    (Interval(-25.0, -25.0 + 1e-12), [-25.0]),
    (Interval(-3.9999997, -3.9999997 + 1e-12), [-4.0]),
    (Disk(-4.0, 1.5e-6), [-4.0]),
    (Disk(-4.0 + 3e-7j, 1e-12), [-4.0]),
    (Interval(-3.999999, -3.5), []),
    (Interval(-3.999999, -3.999999 + 1e-12), []),
    (Disk(-4.0 + 1e-6j, 1e-12), [])])
def test_roots_on_the_region_edge_are_in_it(region, want):
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, region)
    assert result.rejected == ()
    np.testing.assert_allclose(result.values, want, rtol=0, atol=1e-8)


SQUARES = [-(k * k) for k in range(5, 0, -1)]
#: an endpoint on an eigenvalue, or clear of every eigenvalue's window
#: (4e-7 at -4), within which the answer would depend on rounding
endpoint = st.sampled_from(SQUARES) | st.floats(-30.0, -0.5).filter(
    lambda x: all(abs(x - s) > 1e-5 for s in SQUARES))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ends=st.lists(endpoint, min_size=2, max_size=2, unique=True))
def test_an_interval_yields_exactly_the_eigenvalues_in_it(ends):
    lo, hi = sorted(ends)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(dirichlet_workspace(), bc, Interval(lo, hi))
    assert result.rejected == ()
    np.testing.assert_allclose(result.values, [s for s in SQUARES if lo <= s <= hi],
                               rtol=0, atol=1e-8)


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


@pytest.mark.parametrize("basepoint, region", [
    (None, Interval(-910.0, -0.5)), (0, Interval(-410.0, -0.5))])
def test_contour_integrals_that_never_converge_raise_region_truncation_error(
        basepoint, region):
    # y'' = lam y, Dirichlet on [0, pi], N = 801, M = 80: the tail at the
    # circle's far edge passes (the basepoint-0 one with a warning), yet no
    # circle's integrals converge. A bare ValueError made the CLI exit 2
    mesh = Mesh(0.0, np.pi, 801, basepoint)
    op = OperatorSpec(2, (zeros(mesh), zeros(mesh)), ones(mesh))
    ws = build_workspace(op, rng_seed=0, truncation=80)
    bc = BoundaryConditions.separated(2, [0], [0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        with pytest.raises(RegionTruncationError, match="region is too large"):
            find_eigenvalues(ws, bc, region)


GATED = {
    "eigenfunction": lambda ws, bc: eigenfunction(ws, bc, -1e4),
    "evaluate_derivatives": lambda ws, bc: evaluate_derivatives(
        ws.table, ws.coeffs, 1, -1e4, 1),
    "evaluate_solution": lambda ws, bc: evaluate_solution(
        ws.table, ws.b[0], 1, -1e4),
    "evaluate_solution_nan": lambda ws, bc: evaluate_solution(
        ws.table, ws.b[0], 1, -1e30),
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
        roots, _, far, kept = original(*args, **kwargs)
        return roots, [-2.5 + 0j, -2.5 + 1j, -40.0 + 0j], far, kept
    monkeypatch.setattr(spps.spectral, "_roots_in", far_roots)
    result = find_eigenvalues(ws, bc, Interval(-10.0, -0.5))
    np.testing.assert_allclose(result.values, [-9.0, -4.0, -1.0], atol=1e-8)
    assert result.rejected == ((-2.5, "counted but not confirmed as a root"),)
    monkeypatch.setattr(spps.spectral, "_roots_in",
                        lambda *args: ([], [], -300.0 + 0j, 0))
    with pytest.raises(RegionTruncationError, match="lam=\\(-300"):
        find_eigenvalues(ws, bc, Interval(-10.0, -0.5))


def test_root_leaving_region_at_refined_truncation_is_rejected(monkeypatch):
    ws = dirichlet_workspace()
    bc = BoundaryConditions.separated(2, [0], [0])
    original = spps.spectral._newton

    def drifting(charfn, z, steps, deflate):
        z, done = original(charfn, z, steps, deflate)
        return (z, done) if deflate else (z - 0.15, done)
    monkeypatch.setattr(spps.spectral, "_newton", drifting)
    # -9 is within its window (0.18) of the region and persists, but the
    # refined -9.15 is 0.3 below it, more than its own window (0.183)
    monkeypatch.setattr(spps.spectral, "PERSISTENCE_TOL", 0.02)
    result = find_eigenvalues(ws, bc, Interval(-8.85, -0.5))
    assert result.values == []
    assert [reason for lam, reason in result.rejected if abs(lam + 9.0) < 1e-6] == [
        "outside the region at refined truncation"]


# -- truncation refresh ------------------------------------------------------------------

def test_with_truncation_extends_table():
    ws = dirichlet_workspace(truncation=10)
    ws2 = with_truncation(ws, 15)
    assert ws2.truncation == 15
    assert ws2.b is ws.b
    assert with_truncation(ws, 10) is ws
    rebuilt = formal_powers(ws.b, ws.op.r, 15)
    for k in (1, 2):
        row, old = ws2.table.x[k - 1], ws.table.x[k - 1]
        assert len(row) == len(rebuilt.x[k - 1]) == 15 * 2 + k
        assert np.array_equal(row, rebuilt.x[k - 1])
        assert np.array_equal(row[:len(old)], old)


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


@pytest.mark.parametrize("case", ["order3", "steep"])
def test_seed_does_not_depend_on_the_truncation(case):
    # the seed builder's series at -1 stops by its own tail (8 and 32 terms
    # here), so the spectral truncation, shorter or longer, sets the table alone
    if case == "order3":
        mesh = Mesh(0.0, 1.0, 401)
        phi = (tabulate(mesh, lambda t: t), ones(mesh), constant(mesh, 2.0))
    else:
        mesh = Mesh(0.0, 1.0, 1601)
        phi = (zeros(mesh), constant(mesh, -800.0))
    op = OperatorSpec(len(phi), phi, ones(mesh))
    wide = build_workspace(op, truncation=80)
    fields = ("retries", "wronskian_min", "residual_max", "truncations")
    for M in (4, 12, 30, 80):
        ws = build_workspace(op, truncation=M)
        assert np.array_equal(ws.seed.derivs, wide.seed.derivs)
        assert [getattr(ws.seed, f) for f in fields] == [
            getattr(wide.seed, f) for f in fields]
        short = with_truncation(wide, M)
        assert short.table.norms == ws.table.norms
        for got, want in zip(short.table.x, ws.table.x, strict=True):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.array_equal(short.coeffs, ws.coeffs)


def test_with_truncation_lower_keeps_prefix():
    ws = dirichlet_workspace(truncation=10)
    low = with_truncation(ws, 6)
    assert low.truncation == 6
    for k in (1, 2):
        row, old = low.table.x[k - 1], ws.table.x[k - 1]
        assert len(row) == 6 * 2 + k
        assert np.shares_memory(row, old) and np.array_equal(row, old[:len(row)])
    with pytest.raises(ValueError):
        with_truncation(ws, -1)


def test_with_truncation_norms_match_rebuild_and_share_prefix():
    ws = dirichlet_workspace(truncation=10)
    assert ws.table.norms == tuple(tuple(
        float(np.max(np.abs(x))) for x in row) for row in ws.table.x)
    for t in (15, 6):
        norms = with_truncation(ws, t).table.norms
        assert norms == formal_powers(ws.b, ws.op.r, t).norms
        for row, old in zip(norms, ws.table.norms):
            assert all(a is b for a, b in zip(row, old))


def test_ivp_series_sums_stop_after_few_terms(terms_read):
    # an order-4 operator, basepoint mid-interval, M = 40 and |lam| <= 85:
    # each sum needs well under the 41 terms of the table
    mesh = Mesh(0.0, 1.0, 401)
    phi = (tabulate(mesh, lambda t: 0.3 * np.cos(2 * t)),
           tabulate(mesh, lambda t: 0.2 * t), constant(mesh, -0.4),
           tabulate(mesh, lambda t: 0.5 * np.sin(3 * t)))
    op = OperatorSpec(4, phi, tabulate(mesh, lambda t: 1.0 + 0.3 * np.cos(t)))
    ws = build_workspace(op, truncation=40, rng_seed=1)
    terms_read.clear()  # the seed builder's sums at -1
    lams = [85.0, -85.0, 85j, 60.0 - 60.0j, -60.0 + 60.0j, 0.0, 3.0 + 1.0j]
    for lam in lams:
        solve_initial_value(ws, [1.0, -0.5j, 0.25, 2.0], lam)
    assert len(terms_read) == 4 * len(lams)
    assert max(terms_read) <= 10


@pytest.mark.parametrize("bad", [
    {"samples": 100.5}, {"samples": 100.0}, {"samples": True},
    {"max_count": 2.5}, {"max_count": 2.0}, {"max_count": True},
    {"samples": "100"}, {"max_count": np.float64(3.0)},
])
def test_eigen_options_refuse_counts_that_are_not_integers(bad):
    # max_count=2.5 used to be taken and then raise "slice indices must be
    # integers" in find_eigenvalues; samples=100.5 was used as it stood
    with pytest.raises(ValueError, match=f"{next(iter(bad))} must be"):
        EigenOptions(**bad)
    EigenOptions(samples=np.int64(100), max_count=np.int32(2))


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
    found, unconfirmed, far, kept = _roots_in(
        CharacteristicFunction(poly), (0j, 1.0, 1.0), EigenOptions(),
        radius=1.05)
    # each to within its persistence window (1e-7 here); a root on the line
    # between two halves of a split box is found in both, and
    # find_eigenvalues merges such copies, as it does those of a double root
    assert unconfirmed == [] and abs(far) >= 1.05
    assert kept == max(len(p1), len(p2))  # the zero padding is trimmed
    for want in roots:
        assert min(abs(np.asarray(found) - want)) < 1e-7
    for got in found:
        assert min(abs(np.asarray(roots) - got)) < 1e-7
