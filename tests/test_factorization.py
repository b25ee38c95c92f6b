"""Wronskians, Polya factors, operator application, seed construction."""

import inspect

import numpy as np
import pytest

import spps.factorization
import spps.mesh
import spps.powers
from spps import (
    Mesh,
    SampledFunction,
    constant,
    cumulative_integral,
    differentiate,
    ones,
    tabulate,
    zeros,
)
from spps.errors import (
    MeshMismatchError,
    ResidualVerificationError,
    SeedConstructionError,
    StencilError,
    VanishingValueError,
    WronskianFloorError,
)
from spps.factorization import (
    RESIDUAL_TOL,
    OperatorSpec,
    SolutionSystem,
    _accepted,
    _combination_matrix,
    _nested_wronskians,
    _recombine,
    _relative_minima,
    build_seed_system,
    operator_residual,
    polya_factors,
    wronskians,
)

from spps.mesh import ladder_strides
from spps.powers import compute_A, formal_powers
from spps.spectral import build_workspace

from oracles import (
    apply_coefficients,
    apply_factorized,
    decimated_ladder_residual,
    integrate_ivp,
    loop_derivative,
    loop_recombine,
    loop_triangle,
    loop_wronskians,
    polya_system,
)


def make_op(mesh, phis, r=None):
    r = ones(mesh) if r is None else r
    return OperatorSpec(len(phis), tuple(phis), r)


def d_power_op(mesh, n):
    """y^(n) = 0 with unit weight."""
    return make_op(mesh, [zeros(mesh)] * n)


def canonical_system(op):
    """Seed y_k = (x - x0)^(k-1)/(k-1)! for the pure n-th derivative operator."""
    mesh = op.mesh
    funcs = []
    fact = 1.0
    for k in range(op.n):
        if k > 0:
            fact *= k
        funcs.append(tabulate(mesh, lambda t, k=k, f=fact: (t - mesh.x0) ** k / f))
    return SolutionSystem.from_functions(op, funcs)


# -- relative minima -------------------------------------------------------------

def test_nonvanishing_constant_passes():
    m = Mesh(0.0, 1.0, 101)
    [(rel, _)] = _relative_minima([ones(m)])
    assert rel == 1.0


def test_nonvanishing_exponential_passes_min_at_left():
    m = Mesh(0.0, 1.0, 101)
    [(rel, node)] = _relative_minima([tabulate(m, np.exp)])
    assert rel > 1e-6
    assert node == 0
    assert rel == pytest.approx(np.exp(-1.0))


def test_nonvanishing_fails_at_zero_crossing():
    m = Mesh(-1.0, 1.0, 101)
    [(rel, node)] = _relative_minima([tabulate(m, lambda x: x)])
    assert not rel > 1e-6
    assert node == 50  # the node nearest x = 0


def test_nonvanishing_sees_a_sign_change_between_nodes():
    m = Mesh(0.0, 3.0, 401)  # cos vanishes at pi/2, between nodes 209 and 210
    [(rel, node)] = _relative_minima([tabulate(m, np.cos)])
    assert rel < 1e-15
    assert node == 209


def test_nonvanishing_measures_the_chord_between_nodes():
    # x - 0.1 + 0.001i passes 0.001 from zero at x = 0.1, between the nodes
    # 0 and 0.25; the nearer one is reported
    m = Mesh(-1.0, 1.0, 9)
    f = tabulate(m, lambda x: x - 0.1 + 0.001j)
    [(rel, node)] = _relative_minima([f])
    assert rel > 1e-6
    assert rel * f.max_abs() == pytest.approx(0.001, rel=1e-12)
    assert (node, m.nodes[node]) == (4, 0.0)


# -- wronskians -----------------------------------------------------------------

def test_wronskian_of_exponentials():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, -3.0), constant(m, 2.0)])  # y'' - 3y' + 2y
    sys = SolutionSystem.from_functions(
        op, [tabulate(m, np.exp), tabulate(m, lambda t: np.exp(2 * t))])
    W = wronskians(sys)
    assert np.allclose(W[0].values, 1.0)
    np.testing.assert_allclose(W[1].values, np.exp(m.nodes), rtol=1e-12)
    np.testing.assert_allclose(W[2].values, np.exp(3 * m.nodes), rtol=1e-9)


def test_wronskians_of_monomial_seed_are_one():
    m = Mesh(0.0, 1.0, 401, 0)
    sys = canonical_system(d_power_op(m, 3))
    for W in wronskians(sys):
        np.testing.assert_allclose(W.values, 1.0, atol=1e-10)


# -- polya_factors ----------------------------------------------------------------

def test_factors_for_exponential_pair():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, -3.0), constant(m, 2.0)])
    sys = SolutionSystem.from_functions(
        op, [tabulate(m, np.exp), tabulate(m, lambda t: np.exp(2 * t))])
    fac = polya_factors(wronskians(sys))
    x = m.nodes
    np.testing.assert_allclose(fac[0].values, np.exp(x), rtol=1e-9)
    np.testing.assert_allclose(fac[1].values, np.exp(x), rtol=1e-9)
    np.testing.assert_allclose(fac[2].values, np.exp(-2 * x), rtol=1e-9)


def test_factors_for_monomial_seed_are_one():
    m = Mesh(0.0, 1.0, 401, 0)
    fac = polya_factors(wronskians(canonical_system(d_power_op(m, 4))))
    for bj in fac:
        # third derivatives come from finite differences, so roundoff
        # amplification ~eps/h^3 bounds the achievable accuracy here
        np.testing.assert_allclose(bj.values, 1.0, atol=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a division by 0 raises
@pytest.mark.parametrize("floor", [None, 0.0])
@pytest.mark.parametrize("order, index, node", [
    (2, 1, 50), (4, 2, 50), (4, 3, 50),  # x on [-1, 1] is exactly 0 at node 50
    (2, 1, 0), (4, 2, 0), (4, 3, 0), (4, 4, 0)])  # identically 0 from node 0
def test_factors_raise_on_vanishing_wronskian(order, index, node, floor, monkeypatch):
    # the floor check comes before the factors divide by any W_j, even
    # where the floor is 0: no zero reaches a division
    if floor is not None:
        monkeypatch.setattr(spps.factorization, "WRONSKIAN_FLOOR", floor)
    m = Mesh(-1.0, 1.0, 101)
    W = [ones(m)] * (order + 1)
    W[index] = tabulate(m, lambda x: x) if node else zeros(m)
    with pytest.raises(WronskianFloorError) as exc:
        polya_factors(W)
    assert exc.traceback[-1].name == "_floor_report"
    assert (exc.value.index, exc.value.node) == (index, node)


def test_factors_refuse_wronskians_on_another_mesh():
    # the quotients of W_j used to be formed by the mesh-checking dunders
    m, other = Mesh(0.0, 1.0, 101), Mesh(0.0, 2.0, 101)
    for j in (0, 2):
        W = [ones(m)] * 3
        W[j] = ones(other)
        with pytest.raises(MeshMismatchError, match=rf"W_{j} on Mesh\(\[0.0, 2.0\]"):
            polya_factors(W)


# -- operator application ---------------------------------------------------------

def test_apply_coefficients_on_closed_form():
    m = Mesh(0.0, 1.0, 201)
    op = make_op(m, [constant(m, -3.0), constant(m, 2.0)])
    y = tabulate(m, lambda t: np.exp(-t))  # (1 + 3 + 2) e^{-x} = 6 e^{-x}
    res = apply_coefficients(op, y)
    np.testing.assert_allclose(res.values, 6 * np.exp(-m.nodes), rtol=1e-7)


def test_factorized_and_coefficient_forms_agree():
    m = Mesh(0.0, 1.0, 101)
    op = make_op(m, [constant(m, -3.0), constant(m, 2.0)])
    sys = SolutionSystem.from_functions(
        op, [tabulate(m, np.exp), tabulate(m, lambda t: np.exp(2 * t))])
    fac = polya_factors(wronskians(sys))
    for fn in (lambda t: np.sin(3 * t), lambda t: t**3 + 1j * t, np.cosh):
        y = tabulate(m, fn)
        lhs = apply_factorized(fac, y)
        rhs = apply_coefficients(op, y)
        scale = max(1.0, y.max_abs())
        # one-sided boundary stencils are less accurate; compare interior
        err = np.max(np.abs(lhs.values[3:-3] - rhs.values[3:-3]))
        assert err < 1e-5 * scale


def test_factorized_annihilates_seed():
    m = Mesh(0.0, 1.0, 101)
    op = make_op(m, [constant(m, -3.0), constant(m, 2.0)])
    sys = SolutionSystem.from_functions(
        op, [tabulate(m, np.exp), tabulate(m, lambda t: np.exp(2 * t))])
    fac = polya_factors(wronskians(sys))
    res = apply_factorized(fac, fac[0])  # L b_0 = 0
    assert np.max(np.abs(res.values[3:-3])) < 1e-6


def test_polya_system_solves_homogeneous_equation():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, -3.0), constant(m, 2.0)])
    sys = SolutionSystem.from_functions(
        op, [tabulate(m, np.exp), tabulate(m, lambda t: np.exp(2 * t))])
    fac = polya_factors(wronskians(sys))
    for y in polya_system(fac):
        assert operator_residual(op, y) < 1e-7


def test_recombination_invariance_of_factorized_application():
    # two different passing seeds of the same operator give factorized
    # applications that agree on smooth inputs
    m = Mesh(0.0, 1.0, 201)
    op = make_op(m, [constant(m, 0.0), constant(m, -1.0)])  # y'' - y
    e1, e2 = tabulate(m, np.exp), tabulate(m, lambda t: np.exp(-t))
    sys_a = SolutionSystem.from_functions(op, [e1, e2])
    sys_b = SolutionSystem.from_functions(op, [
        SampledFunction(m, e1.values + 0.5 * e2.values),
        SampledFunction(m, e1.values - 0.25j * e2.values)])
    fac_a = polya_factors(wronskians(sys_a))
    fac_b = polya_factors(wronskians(sys_b))
    y = tabulate(m, lambda t: np.cos(2 * t) + 0.1 * t)
    va = apply_factorized(fac_a, y).values
    vb = apply_factorized(fac_b, y).values
    assert np.max(np.abs(va - vb)) < 1e-5 * max(1.0, np.max(np.abs(va)))


# -- residual ladder ---------------------------------------------------------------

def test_operator_residual_zero_for_true_solution():
    m = Mesh(0.0, 1.0, 801, 0)
    op = make_op(m, [constant(m, 0.0), constant(m, 1.0)])  # y'' + y
    y = tabulate(m, np.sin)
    assert operator_residual(op, y) < 1e-10


def test_operator_residual_with_spectral_shift():
    m = Mesh(0.0, np.pi, 801)
    op = d_power_op(m, 2)
    y = tabulate(m, lambda t: np.sin(3 * t))  # y'' = -9 y
    assert operator_residual(op, y, lam=-9.0) < 1e-8
    assert operator_residual(op, y, lam=-8.0) > 1e-2


def test_operator_residual_detects_nonsolution():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, 0.0), constant(m, 1.0)])
    y = tabulate(m, np.exp)
    assert operator_residual(op, y) > 0.5


def ladder_op(mesh, n):
    """Order-n operator with smooth complex coefficients and weight."""
    phis = [tabulate(mesh, lambda t, j=j: np.cos((j + 1) * t) + 0.3j * t ** j)
            for j in range(n)]
    return make_op(mesh, phis, tabulate(mesh, lambda t: 1.0 + 0.5 * np.sin(t)))


@pytest.mark.parametrize("nodes", [401, 801, 1601])
def test_operator_residual_matches_decimated_ladder(nodes):
    segs = nodes - 1
    for i0 in (segs // 2, 0, segs // 2 + 1):
        m = Mesh(0.0, 1.0, nodes, i0)
        y = tabulate(m, lambda t: np.exp((0.3 + 2j) * t) * (1 + t * t))
        for n in (2, 3, 4, 5, 6):
            op = ladder_op(m, n)
            # where lam r y dominates, lam * a and a * lam round apart
            for lam in (0, -9, 0.3 + 1.2j, 250 - 400j):
                got = operator_residual(op, y, lam)
                assert got == decimated_ladder_residual(op, y, lam)
                assert 0.0 < got < np.inf
            assert operator_residual(op, zeros(m), -9) == 0.0


def test_operator_residual_is_inf_without_a_usable_stride():
    # 9 nodes are too few for the order-6 stencil, and no coarser stride
    # is on the ladder
    m = Mesh(0.0, 1.0, 9)
    op, y = ladder_op(m, 6), tabulate(m, np.exp)
    assert operator_residual(op, y, 1.0) == np.inf
    assert decimated_ladder_residual(op, y, 1.0) == np.inf


def test_operator_residual_refuses_a_function_on_another_mesh():
    op = ladder_op(Mesh(0.0, 1.0, 401), 2)
    with pytest.raises(MeshMismatchError):
        operator_residual(op, tabulate(Mesh(0.0, 2.0, 401), np.sin))


def test_operator_residual_builds_no_wrappers(monkeypatch):
    m = Mesh(0.0, 1.0, 1601)
    op = ladder_op(m, 4)
    y = tabulate(m, lambda t: np.exp((0.3 + 2j) * t))
    built = []
    sampled, meshed = spps.mesh.SampledFunction.__init__, Mesh.__init__

    def counting(original, name):
        def wrapper(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spps.mesh.SampledFunction, "__init__",
                        counting(sampled, "SampledFunction"))
    monkeypatch.setattr(Mesh, "__init__", counting(meshed, "Mesh"))
    for module in (spps.mesh, spps.factorization):
        monkeypatch.setattr(module, "differentiate",
                            counting(differentiate, "differentiate"))
    assert operator_residual(op, y, lam=0.3 + 1.2j) < np.inf
    assert built == []
    monkeypatch.undo()
    for nodes in (9, 401):
        m = Mesh(0.0, 1.0, nodes)
        f = tabulate(m, lambda t: np.exp((0.3 + 2j) * t) * np.cos(5 * t))
        for order in range(1, 7):
            if nodes < order + 4:
                with pytest.raises(StencilError):
                    differentiate(f, order)
                continue
            want = loop_derivative(f.values, m.h, order)
            assert np.array_equal(differentiate(f, order).values, want)


# -- explicit seed systems -----------------------------------------------------------

@pytest.mark.parametrize("order", [2.0, 2.5, True, "2"])
def test_operator_order_must_be_an_integer(order):
    # OperatorSpec(2.0, ...) used to be accepted
    m = Mesh(0.0, 1.0, 101)
    with pytest.raises(ValueError, match="operator order must be an integer"):
        OperatorSpec(order, (zeros(m), zeros(m)), ones(m))
    assert OperatorSpec(np.int64(2), (zeros(m), zeros(m)), ones(m)).n == 2


def test_from_functions_rejects_bad_seed():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, 0.0), constant(m, 1.0)])  # y'' + y
    with pytest.raises(ResidualVerificationError):
        SolutionSystem.from_functions(op, [tabulate(m, np.exp),
                                           tabulate(m, lambda t: np.exp(-t))])


def test_from_functions_rejects_dependent_seed():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, 0.0), constant(m, -1.0)])
    e = tabulate(m, np.exp)
    with pytest.raises(WronskianFloorError):
        SolutionSystem.from_functions(op, [e, SampledFunction(m, 2.0 * e.values)])


def test_from_functions_and_polya_factors_raise_the_same_floor_error():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, 0.0), constant(m, -1.0)])
    e = tabulate(m, np.exp)
    funcs = [e, SampledFunction(m, 2.0 * e.values)]
    with pytest.raises(WronskianFloorError) as seeded:
        SolutionSystem.from_functions(op, funcs)
    sys = SolutionSystem(op, [(f.values, differentiate(f, 1).values) for f in funcs])
    with pytest.raises(WronskianFloorError) as factored:
        polya_factors(wronskians(sys))
    assert seeded.value.index == factored.value.index == 2
    assert seeded.value.node == factored.value.node
    assert str(seeded.value) == str(factored.value)


def test_from_functions_refuses_solutions_on_another_mesh():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, 0.0), constant(m, 1.0)])
    other = Mesh(0.0, 2.0, 401)
    with pytest.raises(ValueError, match=r"need 2 solutions on Mesh\(\[0.0, 1.0\]"):
        SolutionSystem.from_functions(op, [tabulate(other, np.sin),
                                           tabulate(other, np.cos)])


def test_explicit_and_generated_seeds_end_in_one_check(monkeypatch):
    checked = []
    original = spps.factorization._accepted

    def recording(op, derivs, *args, **fields):
        checked.append(sorted(fields))
        return original(op, derivs, *args, **fields)

    monkeypatch.setattr(spps.factorization, "_accepted", recording)
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, 0.0), constant(m, 1.0)])  # y'' + y
    given = SolutionSystem.from_functions(op, [tabulate(m, np.cos),
                                               tabulate(m, np.sin)])
    built = build_seed_system(op, rng_seed=1)
    assert checked == [[], ["retries", "truncations"]]
    for sys in (given, built):
        assert sys.residual_max <= 1e-6 and sys.wronskian_min > 1e-6


# -- build_seed_system ----------------------------------------------------------------

def test_build_seed_for_zero_coefficients_spans_polynomials():
    m = Mesh(0.0, 1.0, 401)
    op = d_power_op(m, 3)
    sys = build_seed_system(op, rng_seed=7)
    assert sys.residual_max <= 1e-6
    assert sys.wronskian_min > 1e-6
    # every solution is a polynomial of degree <= 2: third differences vanish
    for y in sys.derivs[:, 0]:
        coeffs = np.polyfit(m.nodes, y, 2)
        fit = np.polyval(coeffs, m.nodes)
        assert np.max(np.abs(fit - y)) < 1e-8 * max(1.0, np.max(np.abs(y)))


def test_build_seed_exponential_span():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [zeros(m), constant(m, -1.0)])  # y'' - y = 0
    sys = build_seed_system(op, rng_seed=3)
    # solutions lie in span{e^x, e^-x}: project and compare
    basis = np.column_stack([np.exp(m.nodes), np.exp(-m.nodes)])
    for y in sys.derivs[:, 0]:
        c, *_ = np.linalg.lstsq(basis, y, rcond=None)
        assert np.max(np.abs(basis @ c - y)) < 1e-8 * max(1.0, np.max(np.abs(y)))


def test_build_seed_deterministic():
    m = Mesh(0.0, 1.0, 101)
    op = make_op(m, [tabulate(m, lambda x: x), constant(m, 1.0)])
    a = build_seed_system(op, rng_seed=11)
    b = build_seed_system(op, rng_seed=11)
    np.testing.assert_array_equal(a.derivs[:, 0], b.derivs[:, 0])


def test_build_seed_third_order_smooth_coefficients():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [tabulate(m, lambda x: x), ones(m), tabulate(m, np.sin)])
    sys = build_seed_system(op, rng_seed=5)
    assert sys.residual_max <= 1e-6
    assert sys.wronskian_min > 1e-6
    assert all(operator_residual(op, SampledFunction(m, y)) < 1e-5
               for y in sys.derivs[:, 0])


def test_build_seed_derivative_tables_match_fd():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [zeros(m), constant(m, -1.0)])
    sys = build_seed_system(op, rng_seed=1)
    for row in sys.derivs:
        y = SampledFunction(m, row[0])
        fd = differentiate(y, 1)
        err = np.max(np.abs(fd.values - row[1]))
        assert err < 1e-7 * max(1.0, y.max_abs())


def test_build_seed_exhausted_budget_names_order(monkeypatch):
    m = Mesh(0.0, 1.0, 101)
    op = make_op(m, [zeros(m), ones(m)])  # y'' + y
    # the family {1, x - x0} has W_1 = W_2 = 1 and passes; no combination
    # of cos and sin keeps its modulus within 0.1% of its maximum
    monkeypatch.setattr(spps.factorization, "WRONSKIAN_FLOOR", 0.999)
    callers = _stacked_determinants(monkeypatch)
    with pytest.raises(SeedConstructionError,
                       match="order-2 recombination exhausted 25 retries") as exc:
        build_seed_system(op)
    assert exc.value.best_wronskian_min <= 0.999
    assert callers == ["_nested_wronskians"] * 26  # one W_2 per draw


def test_residual_of_an_infinite_imaginary_part_is_not_finite():
    # the stencil sums keep it out of the real part, yet every stride reads
    # node 0, so the residual is not finite, as with the tap loop, and the
    # seed check refuses such rows
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [zeros(m), zeros(m)])
    values = 1.0 + m.nodes.astype(np.complex128)
    values[0] = complex(1.0, np.inf)
    y = ones(m)
    object.__setattr__(y, "values", values)  # past the constructor's check
    assert len(ladder_strides(m)) > 1
    with np.errstate(all="ignore"):
        assert not np.isfinite(operator_residual(op, y))
        assert not np.isfinite(operator_residual(op, y, lam=2.0))
        derivs = np.array([[values, np.ones(m.n)], [np.ones(m.n), np.zeros(m.n)]])
        with pytest.raises(VanishingValueError) as exc:
            # the residual refuses the rows before their Wronskians are read
            _accepted(op, derivs, [ones(m)] * 3, RESIDUAL_TOL)
    assert exc.value.node == 0


def test_build_seed_refuses_a_steep_first_coefficient_on_the_first_draw(monkeypatch):
    # order 2's W_2 = exp(-int phi_1) spans e^-40 on [0, 1]; a recombination
    # scales it by det c, so no redraw could lift it above the floor
    draws = []

    def counting(rng, m, attempt):
        draws.append(attempt)
        return _combination_matrix(rng, m, attempt)

    monkeypatch.setattr(spps.factorization, "_combination_matrix", counting)
    m = Mesh(0.0, 1.0, 401)
    with pytest.raises(WronskianFloorError, match="W_2 .* 4.248e-18 .* node 400") as exc:
        build_seed_system(make_op(m, [constant(m, 40.0), ones(m)]))
    assert (exc.value.index, exc.value.node) == (2, 400)
    assert draws == [0]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_family_wronskians_are_those_of_the_order_below(order):
    # {1, int z_1, ..., int z_{m-1}}: W_{j+1} of the family is W_j of the
    # z's, also after the builder's identity-plus-lower draw
    op = seed_op(4, nodes=401)
    m = op.mesh
    if order == 2:
        lower = np.exp(-cumulative_integral(op.phi[0]).values)[None, None]
    else:
        lower = build_seed_system(make_op(m, op.phi[:order - 1]), rng_seed=1).derivs
    family = np.zeros((order, order, m.n), dtype=complex)
    family[0, 0] = 1.0
    family[1:, 0] = [cumulative_integral(SampledFunction(m, z)).values
                     for z in lower[:, 0]]
    family[1:, 1:] = lower
    c = _combination_matrix(np.random.default_rng(order), order, 0)
    rows = loop_recombine(family, c)
    assert np.array_equal(rows[0, 0], np.ones(m.n))
    got = loop_wronskians(rows)
    want = [lower[0, 0]] + loop_wronskians(lower)
    for w, v in zip(got, want, strict=True):
        np.testing.assert_allclose(w, v, rtol=0, atol=1e-12 * np.max(np.abs(v)))


@pytest.mark.parametrize("phis", [
    lambda m: [tabulate(m, lambda x: x), ones(m)],
    lambda m: [tabulate(m, lambda x: x), ones(m), tabulate(m, np.sin)],
    lambda m: [zeros(m), constant(m, -2.0), zeros(m), ones(m)],
], ids=["order2", "order3", "order4"])
def test_build_seed_wronskian_min_is_final_report(phis):
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, phis(m))
    sys = build_seed_system(op, rng_seed=2)
    assert sys.wronskian_min == min(
        rel for rel, _ in _relative_minima(wronskians(sys)[1:]))


# -- seed truncation ---------------------------------------------------------------

SEED_COEFFS = {  # phi_1..phi_n as callables, smooth on [0, 1]
    2: [lambda x: 0.5 * np.cos(x), lambda x: 1.0 + 0.3 * x],
    3: [lambda x: 0.2 * x, lambda x: np.sin(x), lambda x: 0.5 + 0.0 * x],
    4: [lambda x: 0.1 * np.cos(2 * x), lambda x: 0.3 * x, lambda x: -0.4 + 0.0 * x,
        lambda x: 0.2 * np.sin(x)],
    5: [lambda x: 0.1 * np.sin(x), lambda x: 0.2 + 0.0 * x, lambda x: -0.3 * x,
        lambda x: 0.1 * np.cos(x), lambda x: 0.5 + 0.0 * x],
}


def seed_op(n, nodes=201):
    m = Mesh(0.0, 1.0, nodes)
    return make_op(m, [tabulate(m, f) for f in SEED_COEFFS[n]])


# -- Wronskians climb from the order below ------------------------------------------

@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_family_factors_from_the_order_below_match_those_of_its_rows(order,
                                                                     monkeypatch):
    # each family is factorized from [1] + the order below's Wronskians; the
    # determinants of its recombined rows give the same factors to rounding
    rows_seen, factors_seen = [], []
    original_A, original_factors = spps.powers.compute_A, polya_factors

    def recording_A(rows, table):
        rows_seen.append(rows)
        return original_A(rows, table)

    def recording_factors(W):
        factors_seen.append(original_factors(W))
        return factors_seen[-1]

    monkeypatch.setattr(spps.powers, "compute_A", recording_A)
    monkeypatch.setattr(spps.factorization, "polya_factors", recording_factors)
    op = seed_op(order, nodes=401)
    # order 5's finite-difference residual floor lies above the default
    build_seed_system(op, rng_seed=1, residual_tol=1e-4)
    assert [len(b) for b in factors_seen] == list(range(3, order + 2))
    for rows, b in zip(rows_seen, factors_seen, strict=True):
        want = original_factors(_nested_wronskians(op.mesh, rows))
        for got, w in zip(b, want, strict=True):
            np.testing.assert_allclose(got.values, w.values, rtol=1e-12, atol=0)


def _stacked_determinants(monkeypatch):
    """The caller of each stacked np.linalg.det call, recorded while patched."""
    callers = []
    original = np.linalg.det

    def counting(a):
        if np.ndim(a) == 3:  # matrices [node, ell, k]
            callers.append(inspect.currentframe().f_back.f_code.co_name)
        return original(a)

    monkeypatch.setattr(np.linalg, "det", counting)
    return callers


def test_no_wronskian_is_formed_twice(monkeypatch):
    # the builder forms each stage-B draw's Wronskians once (orders 2, 3, 4:
    # 1 + 2 + 3 determinants) and climbs on them; build_workspace forms a
    # given seed's once, measured or not, and takes a built one's from the
    # builder
    callers = _stacked_determinants(monkeypatch)
    op = seed_op(4, nodes=401)
    seed = build_seed_system(op, rng_seed=1)
    assert seed.retries == 0
    assert callers == ["_nested_wronskians"] * 6
    for given in (seed, SolutionSystem(op, seed.derivs)):
        callers.clear()
        build_workspace(op, seed=given)
        assert callers == ["_nested_wronskians"] * 3
    callers.clear()
    ws = build_workspace(op, rng_seed=1)
    assert callers == ["_nested_wronskians"] * 6
    assert np.array_equal(ws.seed.derivs, seed.derivs)
    assert all(np.array_equal(p.values, q.values) for p, q in
               zip(ws.b, build_workspace(op, seed=seed).b, strict=True))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("i0", [1, 3, 11, 1017, 1599])
def test_seed_builds_wherever_the_basepoint_sits(n, i0):
    # the residual ladder reads no basepoint; it used to keep only the
    # strides dividing i0, and a full-mesh stride alone sat on its roundoff
    # floor and refused the seed
    m = Mesh(0.0, 1.0, 1601, i0)
    sys = build_seed_system(d_power_op(m, n))
    assert sys.residual_max <= RESIDUAL_TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_seed_truncation_stops_where_the_tail_is_negligible(n, monkeypatch):
    original = spps.powers._series_sums
    sums = {}  # (order, truncation) -> (k, alpha, tail ratio) of sums at -1

    def recording(table, lam, alpha=0):
        out = original(table, lam, alpha)
        if lam == -1.0:
            sums.setdefault((table.n, table.truncation), []).extend(
                (k, alpha, ratio) for k, ratio in enumerate(out[1], start=1))
        return out

    monkeypatch.setattr(spps.powers, "_series_sums", recording)
    op = seed_op(n)
    for rng_seed in range(4):
        sums.clear()
        sys = build_seed_system(op, rng_seed=rng_seed)
        assert len(sys.truncations) == n - 1
        for order, t in zip(range(2, n + 1), sys.truncations):
            assert t < 40
            # each shifted series summed once, S_{k,0} by the stop test
            assert sorted(e[:2] for e in sums[order, t]) == [
                (k, alpha) for k in range(1, order + 1)
                for alpha in range(order)]
            assert max(r for _, alpha, r in sums[order, t] if alpha == 0) \
                <= 1e-17


def test_seed_series_no_test_reached_is_summed_at_its_top(monkeypatch):
    # where no level's bounds let the stop test form the sums, the table
    # grows (16, 32, 64 levels) to ceil(180 / m), and the sums there are the
    # solutions: the seed of the levels where the tails settle, to rounding
    op = seed_op(3)
    want = build_seed_system(op, rng_seed=1)
    monkeypatch.setattr(spps.powers, "_tail_sums", lambda table, lam: None)
    got = build_seed_system(op, rng_seed=1)
    assert got.truncations == (90, 60)
    np.testing.assert_allclose(got.derivs, want.derivs, rtol=0,
                               atol=1e-12 * np.abs(want.derivs).max())


@pytest.mark.parametrize("k2, error, text", [
    (400.0, ResidualVerificationError, "seed residual"),
    (4000.0, SeedConstructionError, "order-2 seed series at -1 cancels"),
    (20000.0, SeedConstructionError, "order-2 seed series at -1 cancels")])
def test_stiff_seed_ends_in_an_error(k2, error, text):
    # y'' + k2 y on [0, 1]: the series at -1 stops by its tail, but past
    # k2 = 400 (eps times the factor 2.4e-12) its terms cancel so far that
    # eps times the factor is above TAIL_ERROR (6e-3 and 1.2), the rule of
    # the series gate: the seed fails by name, not by its residual or the
    # draws of a seed of rounding
    m = Mesh(0.0, 1.0, 801)
    op = make_op(m, [zeros(m), constant(m, k2)])
    with pytest.raises(error, match=text):
        build_seed_system(op)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_seed_rows_match_integrator(n):
    op = seed_op(n, nodes=401)
    mesh = op.mesh
    sys = build_seed_system(op, rng_seed=1)
    i0 = mesh.i0
    for row in sys.derivs:
        y0 = row[:, i0]
        want = np.empty((n, mesh.n), dtype=complex)
        for end, part in ((mesh.x2, slice(i0, None)), (mesh.x1, slice(i0, None, -1))):
            want[:, part] = integrate_ivp(n, SEED_COEFFS[n], lambda x: 1.0, mesh.x0,
                                          end, y0, 0.0, t_eval=mesh.nodes[part])
        for d, w in zip(row, want):  # every derivative row
            err = np.max(np.abs(d - w)) / np.max(np.abs(w))
            assert err < 1e-8


def test_built_seed_triangle_takes_the_seed_rows(monkeypatch):
    from spps.spectral import build_workspace
    calls = []
    original = spps.mesh.differentiate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (spps.mesh, spps.factorization, spps.powers):
        if hasattr(module, "differentiate"):
            monkeypatch.setattr(module, "differentiate", counting)
    op = seed_op(4, nodes=401)
    ws = build_workspace(op, rng_seed=1)
    assert calls == []  # neither the seed builder nor the triangle differentiates
    for ell in range(4):
        assert np.array_equal(ws.coeffs[ell, 0], ws.seed.derivs[0, ell])


# -- derivative rows as one array -----------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_arrays_match_per_entry_loops(n):
    sys = build_seed_system(seed_op(n, nodes=401), rng_seed=1)
    rows = sys.derivs
    for attempt in (0, 1):  # unit lower triangular, then fully random
        c = _combination_matrix(np.random.default_rng(n), n, attempt)
        assert np.array_equal(_recombine(rows, c), loop_recombine(rows, c))
    W = wronskians(sys)
    assert np.array_equal(W[1].values, rows[0, 0])
    for w, want in zip(W[2:], loop_wronskians(rows), strict=True):
        assert np.array_equal(w.values, want)
    table = formal_powers(polya_factors(W), sys.op.r, 4)
    A = compute_A(rows, table)
    assert np.array_equal(A, loop_triangle(rows, table))
    assert not A.flags.writeable


def test_solution_system_checks_its_rows():
    m = Mesh(0.0, 1.0, 101)
    op = make_op(m, [zeros(m), constant(m, -1.0)])
    rows = np.ones((2, 2, m.n), dtype=complex)
    for bad in (rows[:1], rows[:, :1], rows[:, :, :-1]):
        with pytest.raises(ValueError, match="shape"):
            SolutionSystem(op, bad)
    rows[1, 1, 37] = np.inf
    with pytest.raises(VanishingValueError, match="node 37") as exc:
        SolutionSystem(op, rows)
    assert exc.value.node == 37 and exc.value.x == m.nodes[37]
    rows[1, 1, 37] = 2.0
    sys = SolutionSystem(op, rows.tolist())  # any array-like, stored as a copy
    rows[0, 0, 0] = 5.0
    assert sys.derivs[0, 0, 0] == 1.0 and sys.derivs[1, 1, 37] == 2.0
    assert not sys.derivs.flags.writeable
