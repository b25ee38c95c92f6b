"""Wronskians, Polya factors, operator application, seed construction."""

import numpy as np
import pytest

import spps.factorization
import spps.mesh
import spps.powers
from spps import (
    Mesh,
    constant,
    coordinate,
    differentiate,
    ones,
    tabulate,
    zeros,
)
from spps.errors import (
    MeshMismatchError,
    RegionTruncationError,
    ResidualVerificationError,
    SeedConstructionError,
    StencilError,
    TruncationWarning,
    VanishingValueError,
    WronskianFloorError,
)
from spps.factorization import (
    OperatorSpec,
    SolutionSystem,
    _combination_matrix,
    _recombine,
    apply_coefficients,
    apply_factorized,
    build_seed_system,
    check_nonvanishing,
    operator_residual,
    polya_factors,
    polya_system,
    wronskians,
)

from spps.powers import compute_A, formal_powers

from oracles import (
    decimated_ladder_residual,
    integrate_ivp,
    loop_derivative,
    loop_recombine,
    loop_triangle,
    loop_wronskians,
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


# -- check_nonvanishing ---------------------------------------------------------

def test_nonvanishing_constant_passes():
    m = Mesh(0.0, 1.0, 101)
    rep = check_nonvanishing([ones(m)], 1e-6)
    assert rep.passed
    assert rep.entries[0].min_modulus == 1.0


def test_nonvanishing_exponential_passes_min_at_left():
    m = Mesh(0.0, 1.0, 101)
    rep = check_nonvanishing([tabulate(m, np.exp)], 1e-6)
    assert rep.passed
    assert rep.entries[0].node == 0
    assert rep.entries[0].min_modulus == pytest.approx(1.0)


def test_nonvanishing_fails_at_zero_crossing():
    m = Mesh(-1.0, 1.0, 101)
    rep = check_nonvanishing([coordinate(m)], 1e-6)
    assert not rep.passed
    assert rep.entries[0].node == 50  # the node nearest x = 0


def test_nonvanishing_sees_a_sign_change_between_nodes():
    m = Mesh(0.0, 3.0, 401)  # cos vanishes at pi/2, between nodes 209 and 210
    rep = check_nonvanishing([tabulate(m, np.cos)], 1e-6)
    assert not rep.passed
    assert rep.entries[0].relative < 1e-15
    assert rep.entries[0].node == 209


def test_nonvanishing_measures_the_chord_between_nodes():
    # x - 0.1 + 0.001i passes 0.001 from zero at x = 0.1, between the nodes
    # 0 and 0.25; the nearer one is reported
    m = Mesh(-1.0, 1.0, 9)
    rep = check_nonvanishing([coordinate(m) - 0.1 + 0.001j], 1e-6)
    e = rep.entries[0]
    assert rep.passed
    assert e.min_modulus == pytest.approx(0.001, rel=1e-12)
    assert (e.node, e.x) == (4, 0.0)


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
    np.testing.assert_allclose(fac.b[0].values, np.exp(x), rtol=1e-9)
    np.testing.assert_allclose(fac.b[1].values, np.exp(x), rtol=1e-9)
    np.testing.assert_allclose(fac.b[2].values, np.exp(-2 * x), rtol=1e-9)


def test_factors_for_monomial_seed_are_one():
    m = Mesh(0.0, 1.0, 401, 0)
    fac = polya_factors(wronskians(canonical_system(d_power_op(m, 4))))
    for bj in fac.b:
        # third derivatives come from finite differences, so roundoff
        # amplification ~eps/h^3 bounds the achievable accuracy here
        np.testing.assert_allclose(bj.values, 1.0, atol=1e-6)


def test_factors_raise_on_vanishing_wronskian():
    m = Mesh(-1.0, 1.0, 101)
    W = [ones(m), coordinate(m), ones(m)]
    with pytest.raises(WronskianFloorError) as exc:
        polya_factors(W)
    assert exc.value.index == 1
    assert exc.value.node == 50


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
    res = apply_factorized(fac, fac.b[0])  # L b_0 = 0
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
    sys_b = SolutionSystem.from_functions(op, [e1 + 0.5 * e2, e1 - 0.25j * e2])
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
    # 3 divides no segment count; 2 drops an odd basepoint; segs // 50 leaves
    # 51 nodes, not 1 (mod 4); segs // 8 leaves 9 nodes, below the order-6
    # stencil; segs // 4 leaves 5 nodes; 0 means the full mesh
    awkward = [3, 2, segs // 50, segs // 8, segs // 4, 0]
    for i0 in (segs // 2, 0, segs // 2 + 1):
        m = Mesh(0.0, 1.0, nodes, i0)
        y = tabulate(m, lambda t: np.exp((0.3 + 2j) * t) * (1 + t * t))
        for n in (2, 3, 4, 5, 6):
            op = ladder_op(m, n)
            # where lam r y dominates, lam * a and a * lam round apart
            for lam in (0, -9, 0.3 + 1.2j, 250 - 400j):
                for strides in (None, awkward):
                    got = operator_residual(op, y, lam, strides)
                    assert got == decimated_ladder_residual(op, y, lam, strides)
                    assert 0.0 < got < np.inf
            for strides in (None, awkward):
                assert operator_residual(op, zeros(m), -9, strides) == 0.0
            assert operator_residual(op, y, 1.0, [3, segs // 4]) == np.inf
            assert decimated_ladder_residual(op, y, 1.0, [3, segs // 4]) == np.inf


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
        SolutionSystem.from_functions(op, [e, 2.0 * e])


def test_from_functions_and_polya_factors_raise_the_same_floor_error():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [constant(m, 0.0), constant(m, -1.0)])
    e = tabulate(m, np.exp)
    funcs = [e, 2.0 * e]
    with pytest.raises(WronskianFloorError) as seeded:
        SolutionSystem.from_functions(op, funcs)
    sys = SolutionSystem(op, [(f.values, differentiate(f, 1).values) for f in funcs])
    with pytest.raises(WronskianFloorError) as factored:
        polya_factors(wronskians(sys))
    assert seeded.value.index == factored.value.index == 2
    assert seeded.value.node == factored.value.node
    assert str(seeded.value) == str(factored.value)


# -- build_seed_system ----------------------------------------------------------------

def test_build_seed_for_zero_coefficients_spans_polynomials():
    m = Mesh(0.0, 1.0, 401)
    op = d_power_op(m, 3)
    sys = build_seed_system(op, rng_seed=7)
    assert sys.residual_max <= 1e-6
    assert sys.wronskian_min > 1e-6
    # every solution is a polynomial of degree <= 2: third differences vanish
    for y in sys.y:
        coeffs = np.polyfit(m.nodes, y.values, 2)
        fit = np.polyval(coeffs, m.nodes)
        assert np.max(np.abs(fit - y.values)) < 1e-8 * max(1.0, y.max_abs())


def test_build_seed_exponential_span():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [zeros(m), constant(m, -1.0)])  # y'' - y = 0
    sys = build_seed_system(op, rng_seed=3)
    # solutions lie in span{e^x, e^-x}: project and compare
    basis = np.column_stack([np.exp(m.nodes), np.exp(-m.nodes)])
    for y in sys.y:
        c, *_ = np.linalg.lstsq(basis, y.values, rcond=None)
        assert np.max(np.abs(basis @ c - y.values)) < 1e-8 * max(1.0, y.max_abs())


def test_build_seed_deterministic():
    m = Mesh(0.0, 1.0, 101)
    op = make_op(m, [coordinate(m), constant(m, 1.0)])
    a = build_seed_system(op, rng_seed=11)
    b = build_seed_system(op, rng_seed=11)
    for ya, yb in zip(a.y, b.y):
        np.testing.assert_array_equal(ya.values, yb.values)


def test_build_seed_third_order_smooth_coefficients():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [coordinate(m), ones(m), tabulate(m, np.sin)])
    sys = build_seed_system(op, rng_seed=5)
    assert sys.residual_max <= 1e-6
    assert sys.wronskian_min > 1e-6
    assert all(operator_residual(op, y) < 1e-5 for y in sys.y)


def test_build_seed_derivative_tables_match_fd():
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, [zeros(m), constant(m, -1.0)])
    sys = build_seed_system(op, rng_seed=1)
    from spps import differentiate
    for y, row in zip(sys.y, sys.derivs):
        fd = differentiate(y, 1)
        err = np.max(np.abs(fd.values - row[1]))
        assert err < 1e-7 * max(1.0, y.max_abs())


def test_build_seed_exhausted_budget_names_stage():
    m = Mesh(0.0, 1.0, 101)
    op = d_power_op(m, 2)
    # no relative Wronskian minimum exceeds 1, so every draw fails
    with pytest.raises(SeedConstructionError, match="family") as exc:
        build_seed_system(op, max_retries=2, wronskian_floor=1.0)
    assert exc.value.best_wronskian_min <= 1.0


@pytest.mark.parametrize("phis", [
    lambda m: [coordinate(m), ones(m)],
    lambda m: [coordinate(m), ones(m), tabulate(m, np.sin)],
    lambda m: [zeros(m), constant(m, -2.0), zeros(m), ones(m)],
], ids=["order2", "order3", "order4"])
def test_build_seed_wronskian_min_is_final_report(phis):
    m = Mesh(0.0, 1.0, 401)
    op = make_op(m, phis(m))
    sys = build_seed_system(op, rng_seed=2)
    report = check_nonvanishing(wronskians(sys)[1:])
    assert sys.wronskian_min == report.min_relative


# -- seed truncation ---------------------------------------------------------------

SEED_COEFFS = {  # phi_1..phi_n as callables, smooth on [0, 1]
    2: [lambda x: 0.5 * np.cos(x), lambda x: 1.0 + 0.3 * x],
    3: [lambda x: 0.2 * x, lambda x: np.sin(x), lambda x: 0.5 + 0.0 * x],
    4: [lambda x: 0.1 * np.cos(2 * x), lambda x: 0.3 * x, lambda x: -0.4 + 0.0 * x,
        lambda x: 0.2 * np.sin(x)],
}


def seed_op(n, nodes=201):
    m = Mesh(0.0, 1.0, nodes)
    return make_op(m, [tabulate(m, f) for f in SEED_COEFFS[n]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_seed_truncation_stops_where_the_tail_is_negligible(n, monkeypatch):
    original = spps.powers._solution_sum
    sums = {}  # (order, truncation) -> (k, alpha, tail ratio) of sums at -1

    def recording(table, k, lam, alpha=0):
        s, ratio = original(table, k, lam, alpha)
        if lam == -1.0:
            sums.setdefault((table.n, table.truncation), []).append(
                (k, alpha, ratio))
        return s, ratio

    monkeypatch.setattr(spps.powers, "_solution_sum", recording)
    op = seed_op(n)
    for rng_seed in range(4):
        sums.clear()
        capped = build_seed_system(op, rng_seed=rng_seed, truncation=40)
        assert len(capped.truncations) == n - 1
        for order, t in zip(range(2, n + 1), capped.truncations):
            assert t < 40
            # each shifted series summed once, S_{k,0} by the stop test
            assert sorted(e[:2] for e in sums[order, t]) == [
                (k, alpha) for k in range(1, order + 1)
                for alpha in range(order)]
            assert max(r for _, alpha, r in sums[order, t] if alpha == 0) \
                <= 1e-17
        wide = build_seed_system(op, rng_seed=rng_seed, truncation=60)
        assert wide.truncations == capped.truncations
        np.testing.assert_array_equal(capped.derivs, wide.derivs)


def test_seed_truncation_is_capped():
    m = Mesh(0.0, 1.0, 201)
    op = make_op(m, [zeros(m), constant(m, 2.0)])  # stops at 16 uncapped
    assert build_seed_system(op, truncation=40).truncations == (16,)
    assert build_seed_system(op, truncation=12).truncations == (12,)
    with pytest.warns(TruncationWarning):  # as before, the cap may be short
        assert build_seed_system(seed_op(3), truncation=5).truncations == (5, 5)
    assert canonical_system(d_power_op(m, 2)).truncations == ()


def test_seed_tail_past_the_cap_raises():
    # at truncation 3 the order-3 seed's series at -1 keeps a tail ratio of
    # 6e-6 there, above the limit of every other series sum
    with pytest.raises(RegionTruncationError, match="lam=-1.0 exceeds"):
        build_seed_system(seed_op(3), truncation=3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_seed_rows_match_integrator(n):
    op = seed_op(n, nodes=401)
    mesh = op.mesh
    sys = build_seed_system(op, rng_seed=1, truncation=40)
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
        assert np.array_equal(ws.coeffs.table[ell, 0], ws.seed.derivs[0, ell])


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
    assert np.array_equal(A.table, loop_triangle(rows, table))
    assert not A.table.flags.writeable


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
