"""Formal powers, derivative coefficient tables, and series evaluation."""

import math
import warnings

import numpy as np
import pytest

import spps.powers
from spps import Mesh, SampledFunction, constant, ones, tabulate, zeros
from spps.errors import (
    MeshMismatchError,
    RegionTruncationError,
    TruncationWarning,
    VanishingValueError,
)
from spps.factorization import (
    OperatorSpec,
    SolutionSystem,
    build_seed_system,
    polya_factors,
    wronskians,
)
from spps.powers import (
    _divisors,
    _rows,
    compute_A,
    evaluate_derivatives,
    evaluate_solution,
    formal_powers,
    series_coefficients_at_node,
    tail_ratio,
)
from spps.spectral import build_workspace, with_truncation

from oracles import (
    full_derivative_sum,
    loop_formal_powers,
    loop_rows,
    node_coefficients,
)


def trivial_system(mesh, n):
    """The pure n-th derivative and its monomial seed."""
    op = OperatorSpec(n, tuple(zeros(mesh) for _ in range(n)), ones(mesh))
    funcs = []
    fact = 1.0
    for k in range(n):
        if k > 0:
            fact *= k
        funcs.append(tabulate(mesh, lambda t, k=k, f=fact: (t - mesh.x0) ** k / f))
    return op, SolutionSystem.from_functions(op, funcs)


def exponential_system(mesh):
    """y'' - 3y' + 2y and its seed {e^x, e^2x}."""
    op = OperatorSpec(
        2, (constant(mesh, -3.0), constant(mesh, 2.0)), ones(mesh))
    return op, SolutionSystem.from_functions(
        op, [tabulate(mesh, np.exp), tabulate(mesh, lambda t: np.exp(2 * t))])


def trivial_factorization(mesh, n):
    """Factorization of the pure n-th derivative from the monomial seed."""
    op, sys = trivial_system(mesh, n)
    return op, polya_factors(wronskians(sys))


def exponential_factorization(mesh):
    """Factorization of y'' - 3y' + 2y from {e^x, e^2x}."""
    op, sys = exponential_system(mesh)
    return op, polya_factors(wronskians(sys))


def triangle_parts(op, sys, truncation=0):
    """Factors, power table and triangle A of a seed, as build_workspace
    makes them."""
    fac = polya_factors(wronskians(sys))
    table = formal_powers(fac, op.r, truncation)
    return fac, table, compute_A(sys.derivs, table)


# -- derivative coefficient table ------------------------------------------------

def test_A_all_ones_factors():
    m = Mesh(0.0, 1.0, 401, 0)
    _, _, A = triangle_parts(*trivial_system(m, 4))
    assert A.shape == (4, 4, m.n)
    for ell in range(4):
        for alpha in range(ell + 1):
            want = 1.0 if alpha == ell else 0.0
            # the seed rows are finite differences of the monomials
            assert np.max(np.abs(A[ell, alpha] - want)) < 1e-6


def test_A_top_entry_is_first_factor():
    m = Mesh(0.0, 1.0, 101)
    _, _, A = triangle_parts(*exponential_system(m))
    np.testing.assert_allclose(A[0, 0], np.exp(m.nodes), rtol=1e-9)


def test_A_second_row_closed_form():
    # seed {e^x, x e^x, e^{3x}}: W1 = e^x, W2 = e^{2x}, W3 = 4 e^{5x}
    # so b0 = e^x, b1 = W0 W2 / W1^2 = 1, b2 = W1 W3 / W2^2 = 4 e^{2x}, and
    #   A_{1,0} = b0' = e^x            A_{1,1} = b0 b1 = e^x
    #   A_{2,1} = A_{1,1}' + A_{1,0} b1 = 2 e^x
    #   A_{2,2} = A_{1,1} b2 = 4 e^{3x}
    m = Mesh(0.0, 1.0, 401)
    x = m.nodes
    op = OperatorSpec(3, tuple(zeros(m) for _ in range(3)), ones(m))
    derivs = [[fn(x, d) for d in range(3)] for fn in [
        lambda t, d: np.exp(t),
        lambda t, d: (t + d) * np.exp(t),
        lambda t, d: 3.0**d * np.exp(3 * t)]]
    sys = SolutionSystem(op, derivs, 0, 1.0, 0.0)
    W = wronskians(sys)
    np.testing.assert_allclose(W[1].values, np.exp(x), rtol=1e-12)
    np.testing.assert_allclose(W[2].values, np.exp(2 * x), rtol=1e-12)
    np.testing.assert_allclose(W[3].values, 4 * np.exp(5 * x), rtol=1e-12)
    _, _, A = triangle_parts(op, sys)
    np.testing.assert_allclose(A[1, 0], np.exp(x), rtol=1e-12)
    np.testing.assert_allclose(A[1, 1], np.exp(x), rtol=1e-12)
    np.testing.assert_allclose(A[2, 1], 2 * np.exp(x), rtol=1e-12)
    np.testing.assert_allclose(A[2, 2], 4 * np.exp(3 * x), rtol=1e-12)


# -- formal powers ----------------------------------------------------------------

def test_powers_of_pure_derivative_are_monomials():
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=4)
    x = m.nodes
    for k in (1, 2):
        for j in range(4 * 2 + k):
            np.testing.assert_allclose(
                table.secondary(k, j).values, x**j, atol=5e-13 * max(1.0, j))


def test_powers_third_order_monomials_from_interior_basepoint():
    m = Mesh(-1.0, 1.0, 401)
    op, fac = trivial_factorization(m, 3)
    table = formal_powers(fac, op.r, truncation=3)
    for k in (1, 2, 3):
        for j in range(3 * 3 + k):
            np.testing.assert_allclose(
                table.secondary(k, j).values, m.nodes**j, atol=1e-11)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_powers_match_the_recursion_loop(n):
    # complex factors from a built seed; the table built at once and the
    # one grown from a lower truncation must both be the loop's to the bit
    m = Mesh(0.0, 1.0, 201)
    phi = tuple(tabulate(m, lambda x, j=j: np.cos((j + 1) * x) + 0.5j * x)
                for j in range(n))
    r = tabulate(m, lambda x: 1.0 + 0.25j * np.sin(3 * x))
    op = OperatorSpec(n, phi, r)
    ws = build_workspace(op, build_seed_system(op, rng_seed=1), truncation=3)
    assert any(np.any(f.values.imag != 0) for f in ws.b)
    want, want_norms = loop_formal_powers(ws.b, r, 7)
    for table in (formal_powers(ws.b, r, 7), with_truncation(ws, 7).table):
        assert table.norms == tuple(map(tuple, want_norms))
        for got_row, want_row in zip(table.x, want, strict=True):
            assert len(got_row) == len(want_row)
            assert all(np.all(g == w) for g, w in zip(got_row, want_row))


def test_main_power_indexing():
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=3)
    np.testing.assert_allclose(table.main(1, 2).values, m.nodes**4, atol=1e-12)
    np.testing.assert_allclose(table.main(2, 1).values, m.nodes**3, atol=1e-12)


def test_powers_vanish_at_basepoint():
    m = Mesh(0.0, 2.0, 401)
    op, fac = exponential_factorization(m)
    table = formal_powers(fac, op.r, truncation=5)
    i0 = m.i0
    for k in (1, 2):
        for j in range(1, 11):
            assert table.secondary(k, j).values[i0] == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_powers_are_integrated_as_arrays(n, monkeypatch):
    m = Mesh(0.0, 1.0, 101)
    op, fac = trivial_factorization(m, n)
    kernel, original = [], spps.powers._antiderivative
    wrapped, init = [], SampledFunction.__init__

    def integrating(v, h, i0):
        kernel.append(v)
        return original(v, h, i0)

    def wrapping(self, mesh, values):
        wrapped.append(values)
        init(self, mesh, values)

    monkeypatch.setattr(spps.powers, "_antiderivative", integrating)
    monkeypatch.setattr(SampledFunction, "__init__", wrapping)
    built = {}
    for M in (2, 6):
        kernel.clear()
        wrapped.clear()
        table = formal_powers(fac, op.r, M)
        powers = sum(len(row) - 1 for row in table.x)
        assert powers == n * M * n + n * (n - 1) // 2
        assert len(kernel) == powers  # one integration per power
        built[M] = len(wrapped)
        assert all(not x.flags.writeable for row in table.x for x in row)
    assert built[2] == built[6]  # no SampledFunction per power


def test_overflowing_power_names_the_first_node():
    m = Mesh(0.0, 1.0, 101)
    op = OperatorSpec(2, (zeros(m), zeros(m)), constant(m, 1e200))
    sys = SolutionSystem.from_functions(op, [ones(m), tabulate(m, lambda x: x)])
    fac = polya_factors(wronskians(sys))
    with pytest.raises(VanishingValueError) as exc:
        formal_powers(fac, op.r, 10)
    assert (exc.value.node, exc.value.x) == (0, 0.0)


def test_an_infinite_imaginary_part_in_a_factor_names_the_same_node():
    # the kernel sums real and imaginary parts apart; the tap loop before it
    # named the same node
    m = Mesh(0.0, 1.0, 101, 0)
    op, fac = trivial_factorization(m, 3)
    values = fac[1].values.copy()
    values[40] = complex(values[40].real, np.inf)
    bad = SampledFunction(m, fac[1].values)
    object.__setattr__(bad, "values", values)  # past the constructor's check
    with pytest.raises(VanishingValueError) as exc:
        formal_powers((fac[0], bad, fac[2], fac[3]), op.r, 4)
    assert (exc.value.node, exc.value.x) == (37, m.nodes[37])


# -- series evaluation -------------------------------------------------------------

def test_solution_at_lambda_zero_is_iterated_integral():
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = exponential_factorization(m)
    table = formal_powers(fac, op.r, truncation=8)
    # at lambda = 0 only the m = 0 term survives: u_k = b0 X^(k-1)/(k-1)!
    for k in (1, 2):
        u = evaluate_solution(table, fac[0], k, 0.0)
        fact = 1.0
        for i in range(1, k):
            fact *= i
        want = fac[0].values * table.secondary(k, k - 1).values / fact
        np.testing.assert_allclose(u.values, want, rtol=1e-12)


def test_pure_second_derivative_gives_hyperbolic_pair():
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=30)
    u1 = evaluate_solution(table, fac[0], 1, 1.0)
    u2 = evaluate_solution(table, fac[0], 2, 1.0)
    np.testing.assert_allclose(u1.values, np.cosh(m.nodes), rtol=1e-13)
    np.testing.assert_allclose(u2.values, np.sinh(m.nodes), atol=1e-14)


def test_pure_second_derivative_oscillatory():
    m = Mesh(0.0, np.pi, 401, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=40)
    u1 = evaluate_solution(table, fac[0], 1, -4.0)  # cos(2x)
    np.testing.assert_allclose(u1.values, np.cos(2 * m.nodes), atol=1e-11)


def test_solution_solves_equation_at_complex_lambda():
    m = Mesh(0.0, 1.0, 801)
    op, fac = exponential_factorization(m)
    table = formal_powers(fac, op.r, truncation=30)
    lam = 1.5 + 2.0j
    from spps.factorization import operator_residual
    for k in (1, 2):
        u = evaluate_solution(table, fac[0], k, lam)
        assert operator_residual(op, u, lam=lam) < 1e-8


def test_truncation_warning_raised_when_tail_measurable():
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=3)
    assert 1e-12 < tail_ratio(table, 1, 0.01) <= 1e-6
    with pytest.warns(TruncationWarning):
        evaluate_solution(table, fac[0], 1, 0.01)


def test_truncation_error_raised_when_tail_large():
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=3)
    assert tail_ratio(table, 1, 400.0) > 1e-6
    with pytest.raises(RegionTruncationError, match="raise the truncation"):
        evaluate_solution(table, fac[0], 1, 400.0)


def kahan_partial_sums(table, k, lam):
    """Term bounds |c_m| ||X_m|| and the Kahan partial sums of u_k / b_0."""
    n, M = table.n, table.truncation
    bounds, sums = [], []
    s = comp = np.zeros(table.mesh.n, dtype=complex)
    c = 1.0 / math.factorial(k - 1)
    for mm in range(M + 1):
        x = table.main(k, mm).values
        bounds.append(abs(c) * np.max(np.abs(x)))
        y = c * x - comp
        t = s + y
        comp = (t - s) - y
        s = t
        sums.append(s)
        prod = 1.0
        for j in range(mm * n + k, (mm + 1) * n + k):
            prod *= j
        c = c * lam / prod
    return bounds, sums


def test_tail_ratio_and_solution_from_kahan_sum(terms_read):
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = exponential_factorization(m)
    M = 30
    table = formal_powers(fac, op.r, truncation=M)
    early = set()
    for k in (1, 2):
        for lam in (3.0, -40.0 + 5.0j, 400.0):
            bounds, sums = kahan_partial_sums(table, k, lam)
            # the first m past which the bounds of all later terms, summed
            # from the last one down, are at most 1e-17 of max|partial sum|
            stop = next(mm for mm in range(M + 1) if sum(reversed(
                bounds[mm + 1:])) <= 1e-17 * np.max(np.abs(sums[mm])))
            early.add(stop < M)
            terms_read.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                u = evaluate_solution(table, fac[0], k, lam)
            assert terms_read == [stop + 1]
            # an uncompensated sum is within a few ulp of the sum of its
            # terms' moduli (2 ulp here; 140 ulp of max|s| at -40 + 5i,
            # where the terms cancel)
            want = fac[0].values * sums[stop]
            slack = 4 * np.spacing(sum(bounds[:stop + 1])) * np.max(np.abs(fac[0].values))
            assert np.max(np.abs(u.values - want)) <= slack
            top = np.max(np.abs(sums[stop]))
            assert sum(bounds[stop + 1:]) <= 1e-17 * top
            assert np.max(np.abs(sums[stop] - sums[M])) <= 4 * np.spacing(top)
            # max|s| moves with the sum's rounding, and the ratio with it
            assert tail_ratio(table, k, lam) == pytest.approx(bounds[M] / top,
                                                             rel=1e-13)
    assert early == {True, False}


def test_cancelling_sum_stops_later_than_a_largest_term_rule(terms_read):
    # y'' = lam y at lam = -400: terms reach ~1e8 while |u_1| = |cos 20x| <= 1
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=80)
    bounds, sums = kahan_partial_sums(table, 1, -400.0)
    u = evaluate_solution(table, fac[0], 1, -400.0)
    largest_term_stop = next(mm for mm in range(81) if sum(
        bounds[mm + 1:]) <= 1e-17 * max(bounds))
    assert len(terms_read) == 1 and largest_term_stop + 1 < terms_read[0] < 81
    # what the largest-term rule drops would matter; what the sum drops cannot
    top = np.max(np.abs(sums[-1]))
    assert sum(bounds[terms_read[0]:]) <= 1e-17 * top < sum(bounds[largest_term_stop + 1:])
    # b_0 = 1; the uncompensated sum is within a few ulp of its terms' moduli
    # (5.4e-9 from the full compensated sum, against a slack of 1.2e-7)
    full = fac[0].values * sums[-1]
    assert np.max(np.abs(u.values - full)) <= 4 * np.spacing(sum(bounds[:terms_read[0]]))


@pytest.mark.parametrize("nodes, compensated", [(401, 2.009e-8), (1601, 3.837e-8)])
def test_cancelling_sum_is_no_worse_than_the_compensated_loop(nodes, compensated):
    # u_1 of y'' = lam y at lam = -400 is cos 20x; the terms' rounding,
    # magnified ~1e8 by the cancellation, sets the error. The per-term
    # compensated loop this product replaced read the figures given here
    m = Mesh(0.0, 1.0, nodes, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=80)
    u = evaluate_solution(table, fac[0], 1, -400.0)
    assert np.max(np.abs(u.values - np.cos(20 * m.nodes))) <= compensated


def test_no_warning_when_series_converged():
    import warnings
    m = Mesh(0.0, 1.0, 401, 0)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, truncation=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate_solution(table, fac[0], 1, 1.0)


def test_cached_divisors_match_the_inline_recurrence():
    # the coefficients of S_{k,alpha} advanced as _solution_sum did before
    # its divisors were cached: j0! first, then (j+1) ... (j+n) by math.prod
    for n in range(2, 6):
        for k in range(1, n + 1):
            for alpha in range(n):
                m0 = int(alpha >= k)
                j0 = m0 * n + k - alpha - 1
                for count in (0, 1, 2, 41):
                    for lam in (1.0, -40.0 + 5.0j):
                        cs = [(lam if m0 else 1.0) / math.factorial(j0)][:count]
                        for m in range(m0, m0 + count - 1):
                            cs.append(cs[-1] * lam / math.prod(range(
                                m * n + k - alpha, m * n + n + k - alpha),
                                start=1.0))
                        first, *steps = _divisors(n, k, alpha, count)
                        got = [(lam if m0 else 1.0) / first][:count]
                        for d in steps:
                            got.append(got[-1] * lam / d)
                        assert got == cs


@pytest.mark.parametrize("k", [True, 1.0, 1.5])
def test_evaluate_solution_refuses_an_index_that_is_not_an_integer(k):
    # True returned u_1, 1.0 and 1.5 raised a raw TypeError
    m = Mesh(0.0, 1.0, 101)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, 10)
    with pytest.raises(ValueError, match=f"solution index k={k!r}"):
        evaluate_solution(table, fac[0], k, -1.0)
    assert np.array_equal(evaluate_solution(table, fac[0], np.int64(1), -1.0).values,
                          evaluate_solution(table, fac[0], 1, -1.0).values)


def test_evaluate_solution_refuses_b0_on_another_mesh():
    # a b_0 with the table's node count on another interval was multiplied
    # in, and the samples came back labelled with its mesh
    m = Mesh(0.0, 1.0, 101)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, 10)
    with pytest.raises(MeshMismatchError):
        evaluate_solution(table, ones(Mesh(0.0, 2.0, 101)), 1, -1.0)
    assert evaluate_solution(table, ones(Mesh(0.0, 1.0, 101)), 1, -1.0).mesh == m


@pytest.mark.parametrize("index", [0, 2, 3])
def test_formal_powers_refuses_a_factor_on_another_mesh(index):
    # a factor with the weight's node count on another interval: b_n was
    # caught only by its product with b_0, and b_1 .. b_{n-1} not at all
    m = Mesh(0.0, 1.0, 101)
    op, fac = trivial_factorization(m, 3)
    b = list(fac)
    b[index] = ones(Mesh(0.0, 2.0, 101))
    with pytest.raises(MeshMismatchError, match=rf"b_{index} on Mesh\(\[0.0, 2.0\]"):
        formal_powers(b, op.r, 10)
    with pytest.raises(MeshMismatchError, match="b_0 on"):  # the weight's mesh
        formal_powers(fac, ones(Mesh(0.0, 2.0, 101)), 10)


@pytest.mark.parametrize("k", [True, 1.0, 1.5, 0, 3])
def test_tail_ratio_refuses_an_index_that_is_not_a_solution_index(k):
    # True gave u_1's ratio, 1.0 and 1.5 raised a raw TypeError, 0 gave
    # u_2's ratio and 3 an IndexError
    m = Mesh(0.0, 1.0, 101)
    op, fac = trivial_factorization(m, 2)
    table = formal_powers(fac, op.r, 10)
    with pytest.raises(ValueError, match=f"solution index k={k!r} outside 1..2"):
        tail_ratio(table, k, -1.0)


@pytest.mark.parametrize("ell", [True, 1.0, 1.5])
def test_evaluate_derivatives_refuses_an_order_that_is_not_an_integer(ell):
    # True gave the first derivative, 1.0 and 1.5 raised a raw TypeError
    m = Mesh(0.0, 1.0, 101)
    fac, table, A = triangle_parts(*trivial_system(m, 3), truncation=10)
    with pytest.raises(ValueError, match=f"derivative order {ell!r} outside"):
        evaluate_derivatives(table, A, 1, -1.0, ell)


# -- derivative evaluation -----------------------------------------------------------

def test_derivative_matches_finite_difference():
    m = Mesh(0.0, 1.0, 801)
    op, sys = exponential_system(m)
    fac, table, A = triangle_parts(op, sys, truncation=30)
    from spps import differentiate
    for k in (1, 2):
        u = evaluate_solution(table, fac[0], k, 2.0)
        du = evaluate_derivatives(table, A, k, 2.0, 1)
        fd = differentiate(u, 1)
        err = np.max(np.abs(du.values[2:-2] - fd.values[2:-2]))
        assert err < 1e-7 * max(1.0, u.max_abs())


def test_derivative_ladder_for_pure_operator():
    # for y'' = lam y built from the monomial seed, u_2' = u_1 and u_1' = lam u_2
    m = Mesh(0.0, 1.0, 401, 0)
    fac, table, A = triangle_parts(*trivial_system(m, 2), truncation=30)
    lam = -2.5
    u1 = evaluate_solution(table, fac[0], 1, lam)
    u2 = evaluate_solution(table, fac[0], 2, lam)
    d1 = evaluate_derivatives(table, A, 1, lam, 1)
    d2 = evaluate_derivatives(table, A, 2, lam, 1)
    np.testing.assert_allclose(d2.values, u1.values, atol=1e-12)
    np.testing.assert_allclose(d1.values, lam * u2.values, atol=1e-12)


def test_third_order_derivative_consistency():
    m = Mesh(0.0, 1.0, 801)
    op = OperatorSpec(
        3, (tabulate(m, lambda x: x), ones(m), tabulate(m, np.sin)), ones(m))
    from spps.factorization import build_seed_system
    sys = build_seed_system(op, rng_seed=5)
    fac, table, A = triangle_parts(op, sys, truncation=25)
    from spps import differentiate
    u = evaluate_solution(table, fac[0], 2, 1.0)
    for ell in (1, 2):
        du = evaluate_derivatives(table, A, 2, 1.0, ell)
        fd = differentiate(u, ell)
        lo = hi = 4
        err = np.max(np.abs(du.values[lo:-hi] - fd.values[lo:-hi]))
        assert err < 1e-5 * max(1.0, u.max_abs())


# -- initial data -------------------------------------------------------------------

def test_initial_values_structure():
    m = Mesh(0.0, 1.0, 401, 0)
    _, _, A = triangle_parts(*exponential_system(m))
    v1, v2 = A[:, :, m.i0].T
    assert v1[0] == pytest.approx(1.0)  # b0(0) = e^0
    assert v2[0] == 0.0
    assert abs(v2[1]) > 1e-12  # nonzero diagonal


def test_initial_matrix_lower_triangular():
    m = Mesh(0.0, 1.0, 401)
    op = OperatorSpec(
        3, (tabulate(m, lambda x: x), ones(m), tabulate(m, np.sin)), ones(m))
    from spps.factorization import build_seed_system
    _, _, A = triangle_parts(op, build_seed_system(op, rng_seed=5))
    mat = A[:, :, m.i0]
    assert mat.shape == (3, 3)
    for ell in range(3):
        for k in range(ell + 2, 4):
            assert mat[ell, k - 1] == 0.0
    assert all(abs(mat[k, k]) > 1e-12 for k in range(3))


def test_initial_matrix_matches_evaluated_solutions():
    m = Mesh(0.0, 1.0, 401)
    op, sys = exponential_system(m)
    fac, table, A = triangle_parts(op, sys, truncation=30)
    mat = A[:, :, m.i0]
    i0 = m.i0
    for lam in (0.0, 1.0, -2.0, 3.0j):
        for k in (1, 2):
            u = evaluate_solution(table, fac[0], k, lam)
            assert u.values[i0] == pytest.approx(mat[0, k - 1], abs=1e-12)
            du = evaluate_derivatives(table, A, k, lam, 1)
            assert du.values[i0] == pytest.approx(mat[1, k - 1], abs=1e-12)


def third_order_table(mesh, truncation):
    op = OperatorSpec(
        3, (tabulate(mesh, lambda x: x), ones(mesh), tabulate(mesh, np.sin)),
        ones(mesh))
    from spps.factorization import build_seed_system
    _, table, A = triangle_parts(op, build_seed_system(op, rng_seed=5),
                                 truncation)
    return table, A


@pytest.mark.parametrize("lam", [-1.0, 3.0 + 2.0j, -40.0])
def test_derivatives_stop_early_and_match_the_full_sum(lam, terms_read):
    table, A = third_order_table(Mesh(0.0, 1.0, 801), 30)
    for k in (1, 2, 3):
        for ell in (1, 2):
            terms_read.clear()
            got = evaluate_derivatives(table, A, k, lam, ell).values
            # each shifted series stops well before its M + 1 = 31 terms
            assert len(terms_read) == ell + 1 and sum(terms_read) <= 16 * (ell + 1)
            want = full_derivative_sum(table, A, k, lam, ell)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_rows_match_per_row_loop():
    # the rows of every ell at once, in the per-row loop's operations
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        a = (rng.normal(size=(n, n, 57)) + 1j * rng.normal(size=(n, n, 57))) \
            * np.tri(n)[:, :, None]  # zero above the diagonal, as A is
        sums = list(rng.normal(size=(n, 57)) + 1j * rng.normal(size=(n, 57)))
        for count in range(1, n + 1):
            assert np.array_equal(_rows(a, sums[:count]),
                                  loop_rows(a, sums[:count]))


# -- per-node series coefficients ------------------------------------------------

def test_gathered_coefficients_match_per_entry_sums():
    m = Mesh(0.0, 1.0, 401)
    table, A = third_order_table(m, 20)
    nodes = [0, m.i0, m.n - 1]
    got = series_coefficients_at_node(table, A, nodes)
    assert got.shape == (3, 3, 3, 21)
    for p, node in enumerate(nodes):
        for ell in range(3):
            for k in (1, 2, 3):
                # same operations; array products may round the last bit
                np.testing.assert_allclose(
                    got[p, ell, k - 1], node_coefficients(table, A, k, ell, node),
                    rtol=1e-15, atol=0.0)
    # at the basepoint only lam^0 is left, the closed-form initial data
    assert np.array_equal(got[1, :, :, 0], A[:, :, m.i0])
    assert not np.any(got[1, :, :, 1:])


def test_series_coefficients_reproduce_evaluation():
    m = Mesh(0.0, 1.0, 401)
    op, sys = exponential_system(m)
    fac, table, A = triangle_parts(op, sys, truncation=12)
    node = m.n - 1
    lam = -1.3 + 0.7j
    (coeffs_at,) = series_coefficients_at_node(table, A, [node])
    for k in (1, 2):
        coeffs = coeffs_at[0, k - 1]
        horner = 0.0 + 0.0j
        for c in reversed(coeffs):
            horner = horner * lam + c
        u = evaluate_solution(table, fac[0], k, lam)
        assert horner == pytest.approx(u.values[node], rel=1e-12)
        coeffs1 = coeffs_at[1, k - 1]
        horner1 = 0.0 + 0.0j
        for c in reversed(coeffs1):
            horner1 = horner1 * lam + c
        du = evaluate_derivatives(table, A, k, lam, 1)
        assert horner1 == pytest.approx(du.values[node], rel=1e-11)
