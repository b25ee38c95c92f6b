"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from spps import (
    BoundaryConditions,
    Interval,
    Mesh,
    OperatorSpec,
    SolutionSystem,
    build_seed_system,
    build_workspace,
    compute_A,
    constant,
    evaluate_derivatives,
    evaluate_solution,
    differentiate,
    find_eigenvalues,
    formal_powers,
    initial_matrix,
    ones,
    operator_residual,
    polya_factors,
    solve_initial_value,
    tabulate,
    wronskians,
    zeros,
)

from oracles import integrate_ivp


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{cid}: {detail}"


def monomial_seed(op):
    # y_k = (x - x0)^k / k! with exact derivative tables: finite-difference
    # derivatives of order n-1 would add roundoff noise ~ eps / h^(n-1) to
    # the top Wronskian, far above the accuracy being measured here
    mesh = op.mesh
    derivs = np.zeros((op.n, op.n, mesh.n), dtype=complex)
    for k in range(op.n):
        for ell in range(k + 1):
            f = float(math.factorial(k - ell))
            derivs[k, ell] = (mesh.nodes - mesh.x0) ** (k - ell) / f
    return SolutionSystem(op, derivs, 0, 1.0, 0.0)


def pure_workspace(mesh, n, truncation):
    op = OperatorSpec(n, tuple(zeros(mesh) for _ in range(n)), ones(mesh))
    return build_workspace(op, seed=monomial_seed(op), truncation=truncation)


def test_c1_powers_of_pure_derivative_are_monomials():
    # X_k^(j) = x^j for the n-th derivative operator with the monomial seed
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 5):
        mesh = Mesh(0.0, 1.0, 401, 0)
        ws = pure_workspace(mesh, n, truncation=10)
        for k in range(1, n + 1):
            for j in range(10 * n + k):
                err = abs(ws.table.secondary(k, j).values[-1] - 1.0)
                worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    report("C1", worst <= 1e-9 and elapsed < 1.0,
           f"max |X_k^(j)(1) - 1| = {worst:.3e} (tol 1e-9), "
           f"{elapsed:.2f}s (limit 1s)")


def test_c2_hyperbolic_pair():
    mesh = Mesh(0.0, 1.0, 401, 0)
    ws = pure_workspace(mesh, 2, truncation=30)
    u1 = evaluate_solution(ws.table, ws.b0, 1, 1.0)
    u2 = evaluate_solution(ws.table, ws.b0, 2, 1.0)
    err = max(np.max(np.abs(u1.values - np.cosh(mesh.nodes))),
              np.max(np.abs(u2.values - np.sinh(mesh.nodes))))
    report("C2", err <= 1e-8,
           f"max deviation from cosh/sinh = {err:.3e} (tol 1e-8)")


def _random_cubic(rng, mesh, scale=1.0, offset=0.0):
    c = rng.uniform(-1.0, 1.0, size=4) * scale
    return tabulate(mesh, lambda t: offset + c[0] + c[1] * t
                    + c[2] * t**2 + c[3] * t**3)


def test_c3_random_problems_solved_at_several_lambdas():
    mesh = Mesh(0.0, 1.0, 801)
    worst = 0.0
    for idx in range(15):
        n = 2 + idx % 3
        rng = np.random.Generator(np.random.PCG64(1000 + idx))
        phi = tuple(_random_cubic(rng, mesh) for _ in range(n))
        r = _random_cubic(rng, mesh, scale=0.2, offset=1.0)
        op = OperatorSpec(n, phi, r)
        ws = build_workspace(op, truncation=30, rng_seed=idx)
        for lam in (0.0, 1.0, -2.0, 3.0j):
            for k in range(1, n + 1):
                u = evaluate_solution(ws.table, ws.b0, k, lam)
                worst = max(worst, operator_residual(op, u, lam=lam))
    report("C3", worst <= 1e-5,
           f"max residual over 15 problems x 4 lambdas = {worst:.3e} "
           "(tol 1e-5)")


def test_c4_initial_matrix_structure():
    mesh = Mesh(0.0, 1.0, 401)
    op = OperatorSpec(
        3, (tabulate(mesh, lambda t: t), ones(mesh), tabulate(mesh, np.sin)),
        ones(mesh))
    ws = build_workspace(op, truncation=30, rng_seed=5)
    mat = initial_matrix(ws.coeffs)
    i0 = mesh.i0
    upper = max(abs(mat[ell, k]) for ell in range(3)
                for k in range(ell + 1, 3))
    diag_min = min(abs(mat[k, k]) for k in range(3))
    drift = 0.0
    for lam in (0.0, 1.0, -2.0, 3.0j):
        for k in range(1, 4):
            u = evaluate_solution(ws.table, ws.b0, k, lam)
            drift = max(drift, abs(u.values[i0] - mat[0, k - 1]))
            for ell in (1, 2):
                du = evaluate_derivatives(ws.table, ws.coeffs, k, lam, ell)
                drift = max(drift, abs(du.values[i0] - mat[ell, k - 1]))
    ok = upper == 0.0 and diag_min > 1e-12 and drift <= 1e-12
    report("C4", ok,
           f"above-diagonal max = {upper:.1e} (exact 0), diagonal min = "
           f"{diag_min:.3e}, drift across lambdas = {drift:.3e} (tol 1e-12)")


def test_c5_dirichlet_spectrum_scan():
    start = time.perf_counter()
    mesh = Mesh(0.0, np.pi, 801)
    ws = pure_workspace(mesh, 2, truncation=40)
    bc = BoundaryConditions.separated(2, [0], [0])
    result = find_eigenvalues(ws, bc, Interval(-100.0, 0.0))
    elapsed = time.perf_counter() - start
    got = result.values
    want = [-(k**2) for k in range(9, 0, -1)]
    ok = (len(got) == 9 and not result.rejected
          and all(g.imag == 0.0 for g in got)
          and all(abs(g.real - w) <= 1e-6 for g, w in zip(got, want))
          and elapsed < 10.0)
    err = max((abs(g.real - w) for g, w in zip(got, want)), default=np.inf)
    report("C5", ok,
           f"{len(got)} eigenvalues (want 9), max |error| = {err:.3e} "
           f"(tol 1e-6), {len(result.rejected)} spurious, "
           f"{elapsed:.2f}s (limit 10s)")


def test_c6_hinged_beam_spectrum():
    mesh = Mesh(0.0, np.pi, 401)
    ws = pure_workspace(mesh, 4, truncation=30)
    bc = BoundaryConditions.separated(4, [0, 2], [0, 2])
    result = find_eigenvalues(ws, bc, Interval(0.0, 100.0))
    got = result.values
    want = [1.0, 16.0, 81.0]
    ok = (len(got) == 3
          and all(abs(g.real - w) <= 1e-5 and g.imag == 0.0
                  for g, w in zip(got, want)))
    err = max((abs(g.real - w) for g, w in zip(got, want)), default=np.inf)
    report("C6", ok,
           f"{len(got)} eigenvalues (want 3: 1, 16, 81), "
           f"max |error| = {err:.3e} (tol 1e-5)")


def test_c7_derivatives_consistent_with_solutions():
    mesh = Mesh(0.0, 1.0, 801)
    op = OperatorSpec(
        3, (tabulate(mesh, lambda t: t), ones(mesh), tabulate(mesh, np.sin)),
        ones(mesh))
    ws = build_workspace(op, truncation=30, rng_seed=5)
    worst = 0.0
    for lam in (1.0, 3.0j):
        for k in (1, 2, 3):
            u = evaluate_solution(ws.table, ws.b0, k, lam)
            scale = max(1.0, u.max_abs())
            for ell in (1, 2):
                du = evaluate_derivatives(ws.table, ws.coeffs, k, lam, ell)
                fd = differentiate(u, ell)
                err = np.max(np.abs(du.values[4:-4] - fd.values[4:-4]))
                worst = max(worst, float(err) / scale)
    report("C7", worst <= 1e-5,
           f"max series-vs-FD derivative mismatch = {worst:.3e} (tol 1e-5)")


def test_c8_seed_construction_for_third_order():
    mesh = Mesh(0.0, 1.0, 401)
    op = OperatorSpec(
        3, (tabulate(mesh, lambda t: t), ones(mesh), tabulate(mesh, np.sin)),
        ones(mesh))
    sys = build_seed_system(op, rng_seed=0, max_retries=25)
    res = max(operator_residual(op, y) for y in sys.y)
    ok = (sys.retries <= 25 and sys.wronskian_min > 1e-6
          and sys.residual_max <= 1e-5 and res <= 1e-5)
    report("C8", ok,
           f"retries = {sys.retries} (limit 25), wronskian floor "
           f"{sys.wronskian_min:.3e} (> 1e-6), residual = "
           f"{max(sys.residual_max, res):.3e} (tol 1e-5)")


def test_c9_initial_value_solutions_match_adaptive_integrator():
    worst = 0.0
    # second order with complex data
    mesh = Mesh(0.0, 1.0, 401, 0)
    op = OperatorSpec(2, (constant(mesh, -3.0), constant(mesh, 2.0)),
                      ones(mesh))
    ws = build_workspace(op, seed=SolutionSystem.from_functions(
        op, [tabulate(mesh, np.exp), tabulate(mesh, lambda t: np.exp(2 * t))]))
    lam = 1.5 + 0.5j
    y0 = [1.0 - 1.0j, 0.25j]
    y = solve_initial_value(ws, y0, lam)
    ref = integrate_ivp(2, [lambda x: -3.0, lambda x: 2.0], lambda x: 1.0,
                        0.0, 1.0, y0, lam, t_eval=mesh.nodes)
    worst = max(worst, float(np.max(np.abs(y.values - ref[0]))))
    # third order, variable coefficients, interior basepoint
    mesh = Mesh(0.0, 1.0, 401)
    op = OperatorSpec(
        3, (tabulate(mesh, lambda t: t), ones(mesh), tabulate(mesh, np.sin)),
        ones(mesh))
    ws = build_workspace(op, truncation=25, rng_seed=5)
    y0 = [1.0, -1.0, 0.5]
    lam = -0.75
    y = solve_initial_value(ws, y0, lam)
    phi = [lambda x: x, lambda x: 1.0, np.sin]
    fwd = integrate_ivp(3, phi, lambda x: 1.0, mesh.x0, 1.0, y0, lam,
                        t_eval=mesh.nodes[mesh.i0:])
    bwd = integrate_ivp(3, phi, lambda x: 1.0, mesh.x0, 0.0, y0, lam,
                        t_eval=mesh.nodes[mesh.i0::-1])
    ref = np.concatenate([bwd[0][::-1][:-1], fwd[0]])
    worst = max(worst, float(np.max(np.abs(y.values - ref))))
    report("C9", worst <= 1e-5,
           f"max deviation from adaptive RK reference = {worst:.3e} "
           "(tol 1e-5)")
