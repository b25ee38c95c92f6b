"""Independent reference solvers used only by the test suite.

The solvers go through scipy's adaptive Runge-Kutta integration of the
first-order companion system, which shares no code or method with the
package under test. ``apply_coefficients``, ``apply_factorized`` and
``polya_system`` are references for the factorization: L y by finite
differences against the coefficients and through the nested first-order
factors, and the Polya solution system rebuilt from the factors by
cumulative integrals. ``decimated_ladder_residual``, ``loop_antiderivative``,
``loop_derivative``, ``loop_formal_powers``, ``loop_recombine``,
``loop_wronskians`` and ``loop_triangle`` are the package's earlier residual
ladder, quadrature and finite-difference tap loops, formal-power recursion,
per-entry recombination, nested-Wronskian assembly and row-by-row
derivative triangle, kept as references that its array versions must match
exactly.
``full_derivative_sum`` and ``node_coefficients`` are the package's
earlier series for u_k^(ell) over all M + 1 terms and its per-entry
coefficients at one node, which its stopped sums and gathered
coefficients must match to rounding. ``loop_series_sum`` is its earlier
per-(k, alpha) stopped sum, term by term, which the all-k sum kernel must
match to rounding and in the terms it reads.
"""

import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp

from spps.errors import StencilError
from spps.factorization import OperatorSpec
from spps.mesh import (
    _QUAD_WINDOW,
    Mesh,
    SampledFunction,
    _diff_weights,
    _diff_window,
    _segment_weights,
    centered_margin,
    cumulative_integral,
    differentiate,
    ladder_strides,
    ones,
)


def integrate_ivp(n, phi, r, x1, x2, y0, lam, t_eval=None):
    """Integrate y^(n) + phi_1 y^(n-1) + ... + phi_n y = lam r y.

    Parameters
    ----------
    n : int
        Order of the equation.
    phi : sequence of callables
        Coefficients phi_1 .. phi_n as functions of x.
    r : callable
        Weight function.
    x1, x2 : float
        Integration range (x2 may be below x1).
    y0 : sequence
        Derivatives of order 0..n-1 at x1; complex entries allowed.
    lam : complex
        Spectral parameter.
    t_eval : array, optional
        Output abscissae.

    Returns
    -------
    ndarray of shape (n, len(t_eval)) with rows y, y', ..., y^(n-1).
    """
    y0 = np.asarray(y0, dtype=complex)

    def rhs(x, state):
        top = lam * r(x) * state[0]
        for j in range(1, n + 1):
            top -= phi[j - 1](x) * state[n - j]
        return np.concatenate([state[1:], [top]])

    sol = solve_ivp(rhs, (x1, x2), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=t_eval, dense_output=False)
    assert sol.success, sol.message
    return sol.y


def shooting_determinant(n, phi, r, x1, x2, left, right, lam):
    """Boundary determinant from n fundamental solutions shot across [x1, x2]."""
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    mat = np.zeros((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        cols = integrate_ivp(n, phi, r, x1, x2, e, lam, t_eval=[x2])
        end_state = cols[:, -1]
        mat[:, k] = left @ e + right @ end_state
    return complex(np.linalg.det(mat))


def refine_eigenvalue(n, phi, r, x1, x2, left, right, lam0, spread=1e-3):
    """Secant iteration on the shooting determinant from a starting guess."""
    a = complex(lam0) - spread
    b = complex(lam0) + spread
    fa = shooting_determinant(n, phi, r, x1, x2, left, right, a)
    fb = shooting_determinant(n, phi, r, x1, x2, left, right, b)
    for _ in range(80):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        a, fa = b, fb
        b, fb = c, shooting_determinant(n, phi, r, x1, x2, left, right, c)
        if abs(b - a) < 1e-12 * max(1.0, abs(b)):
            break
    return b


def apply_coefficients(op: OperatorSpec, y: SampledFunction) -> SampledFunction:
    """L y via finite differences of y against the coefficient list."""
    out = differentiate(y, op.n).values
    for j in range(1, op.n):
        out = out + op.phi[j - 1].values * differentiate(y, op.n - j).values
    return SampledFunction(y.mesh, out + op.phi[op.n - 1].values * y.values)


def apply_factorized(fac, y: SampledFunction) -> SampledFunction:
    """L y via the nested first-order factors (b_0, ..., b_n): divide,
    differentiate, repeat."""
    u = SampledFunction(y.mesh, y.values / fac[0].values)
    for j in range(1, len(fac)):
        u = differentiate(u, 1)
        u = SampledFunction(u.mesh, u.values / fac[j].values)
    return u


def polya_system(fac) -> list[SampledFunction]:
    """The n solutions b_0, b_0*I(b_1), b_0*I(b_1 I(b_2)), ... of L y = 0,
    where I g denotes the cumulative integral of g from the basepoint."""
    mesh, out = fac[0].mesh, [fac[0]]
    for k in range(1, len(fac) - 1):
        g = ones(mesh)
        for j in range(k, 0, -1):
            g = cumulative_integral(SampledFunction(mesh, fac[j].values * g.values))
        out.append(SampledFunction(mesh, fac[0].values * g.values))
    return out


def loop_antiderivative(v, h, i0):
    """Cumulative integral of samples ``v`` (step h) vanishing at node i0:
    the interior 9-tap window accumulated over a slice one tap at a time,
    clamped windows as dot products at the boundary."""
    n = len(v)
    seg = np.zeros(n, dtype=np.complex128)
    w = _QUAD_WINDOW
    # interior segments: window centered, offset 4 inside it
    row = _segment_weights(4)
    m = n - w + 1  # number of interior segments, i in [5, n-4]
    for k in range(w):
        seg[5:5 + m] += row[k] * v[k:k + m]
    # clamped boundary windows
    for i in range(1, 5):
        seg[i] = np.dot(_segment_weights(i - 1), v[:w])
    for i in range(n - 3, n):
        seg[i] = np.dot(_segment_weights(i - n + w - 1), v[n - w:])
    prefix = np.cumsum(seg) * h
    prefix -= prefix[i0]
    prefix[i0] = 0.0
    return prefix


def loop_derivative(v, h, order):
    """Finite-difference derivative of samples ``v`` (step h): centered
    stencils accumulated over the interior slice, one-sided dot products at
    the boundary."""
    n, w = len(v), _diff_window(order)
    half = w // 2
    out = np.zeros(n, dtype=np.complex128)
    row = _diff_weights(w, order, half)
    m = n - w + 1
    for k in range(w):
        out[half:half + m] += row[k] * v[k:k + m]
    for i in range(half):
        out[i] = np.dot(_diff_weights(w, order, i), v[:w])
    for i in range(n - half, n):
        out[i] = np.dot(_diff_weights(w, order, i - n + w), v[n - w:])
    return out / h ** order


def loop_formal_powers(b, r, M):
    """Secondary formal powers X_k^(j) of factors ``b`` = (b_0, ..., b_n)
    and weight ``r`` for j <= M n + k - 1, and their sup norms, as lists
    per k: X_k^(0) = 1, and X_k^(j) is ``loop_antiderivative`` of a factor
    times X_k^(j-1), scaled by j afterwards. The factor is b_n b_0 r where
    j - k is a multiple of n, else b_{(k - j) mod n}."""
    n, mesh = len(b) - 1, r.mesh
    wrap = b[n].values * b[0].values * r.values
    xs, norms = [], []
    for k in range(1, n + 1):
        row, sups = [np.ones(mesh.n, dtype=np.complex128)], [1.0]
        for j in range(1, M * n + k):
            offset = (k - j) % n
            factor = wrap if offset == 0 else b[offset].values
            power = loop_antiderivative(factor * row[-1], mesh.h, mesh.i0) * j
            row.append(power)
            sups.append(float(np.max(np.abs(power))))
        xs.append(row)
        norms.append(sups)
    return xs, norms


def loop_recombine(rows, c):
    """Rows of sum_j c[i, j] y_{j+1}, entry by entry over ascending j;
    ``rows[k, ell]`` is the ell-th derivative of y_{k+1}."""
    m, depth, nodes = rows.shape
    out = np.empty(rows.shape, dtype=np.complex128)
    for i in range(m):
        for ell in range(depth):
            acc = np.zeros(nodes, dtype=np.complex128)
            for j in range(m):
                acc += c[i, j] * rows[j, ell]
            out[i, ell] = acc
    return out


def loop_wronskians(rows):
    """Nested Wronskians W_2..W_m of derivative rows, each nodewise matrix
    [ell, k] filled entry by entry."""
    out = []
    for j in range(2, len(rows) + 1):
        mats = np.empty((rows.shape[2], j, j), dtype=np.complex128)
        for k in range(j):
            for ell in range(j):
                mats[:, ell, k] = rows[k, ell]
        out.append(np.linalg.det(mats))
    return out


def loop_triangle(derivs, table):
    """The derivative triangle A[ell, alpha] of seed rows ``derivs``, filled
    row by row as lists of arrays (see ``spps.powers.compute_A``)."""
    n, i0 = table.n, table.mesh.i0
    at_x0 = np.array([[derivs[k, ell, i0] for k in range(n)] for ell in range(n)])
    rows = [[derivs[0, ell]] for ell in range(n)]
    for k in range(1, n):
        c = np.linalg.solve(at_x0[:k, :k], at_x0[:k, k])
        xs = [x / math.factorial(j) for j, x in enumerate(table.x[k][:k + 1])]
        for ell in range(k, n):
            acc = derivs[k, ell].copy()
            for j in range(k):
                acc -= c[j] * derivs[j, ell] + rows[ell][j] * xs[k - j]
            rows[ell].append(acc)
    out = np.zeros((n, n, table.mesh.n), dtype=np.complex128)
    for ell, row in enumerate(rows):
        out[ell, :len(row)] = row
    return out


def loop_rows(a, sums):
    """u_k^(ell) = sum_{alpha <= ell} A[ell, alpha] S_{k,alpha}, one row at
    a time over ascending alpha, for ell < len(sums); ``a`` is A's table."""
    out = []
    for ell in range(len(sums)):
        acc = a[ell, 0] * sums[0]
        for alpha in range(1, ell + 1):
            acc += a[ell, alpha] * sums[alpha]
        out.append(acc)
    return np.array(out)


def full_derivative_sum(table, coeffs, k, lam, ell):
    """u_k^(ell)(.; lam) as one compensated sum of every term
    A[ell, alpha] X_k^(j) lam^m / j!, j = m n + k - alpha - 1 >= 0."""
    n, M = table.n, table.truncation
    s = np.zeros(table.mesh.n, dtype=np.complex128)
    comp = np.zeros_like(s)
    for alpha in range(ell + 1):
        a = coeffs[ell, alpha]
        m0 = 1 if k - alpha - 1 < 0 else 0
        c = complex(lam ** m0 / math.factorial(m0 * n + k - alpha - 1))
        for m in range(m0, M + 1):
            j = m * n + k - alpha - 1
            y = c * a * table.x[k - 1][j] - comp
            t = s + y
            comp = (t - s) - y
            s = t
            c = c * lam / math.prod(range(j + 1, j + n + 1))
    return s


def row_norms(table):
    """The stored sup norms of X_k^(0..Mn+k-1), one tuple of floats per k."""
    return tuple(tuple(table.norms[k, table.n - 1:table.n - 1 + len(x)].tolist())
                 for k, x in enumerate(table.x))


def loop_series_sum(table, k, lam, alpha=0):
    """S_{k,alpha} at lam summed term by term from ``table.x``, stopped as
    the package stops it: through the first m whose later bounds
    |c_m| ||X_m|| add up to at most 2e-17 of all of them (every term if
    that sum is not finite), then single terms while the later bounds
    exceed 1e-17 of max|S|. Returns the sum, its tail ratio, the number of
    terms read and the bounds of all terms."""
    n, M = table.n, table.truncation
    m0 = int(alpha >= k)  # at m = 0, j < 0: no term
    js = [m * n + k - alpha - 1 for m in range(m0, M + 1)]
    cs = []
    for j in js:
        cs.append(cs[-1] * lam / math.prod(range(j - n + 1, j + 1), start=1.0)
                  if cs else (lam if m0 else 1.0) / math.factorial(j))
    rows = [table.x[k - 1][j] for j in js]
    bounds = [abs(c) * float(np.max(np.abs(x))) for c, x in zip(cs, rows)]
    tails = list(itertools.accumulate(reversed(bounds), initial=0.0))[::-1]
    stop = len(cs) - 1
    if math.isfinite(tails[0]):
        stop = next(m for m in range(len(cs)) if tails[m + 1] <= 2e-17 * tails[0])
    s = np.zeros(table.mesh.n, dtype=np.complex128)
    for m in range(stop + 1):
        s += cs[m] * rows[m]
    top = float(np.max(np.abs(s)))
    while stop + 1 < len(cs) and tails[stop + 1] > 1e-17 * top:
        stop += 1
        s += cs[stop] * rows[stop]
        top = float(np.max(np.abs(s)))
    last = bounds[-1] if bounds else 0.0
    ratio = math.inf if top == 0.0 and last > 0.0 else (last / top if top else 0.0)
    return s, ratio, stop + 1, bounds


def node_coefficients(table, coeffs, k, ell, node):
    """Coefficients in lam of u_k^(ell) at one node, entry by entry."""
    n, M = table.n, table.truncation
    out = np.zeros(M + 1, dtype=np.complex128)
    rf = np.empty(M * n + n)
    rf[0] = 1.0
    for j in range(1, len(rf)):
        rf[j] = rf[j - 1] / j
    for alpha in range(ell + 1):
        a = coeffs[ell, alpha, node]
        for m in range(M + 1):
            j = m * n + k - alpha - 1
            if j >= 0:
                out[m] += a * rf[j] * table.x[k - 1][j][node]
    return out


def _decimate(f, stride):
    """Every ``stride``-th node from node 0; the ladder reads no basepoint,
    so the coarse mesh need not keep it."""
    m = f.mesh
    return SampledFunction(Mesh(m.x1, m.x2, (m.n - 1) // stride + 1, 0),
                           f.values[::stride])


def decimated_ladder_residual(op, y, lam=0.0):
    """max|L y - lam r y| / max|y| over the ladder, each stride on a decimated
    Mesh, OperatorSpec and SampledFunction, L y by ``apply_coefficients``."""
    margin = centered_margin(op.n)
    scale_y = y.max_abs()
    if scale_y == 0.0:
        return 0.0
    best = math.inf
    for s in ladder_strides(y.mesh):
        try:
            ys = _decimate(y, s) if s > 1 else y
            ops = OperatorSpec(op.n, tuple(_decimate(f, s) for f in op.phi),
                               _decimate(op.r, s)) if s > 1 else op
            res = apply_coefficients(ops, ys).values
            if lam != 0:
                res = res - ops.r.values * ys.values * lam
        except StencilError:
            continue
        vals = np.abs(res[margin:len(res) - margin])
        if vals.size:
            best = min(best, float(np.max(vals)) / scale_y)
    return best
