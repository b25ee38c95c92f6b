"""Formal powers and truncated spectral-parameter power series.

Given a Polya factorization with factors b_0..b_n and a weight r, the
solutions of L y = lambda r y split, for each k in 1..n, into series

    u_k(x; lambda) = b_0(x) * sum_m P_k^(m)(x) lambda^m / (m n + k - 1)!

whose coefficients, the formal powers, are built by recursive integration.
This module tabulates them (in the secondary indexing X_k^(j), which walks
one integration at a time), evaluates truncated series and their derivatives
through order n-1, and extracts the lambda-independent initial data at the
basepoint.

For the operator D^n with unit weight and basepoint 0, the formal powers are
literally the monomials: X_k^(j) = x^j, so u_k is the truncated expansion of
the usual power-series solution; that special case doubles as the main test
oracle.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import TruncationWarning
from .mesh import Mesh, SampledFunction, _antiderivative, _check_finite, ones

if TYPE_CHECKING:  # import only for annotations, the dependency is one-way
    from .factorization import PolyaFactorization

#: Tail ratios above this trigger a TruncationWarning.
TAIL_WARN = 1e-12
#: A series sum stops once the norm bounds of all its later terms add up to
#: at most this fraction of the partial sum's max modulus.
STOP_TOL = 1e-17


@dataclass(frozen=True)
class DerivativeCoeffs:
    """Triangle A[ell, alpha] of derivative coefficients on a mesh.

    Row ell expresses the ell-th derivative of b_0 times an iterated integral
    as a combination of shallower iterated integrals; the triangle is the
    same for every solution index, so one serves all of u_1..u_n. ``table``
    is one read-only complex array of shape (n, n, mesh.n), zero above the
    diagonal: ``table[ell, alpha]`` is A[ell, alpha].

    The diagonal A[ell, ell] is the product b_0 b_1 ... b_ell, nonvanishing
    whenever the factorization exists.
    """

    mesh: Mesh
    table: np.ndarray


def compute_A(derivs: np.ndarray, table: "FormalPowerTable") -> DerivativeCoeffs:
    """Fill the derivative-coefficient triangle for rows 0..n-1 exactly.

    ``derivs[k, ell]`` is the ell-th derivative of y_{k+1}, the seed whose
    Wronskians gave the factors of ``table`` (an (n, n, nodes) array, as
    :class:`~spps.factorization.SolutionSystem` holds). The Polya solution
    u_{k+1} is the y_{k+1} - sum_{j<k} c_j y_{j+1} vanishing to order k-1
    at x0 (a k x k solve there), and at lambda = 0 its ell-th derivative is
    sum_{beta <= k} A[ell, beta] X_{k+1}^(k-beta) / (k-beta)!, X^(0) = 1:
    that gives column k. Column 0 is y_1 = b_0's rows as given.
    """
    n, i0 = table.n, table.mesh.i0
    at_x0 = derivs[:, :, i0].T  # [ell, k]
    a = np.zeros((n, n, table.mesh.n), dtype=np.complex128)
    a[:, 0] = derivs[0]
    for k in range(1, n):
        c = np.linalg.solve(at_x0[:k, :k], at_x0[:k, k])
        xs = [x / math.factorial(j) for j, x in enumerate(table.x[k][:k + 1])]
        a[k:, k] = derivs[k, k:]
        for j in range(k):  # u_{k+1}^(ell) less the shallower columns
            a[k:, k] -= c[j] * derivs[j, k:] + a[k:, j] * xs[k - j]
    a.setflags(write=False)
    return DerivativeCoeffs(table.mesh, a)


@dataclass(frozen=True)
class FormalPowerTable:
    """All secondary formal powers X_k^(j) for k = 1..n, j = 0..M n + k - 1.

    ``x[k - 1][j]`` holds X_k^(j) as a read-only array, shared with a table
    it was extended from; :meth:`secondary` and :meth:`main` wrap it as a
    SampledFunction. The main formal power P_k^(m) is the entry at
    j = m n + k - 1. ``norms[k - 1][j]`` is the sup norm of X_k^(j), which
    bounds a series term before it is formed. ``weight`` is the r used.
    """

    n: int
    truncation: int
    weight: SampledFunction
    x: tuple[tuple[np.ndarray, ...], ...]
    norms: tuple[tuple[float, ...], ...]

    @property
    def mesh(self) -> Mesh:
        return self.weight.mesh

    def secondary(self, k: int, j: int) -> SampledFunction:
        return SampledFunction(self.mesh, self.x[k - 1][j])

    def main(self, k: int, m: int) -> SampledFunction:
        return self.secondary(k, m * self.n + k - 1)


def formal_powers(fac: "PolyaFactorization", r: SampledFunction,
                  truncation: int) -> FormalPowerTable:
    """Tabulate the secondary formal powers by recursive integration.

    X_k^(0) = 1; each X_k^(j) is j times the cumulative integral of a factor
    times X_k^(j-1). The factor cycles through the b's by the offset of j
    from k modulo n, and at the wrap (j congruent to k mod n) it is
    b_n b_0 r, which is where the weight enters. Each power must be finite.
    """
    if r.mesh != fac.mesh:
        raise ValueError("weight and factorization live on different meshes")
    return _grow_powers(fac, r, [(ones(fac.mesh).values,)] * fac.n,
                        [(1.0,)] * fac.n, truncation)


def _grow_powers(fac: "PolyaFactorization", r: SampledFunction, rows, norms,
                 truncation: int) -> FormalPowerTable:
    """Table at ``truncation`` whose row k starts with ``rows[k - 1]``.

    Each row and its sup norms ``norms[k - 1]`` are cut to ``truncation``
    and, where shorter, continued by the recursion of :func:`formal_powers`.
    The table at a lower truncation is an exact prefix of the table at a
    higher one, so a continued table equals a rebuilt one.
    """
    n, mesh = fac.n, fac.mesh
    if truncation < 0:
        raise ValueError("truncation order must be nonnegative")
    # the factor at offset (k - j) mod n: b_n b_0 r at the wrap, else b_offset
    mults = [(fac.b[n] * fac.b[0] * r).values] + [b.values for b in fac.b[1:n]]
    ks, ns = [], []
    for k, (row, row_norms) in enumerate(zip(rows, norms), start=1):
        stop = truncation * n + k
        xs, sups = list(row[:stop]), list(row_norms[:stop])
        for j in range(len(xs), stop):
            power = _antiderivative(mults[(k - j) % n] * xs[j - 1], mesh.h,
                                    mesh.i0)
            power *= float(j)
            sup = float(np.max(np.abs(power)))
            if not math.isfinite(sup):  # name the node, as the check does
                _check_finite(mesh, power)
            power.setflags(write=False)
            xs.append(power)
            sups.append(sup)
        ks.append(tuple(xs))
        ns.append(tuple(sups))
    return FormalPowerTable(n, truncation, r, tuple(ks), tuple(ns))


# -- series evaluation ---------------------------------------------------------

# plain `s += term` costs 0.68 / 0.27 accuracy digits on eig_interval / eig_disk
def _kahan_add(s: np.ndarray, comp: np.ndarray, term: np.ndarray,
               y: np.ndarray) -> None:
    """s += term, compensated in comp; y is scratch and term is overwritten."""
    np.subtract(term, comp, out=y)
    np.add(s, y, out=term)
    np.subtract(term, s, out=comp)
    comp -= y
    s[:] = term


def tail_ratio(table: FormalPowerTable, k: int, lam: complex) -> float:
    """Last term's bound |c_M| ||X_M|| over the partial sum's max modulus."""
    _, ratio = _solution_sum(table, k, lam)
    return ratio


def _solution_sum(table: FormalPowerTable, k: int, lam: complex,
                  alpha: int = 0) -> tuple[np.ndarray, float]:
    """The shifted series S_{k,alpha} = sum_m lambda^m X_k^(j) / j! over
    j = m n + k - alpha - 1 >= 0, and its tail ratio; u_k = b_0 S_{k,0}.

    Stops as :func:`evaluate_solution` describes.
    """
    n = table.n
    m0 = int(alpha >= k)  # j < 0 at m = 0: that term is absent
    j0 = m0 * n + k - alpha - 1
    row, sups = table.x[k - 1][j0::n], table.norms[k - 1][j0::n]
    cs = [(lam if m0 else 1.0) / math.factorial(j0)][:len(row)]  # [] if no term
    for m in range(m0, m0 + len(row) - 1):  # divide by (j+1) ... (j+n)
        cs.append(cs[-1] * lam / math.prod(
            range(m * n + k - alpha, m * n + n + k - alpha), start=1.0))
    bounds = [abs(c) * sup for c, sup in zip(cs, sups)]
    tails = list(itertools.accumulate(reversed(bounds), initial=0.0))[::-1]
    s, comp, term, y = np.zeros((4, table.mesh.n), dtype=np.complex128)
    for m, (c, x) in enumerate(zip(cs, row)):
        _kahan_add(s, comp, np.multiply(c, x, out=term), y)
        # max|s| <= tails[0] up to rounding, so the partial sum's sup norm is
        # taken only once the bound on the later terms could pass the test
        if math.isfinite(tails[0]) and tails[m + 1] <= 2 * STOP_TOL * tails[0]:
            top = float(np.max(np.abs(s)))
            if tails[m + 1] <= STOP_TOL * top:
                break
    else:  # non-finite bounds: all terms
        top = float(np.max(np.abs(s)))
    last = bounds[-1] if bounds else 0.0
    ratio = math.inf if top == 0.0 and last > 0.0 else (last / top if top else 0.0)
    return s, ratio


def _from_shifted(coeffs: DerivativeCoeffs, ell: int,
                  sums: list[np.ndarray]) -> np.ndarray:
    """u_k^(ell) = sum_{alpha <= ell} A[ell, alpha] S_{k,alpha}, from
    ``sums[alpha]`` = S_{k,alpha}."""
    out = coeffs.table[ell, 0] * sums[0]
    for alpha in range(1, ell + 1):
        out += coeffs.table[ell, alpha] * sums[alpha]
    return out


def evaluate_solution(table: FormalPowerTable, b0: SampledFunction, k: int,
                      lam: complex) -> SampledFunction:
    """Truncated series solution u_k(.; lambda).

    Terms are accumulated in ascending order with compensated summation; the
    per-term coefficients lambda^m / (m n + k - 1)! advance by consecutive-
    factorial ratios, so nothing overflows even when M n is large. The sum
    stops after the first term past which the bounds |c_m| ||X_m|| of all
    later terms add up to at most STOP_TOL of the partial sum's max modulus
    (all M + 1 terms when a bound is not finite). At lambda = 0 the result
    reduces to b_0 times the (k-1)-fold iterated integral, the k-th element
    of the homogeneous solution family.

    Warns with TruncationWarning when the tail ratio exceeds 1e-12.
    """
    if not 1 <= k <= table.n:
        raise ValueError(f"solution index k={k} outside 1..{table.n}")
    s, ratio = _solution_sum(table, k, lam)
    _warn_tail(ratio, k, lam)
    return SampledFunction(b0.mesh, b0.values * s)


def _warn_tail(ratio: float, k: int, lam: complex) -> None:
    if ratio > TAIL_WARN:
        warnings.warn(f"series tail for k={k}, lambda={lam:g} has relative size "
                      f"{ratio:.2e}; increase the truncation order",
                      TruncationWarning, stacklevel=3)


def evaluate_derivatives(table: FormalPowerTable, coeffs: DerivativeCoeffs,
                         k: int, lam: complex, ell: int) -> SampledFunction:
    """The ell-th derivative of u_k(.; lambda) for 1 <= ell <= n-1.

    Assembled from the derivative-coefficient triangle and shallower formal
    powers rather than finite differences: u_k^(ell) is the sum over
    alpha <= ell of A[ell, alpha] times the shifted series S_{k,alpha},
    which pairs X_k at index j = m n + k - alpha - 1 with lambda^m / j!
    (the rising-factorial prefactor folded into the reciprocal factorial).
    Each S_{k,alpha} stops as :func:`evaluate_solution` describes.
    """
    n = table.n
    if not 1 <= k <= n:
        raise ValueError(f"solution index k={k} outside 1..{n}")
    if not 1 <= ell <= n - 1:
        raise ValueError(f"derivative order {ell} outside 1..{n - 1}")
    sums = [_solution_sum(table, k, lam, alpha)[0] for alpha in range(ell + 1)]
    return SampledFunction(table.mesh, _from_shifted(coeffs, ell, sums))


def initial_matrix(coeffs: DerivativeCoeffs) -> np.ndarray:
    """Lower-triangular matrix T[ell, k-1] = u_k^(ell)(x0), the same for
    every lambda.

    Every formal power but X^(0) = 1 vanishes at the basepoint, so only the
    term alpha = k - 1, m = 0 of u_k^(ell) is left: T[ell, k-1] is
    A[ell, k-1](x0) from order k-1 on, and derivatives below it vanish. The
    diagonal is the running product (b_0 ... b_ell)(x0). A read-only view.
    """
    return coeffs.table[:, :, coeffs.mesh.i0]


def series_coefficients_at_node(table: FormalPowerTable, coeffs: DerivativeCoeffs,
                                nodes: list[int]) -> np.ndarray:
    """Coefficients in lambda of every u_k^(ell) frozen at a list of nodes.

    Returns c of shape (len(nodes), n, n, M + 1) with
    u_k^(ell)(x_p; lambda) = sum_m c[p, ell, k - 1, m] lambda^m, where
    c[p, ell, k - 1, m] sums A[ell, alpha] X_k^(j) / j! at node p over
    alpha <= ell, j = m n + k - alpha - 1 >= 0. Used by the spectral layer
    to turn boundary data into polynomials in the spectral parameter.
    Reciprocal factorials are accumulated by division so large indices
    underflow to zero instead of overflowing.
    """
    n, M = table.n, table.truncation
    rf = np.array(list(itertools.accumulate(range(1, M * n + n),
                                            lambda f, j: f / j, initial=1.0)))
    a = np.moveaxis(coeffs.table[:, :, nodes], 2, 0)[..., None]
    out = np.zeros((len(nodes), n, n, M + 1), dtype=np.complex128)
    for k in range(1, n + 1):
        xs = np.array([x[nodes] for x in table.x[k - 1]]).T
        for alpha in range(n):  # ascending, each term (A / j!) X_k^(j)
            m0 = int(alpha >= k)
            j = np.arange(m0, M + 1) * n + k - alpha - 1
            out[:, :, k - 1, m0:] += a[:, :, alpha] * rf[j] * xs[:, None, j]
    return out
