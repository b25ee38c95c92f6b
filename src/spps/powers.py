"""Formal powers and truncated spectral-parameter power series.

Given a Polya factorization with factors b_0..b_n and a weight r, the
solutions of L y = lambda r y split, for each k in 1..n, into series

    u_k(x; lambda) = b_0(x) * sum_m P_k^(m)(x) lambda^m / (m n + k - 1)!

whose coefficients, the formal powers, are built by recursive integration.
This module tabulates them (in the secondary indexing X_k^(j), which walks
one integration at a time), evaluates truncated series and their derivatives
through order n-1, and gathers their coefficients in lambda at given
nodes.

For the operator D^n with unit weight and basepoint 0, the formal powers are
literally the monomials: X_k^(j) = x^j, so u_k is the truncated expansion of
the usual power-series solution; that special case doubles as the main test
oracle.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import MeshMismatchError, RegionTruncationError, TruncationWarning
from .mesh import (Mesh, SampledFunction, _antiderivative, _check_finite,
                   _is_int, _reduce, ones)

_PACKAGE = os.path.dirname(__file__)  # warnings name the first caller outside

#: Tail ratios above this trigger a TruncationWarning.
TAIL_WARN = 1e-12
#: A tail ratio above this, or NaN, raises RegionTruncationError.
TAIL_ERROR = 1e-6
#: A series sum stops once the norm bounds of all its later terms add up to
#: at most this fraction of the partial sum's max modulus.
STOP_TOL = 1e-17


def compute_A(derivs: np.ndarray, table: "FormalPowerTable") -> np.ndarray:
    """Triangle A[ell, alpha] of derivative coefficients, filled exactly.

    Row ell expresses the ell-th derivative of b_0 times an iterated integral
    as a combination of shallower iterated integrals; the triangle is the
    same for every solution index, so one serves all of u_1..u_n. It is one
    read-only complex array of shape (n, n, mesh.n), zero above the
    diagonal: ``A[ell, alpha]``. The diagonal A[ell, ell] is the product
    b_0 b_1 ... b_ell, nonvanishing whenever the factorization exists.

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
    return a


@dataclass(frozen=True)
class FormalPowerTable:
    """All secondary formal powers X_k^(j) for k = 1..n, j = 0..M n + k - 1.

    ``x[k - 1]`` is a read-only (M n + k, N) array whose row j holds
    X_k^(j). A built table's n arrays are views of one read-only block of
    shape (n, M n + n, N), so a series sums its strided rows in one
    product; a lower truncation's table views the same block, and a copy
    or an unpickled table holds each as its own contiguous array.
    :meth:`secondary` and :meth:`main` wrap a row as a SampledFunction. The
    main formal power P_k^(m) is the row j = m n + k - 1.
    ``norms[k - 1][j]`` is the sup norm of X_k^(j), which bounds a series
    term before it is formed. ``weight`` is the r used.
    """

    n: int
    truncation: int
    weight: SampledFunction
    x: tuple[np.ndarray, ...]
    norms: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for powers in self.x:
            powers.setflags(write=False)

    __reduce__ = _reduce

    @property
    def mesh(self) -> Mesh:
        return self.weight.mesh

    def secondary(self, k: int, j: int) -> SampledFunction:
        return SampledFunction(self.mesh, self.x[k - 1][j])

    def main(self, k: int, m: int) -> SampledFunction:
        return self.secondary(k, m * self.n + k - 1)


def formal_powers(b: Sequence[SampledFunction], r: SampledFunction,
                  truncation: int) -> FormalPowerTable:
    """Tabulate the secondary formal powers by recursive integration.

    ``b`` is the factor tuple (b_0, ..., b_n) that
    :func:`~spps.factorization.polya_factors` returns. X_k^(0) = 1; each
    X_k^(j) is j times the cumulative integral of a factor times X_k^(j-1).
    The factor cycles through the b's by the offset of j from k modulo n,
    and at the wrap (j congruent to k mod n) it is b_n b_0 r, which is where
    the weight enters. Each power must be finite, and every factor must
    live on the weight's mesh (else MeshMismatchError).
    """
    bad = [j for j, f in enumerate(b) if f.mesh != r.mesh]
    if bad:
        raise MeshMismatchError(f"b_{bad[0]} on {b[bad[0]].mesh}, weight on {r.mesh}")
    n = len(b) - 1
    return _grow_powers(b, r, [ones(r.mesh).values[None]] * n, [(1.0,)] * n,
                        truncation)


@np.errstate(over="ignore", invalid="ignore")  # _check_finite names the node
def _grow_powers(b: Sequence[SampledFunction], r: SampledFunction, rows, norms,
                 truncation: int) -> FormalPowerTable:
    """Table at ``truncation`` whose row k starts with ``rows[k - 1]``.

    ``rows[k - 1]`` is an array of powers X_k^(0), X_k^(1), ... and
    ``norms[k - 1]`` their sup norms. Where every row reaches the
    truncation, the table views their prefixes and copies nothing. Else
    the rows are copied into one new block and continued by the recursion
    of :func:`formal_powers`. The table at a lower truncation is an exact
    prefix of the table at a higher one, so a continued table equals a
    rebuilt one.
    """
    n, mesh = len(b) - 1, r.mesh
    if not (_is_int(truncation) and truncation >= 0):
        raise ValueError(f"truncation order must be a nonnegative integer, "
                         f"got {truncation!r}")
    stops = [truncation * n + k for k in range(1, n + 1)]
    if all(len(row) >= stop for row, stop in zip(rows, stops)):
        return FormalPowerTable(n, truncation, r, tuple(
            row[:stop] for row, stop in zip(rows, stops)), tuple(
            row_norms[:stop] for row_norms, stop in zip(norms, stops)))
    # the factor at offset (k - j) mod n: b_n b_0 r at the wrap, else b_offset
    mults = [b[n].values * b[0].values * r.values] + [f.values for f in b[1:n]]
    h, i0 = mesh.h, mesh.i0
    block = np.empty((n, stops[-1], mesh.n), dtype=np.complex128)
    integrand, mags = np.empty(mesh.n, dtype=np.complex128), np.empty(mesh.n)
    ns = []
    for k, (row, row_norms, stop) in enumerate(zip(rows, norms, stops), start=1):
        xs, have = block[k - 1], min(len(row), stop)
        xs[:have] = row[:have]
        sups = list(row_norms[:have])
        for j in range(have, stop):
            np.multiply(mults[(k - j) % n], xs[j - 1], out=integrand)
            power = _antiderivative(integrand, h, i0)
            power *= float(j)
            sup = float(np.abs(power, out=mags).max())
            if not math.isfinite(sup):  # name the node, as the check does
                _check_finite(mesh, power)
            xs[j] = power
            sups.append(sup)
        ns.append(tuple(sups))
    block.setflags(write=False)
    return FormalPowerTable(n, truncation, r, tuple(
        xs[:stop] for xs, stop in zip(block, stops)), tuple(ns))


# -- series evaluation ---------------------------------------------------------

def _check_index(table: FormalPowerTable, k: int) -> None:
    if not (_is_int(k) and 1 <= k <= table.n):
        raise ValueError(f"solution index k={k!r} outside 1..{table.n}")


def tail_ratio(table: FormalPowerTable, k: int, lam: complex) -> float:
    """Last term's bound |c_M| ||X_M|| over the partial sum's max modulus."""
    _check_index(table, k)
    _, ratio = _solution_sum(table, k, lam)
    return ratio


def _check_ratio(ratio: float, k: int, lam: complex) -> None:
    """The one tail policy for a sum of u_k at lam: raise unless the tail
    ratio is at most TAIL_ERROR (so NaN raises), warn above TAIL_WARN."""
    if not ratio <= TAIL_ERROR:
        raise RegionTruncationError(
            f"series tail ratio {ratio:.3e} of u_{k} at lam={lam} exceeds "
            f"{TAIL_ERROR:.1e}; raise the truncation or bring lam nearer 0")
    if ratio > TAIL_WARN:  # told at the first caller outside the package
        frame, level = sys._getframe(1), 2
        while frame.f_back and os.path.dirname(frame.f_code.co_filename) == _PACKAGE:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"series tail ratio {ratio:.3e} of u_{k} at lam={lam}",
                      TruncationWarning, stacklevel=level)


def _gated_sum(table: FormalPowerTable, k: int, lam: complex) -> np.ndarray:
    """S_{k,0} at lam once its tail ratio has passed :func:`_check_ratio`."""
    _check_index(table, k)
    s, ratio = _solution_sum(table, k, lam)
    _check_ratio(ratio, k, lam)
    return s


@lru_cache(maxsize=1024)  # a workspace reads n * n keys
def _divisors(n: int, k: int, alpha: int, count: int) -> tuple:
    """The divisors of the first ``count`` coefficients of S_{k,alpha}:
    j0! for the first, then (j+1) ... (j+n) from each to the next."""
    m0 = int(alpha >= k)
    return (math.factorial(m0 * n + k - alpha - 1),) + tuple(
        math.prod(range(m * n + k - alpha, m * n + n + k - alpha), start=1.0)
        for m in range(m0, m0 + count - 1))


def _stopped_sum(cs: list, rows: np.ndarray,
                 tails: list[float]) -> tuple[np.ndarray, float, int]:
    """sum_m cs[m] rows[m] through the stop, its max modulus, and the
    number of terms read; ``tails[m]`` bounds the terms from m on.

    The first terms go in one product, through the first m whose later
    bounds are at most 2 STOP_TOL of the bound on the whole sum (all terms
    when it is not finite): max|s| <= tails[0] up to rounding, so no
    earlier m can pass the test. Single terms follow until the later bounds
    are at most STOP_TOL of the partial sum's max modulus.
    """
    stop = len(cs) - 1
    if math.isfinite(tails[0]):
        stop = next((m for m, t in enumerate(tails[1:])
                     if t <= 2 * STOP_TOL * tails[0]), stop)
    s = np.asarray(cs[:stop + 1]) @ rows[:stop + 1]
    top = float(np.max(np.abs(s)))
    while stop + 1 < len(cs) and tails[stop + 1] > STOP_TOL * top:
        stop += 1
        s += cs[stop] * rows[stop]
        top = float(np.max(np.abs(s)))
    return s, top, stop + 1


@np.errstate(over="ignore", invalid="ignore")  # the ratio reports overflow
def _solution_sum(table: FormalPowerTable, k: int, lam: complex,
                  alpha: int = 0) -> tuple[np.ndarray, float]:
    """The shifted series S_{k,alpha} = sum_m lambda^m X_k^(j) / j! over
    j = m n + k - alpha - 1 >= 0, and its tail ratio; u_k = b_0 S_{k,0}.

    Stops as :func:`evaluate_solution` describes.
    """
    n = table.n
    m0 = int(alpha >= k)  # j < 0 at m = 0: that term is absent
    j0 = m0 * n + k - alpha - 1
    rows, sups = table.x[k - 1][j0::n], table.norms[k - 1][j0::n]
    first, *steps = _divisors(n, k, alpha, len(rows))
    cs = [(lam if m0 else 1.0) / first][:len(rows)]  # [] if no term
    for d in steps:
        cs.append(cs[-1] * lam / d)
    bounds = [abs(c) * sup for c, sup in zip(cs, sups)]
    tails = list(itertools.accumulate(reversed(bounds), initial=0.0))[::-1]
    s, top, _ = _stopped_sum(cs, rows, tails)
    last = bounds[-1] if bounds else 0.0
    ratio = math.inf if top == 0.0 and last > 0.0 else (last / top if top else 0.0)
    return s, ratio


def _rows(coeffs: np.ndarray, sums: list[np.ndarray]) -> np.ndarray:
    """u_k^(ell) = sum_{alpha <= ell} A[ell, alpha] S_{k,alpha} for every
    ell < len(sums), from ``sums[alpha]`` = S_{k,alpha}, ascending alpha."""
    out = coeffs[:len(sums), 0] * sums[0]
    for alpha in range(1, len(sums)):
        out[alpha:] += coeffs[alpha:len(sums), alpha] * sums[alpha]
    return out


def evaluate_solution(table: FormalPowerTable, b0: SampledFunction, k: int,
                      lam: complex) -> SampledFunction:
    """Truncated series solution u_k(.; lambda).

    The per-term coefficients lambda^m / (m n + k - 1)! advance by
    consecutive-factorial ratios, so nothing overflows even when M n is
    large. The sum stops after the first term past which the bounds
    |c_m| ||X_m|| of all later terms add up to at most STOP_TOL of the
    partial sum's max modulus (all M + 1 terms when a bound is not
    finite). The terms through the first m at which that can hold are
    summed as one product of the coefficients with the table's strided
    rows, and any later ones are added singly. At lambda = 0 the result
    reduces to b_0 times the (k-1)-fold iterated integral, the k-th element
    of the homogeneous solution family.

    Raises RegionTruncationError when the :func:`tail_ratio` is above
    TAIL_ERROR or NaN, and warns with TruncationWarning above TAIL_WARN.
    Raises MeshMismatchError when ``b0`` lives on another mesh than the
    table.
    """
    if b0.mesh != table.mesh:
        raise MeshMismatchError(f"b_0 on {b0.mesh}, table on {table.mesh}")
    return SampledFunction(b0.mesh, b0.values * _gated_sum(table, k, lam))


def evaluate_derivatives(table: FormalPowerTable, coeffs: np.ndarray,
                         k: int, lam: complex, ell: int) -> SampledFunction:
    """The ell-th derivative of u_k(.; lambda) for 1 <= ell <= n-1.

    Assembled from the derivative-coefficient triangle and shallower formal
    powers rather than finite differences: u_k^(ell) is the sum over
    alpha <= ell of A[ell, alpha] times the shifted series S_{k,alpha},
    which pairs X_k at index j = m n + k - alpha - 1 with lambda^m / j!
    (the rising-factorial prefactor folded into the reciprocal factorial).
    Each S_{k,alpha} stops as :func:`evaluate_solution` describes, and the
    tail of u_k itself (S_{k,0}) is gated as there.
    """
    if not (_is_int(ell) and 1 <= ell <= table.n - 1):
        raise ValueError(f"derivative order {ell!r} outside 1..{table.n - 1}")
    sums = [_gated_sum(table, k, lam)] + [
        _solution_sum(table, k, lam, alpha)[0] for alpha in range(1, ell + 1)]
    return SampledFunction(table.mesh, _rows(coeffs, sums)[ell])


def series_coefficients_at_node(table: FormalPowerTable, coeffs: np.ndarray,
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
    a = np.moveaxis(coeffs[:, :, nodes], 2, 0)[..., None]
    out = np.zeros((len(nodes), n, n, M + 1), dtype=np.complex128)
    for k in range(1, n + 1):
        xs = table.x[k - 1][:, nodes].T
        for alpha in range(n):  # ascending, each term (A / j!) X_k^(j)
            m0 = int(alpha >= k)
            j = np.arange(m0, M + 1) * n + k - alpha - 1
            out[:, :, k - 1, m0:] += a[:, :, alpha] * rf[j] * xs[:, None, j]
    return out
