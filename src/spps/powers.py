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
from numpy.lib.stride_tricks import as_strided

from .errors import MeshMismatchError, RegionTruncationError, TruncationWarning
from .mesh import (Mesh, SampledFunction, _antiderivative, _check_finite,
                   _is_int, _reduce)

_PACKAGE = os.path.dirname(__file__)  # warnings name the first caller outside

#: Tail ratios above this trigger a TruncationWarning.
TAIL_WARN = 1e-12
#: A tail ratio above this, or NaN, raises RegionTruncationError.
TAIL_ERROR = 1e-6
#: A series sum stops once the norm bounds of all its later terms add up to
#: at most this fraction of the partial sum's max modulus.
STOP_TOL = 1e-17
_EPS = float(np.finfo(float).eps)


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

    ``block`` is one read-only complex array of shape (n, (M + 2) n - 1, N):
    row n - 1 + j of ``block[k - 1]`` holds X_k^(j), and its first n - 1
    rows are zero, so a shifted series reads every slot it has, its absent
    first term included, at one stride (see :func:`_series_sums`).
    ``norms`` is the (n, (M + 2) n - 1) array of their sup norms, which
    bound a series term before it is formed; it is zero where the block
    is. Rows past j = M n + k - 1 belong to no series: zero in a built
    table, the higher powers in a lower truncation's table, which views a
    prefix of the same block. Copies and unpickled tables keep this layout.

    ``x[k - 1]`` is the read-only (M n + k, N) view of X_k^(0..Mn+k-1);
    :meth:`secondary` and :meth:`main` wrap a row as a SampledFunction.
    The main formal power P_k^(m) is the row j = m n + k - 1. ``weight`` is
    the r used.
    """

    n: int
    truncation: int
    weight: SampledFunction
    block: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        n, M, block, norms = self.n, self.truncation, self.block, self.norms
        block.setflags(write=False)
        norms.setflags(write=False)
        object.__setattr__(self, "x", tuple(
            block[k, n - 1:(M + 1) * n + k] for k in range(n)))
        object.__setattr__(self, "_shifts", [None] * n)

    def _series(self, alpha: int) -> tuple:
        """The (n, M + 1, N) rows and (n, M + 1) norms of every S_{k,alpha},
        slab k - 1 from row n + k - alpha - 2 on by n, and the coefficient
        multipliers: built at a shift's first sum, then kept."""
        views = self._shifts[alpha]
        if views is None:
            n, M, block, norms = self.n, self.truncation, self.block, self.norms
            views = self._shifts[alpha] = (
                as_strided(block[0, n - 1 - alpha:], (n, M + 1, block.shape[2]),
                           (block.strides[0] + block.strides[1],
                            n * block.strides[1], block.strides[2]),
                           writeable=False),
                as_strided(norms[0, n - 1 - alpha:], (n, M + 1),
                           (norms.strides[0] + norms.strides[1],
                            n * norms.strides[1]), writeable=False),
                # the multipliers do not depend on the truncation: a prefix of
                # those cached per 16 levels, so a table filled level by level
                # adds few cache entries
                _multipliers(n, -(-(M + 1) // 16) * 16)[alpha, :, :M + 1])
        return views

    __reduce__ = _reduce

    @property
    def mesh(self) -> Mesh:
        return self.weight.mesh

    def secondary(self, k: int, j: int) -> SampledFunction:
        return SampledFunction(self.mesh, self.x[k - 1][j])

    def main(self, k: int, m: int) -> SampledFunction:
        return self.secondary(k, m * self.n + k - 1)


def formal_powers(b: Sequence[SampledFunction], r: SampledFunction,
                  truncation: int, *, _done=None) -> FormalPowerTable:
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
    return _grow_powers(b, r, truncation, done=_done)


@np.errstate(over="ignore", invalid="ignore")  # _check_finite names the node
def _grow_powers(b: Sequence[SampledFunction], r: SampledFunction,
                 truncation: int, table: FormalPowerTable | None = None,
                 done=None) -> FormalPowerTable:
    """Table at ``truncation``, continuing ``table`` if one is given, or
    its prefix at the first level where ``done`` holds.

    The block is allocated once, at ``truncation``, and filled in place
    by the recursion of :func:`formal_powers` one level at a time: level
    m holds, for every k, the powers X_k^(j), (m - 1) n + k <= j <=
    m n + k - 1, that the table at truncation m reads beyond the one at
    m - 1 (level 0: X_k^(1..k-1)). After each level, the last included,
    ``done`` (if given) sees the table filled so far, and the fill stops at
    the first level where it returns true: the result is that table, a
    view of a prefix of the block, whose rows past it are never touched.

    Where ``table`` reaches the truncation, the result views a prefix of
    its block and copies nothing. Else its block is copied into the new
    one, which is filled from the level after it. The table at a lower
    truncation is an exact prefix of the table at a higher one, so a
    continued or stopped table equals one built at its truncation.
    """
    n, mesh = len(b) - 1, r.mesh
    if not (_is_int(truncation) and truncation >= 0):
        raise ValueError(f"truncation order must be a nonnegative integer, "
                         f"got {truncation!r}")
    rows = (truncation + 2) * n - 1
    if table is not None and table.block.shape[1] >= rows:
        return FormalPowerTable(n, truncation, r, table.block[:, :rows],
                                table.norms[:, :rows])
    # the factor at offset (k - j) mod n: b_n b_0 r at the wrap, else b_offset
    mults = [b[n].values * b[0].values * r.values] + [f.values for f in b[1:n]]
    h, i0 = mesh.h, mesh.i0
    # rows of all k interleaved in memory, so the levels filled are a prefix
    # of it, and the pages of the rest are never touched
    memory = np.empty((rows, n, mesh.n), dtype=np.complex128)
    block = memory.transpose(1, 0, 2)
    norms = np.zeros((n, rows))
    if table is None:  # X_k^(0) = 1
        block[:, :n - 1], block[:, n - 1], norms[:, n - 1] = 0.0, 1.0, 1.0
        first = 0
    else:
        block[:, :table.block.shape[1]] = table.block
        norms[:, :table.norms.shape[1]] = table.norms
        first = table.truncation + 1
    integrand, mags = np.empty(mesh.n, dtype=np.complex128), np.empty(mesh.n)
    # X_k^(j) and its norm at slabs[k - 1][0][j] and slabs[k - 1][1][j]
    slabs = list(zip(block[:, n - 1:], norms[:, n - 1:]))
    for level in range(first, truncation + 1):
        for k, (xs, sups) in enumerate(slabs, start=1):
            for j in range(max((level - 1) * n + k, 1), level * n + k):
                np.multiply(mults[(k - j) % n], xs[j - 1], out=integrand)
                power = _antiderivative(integrand, h, i0)
                power *= float(j)
                sup = float(np.abs(power, out=mags).max())
                if not math.isfinite(sup):  # name the node, as the check does
                    _check_finite(mesh, power)
                xs[j], sups[j] = power, sup
        stop = (level + 2) * n - 1
        if done is not None and done(FormalPowerTable(
                n, level, r, block[:, :stop], norms[:, :stop])) or level == truncation:
            break
    for k, (xs, sups) in enumerate(slabs[:-1], start=1):  # past X_k's last power
        past = slice(level * n + k, (level + 1) * n)
        xs[past], sups[past] = 0.0, 0.0
    memory.setflags(write=False)
    norms.setflags(write=False)
    return FormalPowerTable(n, level, r, block[:, :stop], norms[:, :stop])


# -- series evaluation ---------------------------------------------------------

def _check_index(table: FormalPowerTable, k: int) -> None:
    if not (_is_int(k) and 1 <= k <= table.n):
        raise ValueError(f"solution index k={k!r} outside 1..{table.n}")


def tail_ratio(table: FormalPowerTable, k: int, lam: complex) -> float:
    """Last term's bound |c_M| ||X_M|| over the partial sum's max modulus."""
    _check_index(table, k)
    return _series_sums(table, lam)[1][k - 1]


def _gate(ratios: list, factors: list, ks, lam: complex) -> None:
    """The one tail policy for the sums of u_k at lam, k in ``ks``, from the
    tail ratios and cancellation factors of :func:`_series_sums`: raise
    unless the tail ratio is at most TAIL_ERROR (so NaN raises), then unless
    eps times the cancellation factor is, and warn above TAIL_WARN."""
    for k in ks:
        ratio, factor = ratios[k - 1], factors[k - 1]
        if not ratio <= TAIL_ERROR:
            raise RegionTruncationError(
                f"series tail ratio {ratio:.3e} of u_{k} at lam={lam} exceeds "
                f"{TAIL_ERROR:.1e}; raise the truncation or bring lam nearer 0")
        if not factor * _EPS <= TAIL_ERROR:
            raise RegionTruncationError(
                f"series of u_{k} at lam={lam} cancels: its terms' bounds add "
                f"up to {factor:.3e} times its max modulus, so rounding may "
                f"reach {factor * _EPS:.1e} of it, above {TAIL_ERROR:.1e}; "
                f"bring lam nearer 0 (more terms do not help)")
        if ratio > TAIL_WARN:  # told at the first caller outside the package
            frame, level = sys._getframe(1), 2
            while frame.f_back and os.path.dirname(frame.f_code.co_filename) == _PACKAGE:
                frame, level = frame.f_back, level + 1
            warnings.warn(f"series tail ratio {ratio:.3e} of u_{k} at lam={lam}",
                          TruncationWarning, stacklevel=level)


@lru_cache(maxsize=64)
def _multipliers(n: int, truncation: int) -> np.ndarray:
    """Read-only (n, n, M + 1) array ``r[alpha, k - 1]`` from which the
    coefficients of S_{k,alpha} advance: c_0 = r[0], c_m = c_{m-1} lam r[m].

    Past the first present term, whose r is 1 / j0!, each r is one over
    (j + 1) ... (j + n) for the j of the term before. Where k <= alpha the
    m = 0 term is absent and r[0] = 1 multiplies a zero row of the table,
    so the first present coefficient is lam / j0! as it should be.
    """
    out = np.ones((n, n, truncation + 1))
    for alpha, k in itertools.product(range(n), range(1, n + 1)):
        m0 = int(alpha >= k)
        out[alpha, k - 1, m0:m0 + 1] = 1.0 / math.factorial(m0 * n + k - alpha - 1)
        for m in range(m0 + 1, truncation + 1):
            out[alpha, k - 1, m] = 1.0 / math.prod(
                range((m - 1) * n + k - alpha, m * n + k - alpha), start=1.0)
    out.setflags(write=False)
    return out


def _terms(table: FormalPowerTable, lam: complex, alpha: int):
    """The rows of every S_{k,alpha} at one lambda, their (n, M + 1)
    coefficients and the bounds |c_m| ||X|| of their terms."""
    rows, sups, mults = table._series(alpha)
    c = complex(lam) * mults
    c[:, 0] = mults[:, 0]
    np.multiply.accumulate(c, axis=1, out=c)
    return rows, c, np.abs(c) * sups


@np.errstate(over="ignore", invalid="ignore")
def _settled(table: FormalPowerTable, lam: complex) -> bool:
    """Whether every tail ratio of the sums of u_1..u_n at lam is at most
    STOP_TOL. The sums are formed only when the last terms' bounds are at
    most 2 STOP_TOL of all bounds: else no ratio can be, as max|S| is at
    most their sum up to rounding."""
    bounds = _terms(table, lam, 0)[2]
    if not np.all(bounds[:, -1] <= 2 * STOP_TOL * bounds.sum(axis=1)):
        return False
    return all(ratio <= STOP_TOL for ratio in _series_sums(table, lam)[1])


@np.errstate(over="ignore", invalid="ignore")  # the tail ratio reports them
def _series_sums(table: FormalPowerTable, lam: complex, alpha: int = 0):
    """The shifted series S_{k,alpha} = sum_m lambda^m X_k^(j) / j! over
    j = m n + k - alpha - 1 >= 0 at one lambda, for every k at once;
    u_k = b_0 S_{k,0}.

    Returns the (n, N) sums, and lists of each one's tail ratio (the last
    term's bound |c_M| ||X_M|| over max|S|), cancellation factor (the
    bounds of all terms added up, over max|S|) and number of terms read.
    Each sum stops as :func:`evaluate_solution` describes: the
    coefficients, bounds, tails and first stops of all k come as arrays,
    the terms through each first stop as one batched product with the
    table's strided rows, and any single terms after it per k.
    """
    rows, c, bounds = _terms(table, lam, alpha)
    n, M = table.n, table.truncation
    tails = np.zeros((n, M + 2))  # tails[:, m]: the bounds from m on
    np.add.accumulate(bounds[:, ::-1], axis=1, out=tails[:, M::-1])
    # the first stop: the first m whose later bounds are at most 2 STOP_TOL
    # of all of them (no earlier m can pass the test, as max|S| is at most
    # that sum up to rounding), yet not before the first present term, and
    # M where the sum is not finite. The tails fall with m, so the m that
    # pass are the first stop and those after it
    totals = tails[:, 0].tolist()
    passed = (tails[:, 1:] <= 2 * STOP_TOL * tails[:, :1]).sum(axis=1).tolist()
    stop = [min(max(M + 1 - p, int(k <= alpha)), M) if total < math.inf else M
            for k, (p, total) in enumerate(zip(passed, totals), start=1)]
    cut = c[:, :max(stop) + 1].copy()
    for i, m in enumerate(stop):
        cut[i, m + 1:] = 0.0
    s = np.matmul(cut[:, None], rows[:, :cut.shape[1]])[:, 0]
    top = np.abs(s).max(axis=1).tolist()
    for i in range(n):
        m, t = stop[i], top[i]
        while m < M and tails[i, m + 1] > STOP_TOL * t:
            m += 1
            s[i] += c[i, m] * rows[i, m]
            t = float(np.abs(s[i]).max())
        stop[i], top[i] = m, t
    ratios, factors = [], []
    for t, last, total in zip(top, bounds[:, M].tolist(), totals):
        ratios.append(last / t if t else (math.inf if last > 0.0 else 0.0))
        factors.append(total / t if t else (math.inf if total else 0.0))
    read = [m + 1 - (k <= alpha) for k, m in enumerate(stop, start=1)]
    return s, ratios, factors, read


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
    finite). Every sum goes through one kernel that sums u_1..u_n at once:
    the terms through the first m at which that can hold are one batched
    product of the coefficients with the table's strided rows, and any
    later ones are added singly. At lambda = 0 the result reduces to b_0
    times the (k-1)-fold iterated integral, the k-th element of the
    homogeneous solution family.

    Raises RegionTruncationError when the :func:`tail_ratio` is above
    TAIL_ERROR or NaN, or when the sum cancels so far that eps times its
    cancellation factor (its terms' bounds added up, over its max modulus)
    is above TAIL_ERROR; warns with TruncationWarning when the tail ratio
    is above TAIL_WARN. Raises MeshMismatchError when ``b0`` lives on
    another mesh than the table.
    """
    if b0.mesh != table.mesh:
        raise MeshMismatchError(f"b_0 on {b0.mesh}, table on {table.mesh}")
    _check_index(table, k)
    s, ratios, factors, _ = _series_sums(table, lam)
    _gate(ratios, factors, [k], lam)
    return SampledFunction(b0.mesh, b0.values * s[k - 1])


def evaluate_derivatives(table: FormalPowerTable, coeffs: np.ndarray,
                         k: int, lam: complex, ell: int) -> SampledFunction:
    """The ell-th derivative of u_k(.; lambda) for 1 <= ell <= n-1.

    Assembled from the derivative-coefficient triangle and shallower formal
    powers rather than finite differences: u_k^(ell) is the sum over
    alpha <= ell of A[ell, alpha] times the shifted series S_{k,alpha},
    which pairs X_k at index j = m n + k - alpha - 1 with lambda^m / j!
    (the rising-factorial prefactor folded into the reciprocal factorial).
    Each S_{k,alpha} stops as :func:`evaluate_solution` describes, and the
    sum of u_k itself (S_{k,0}) is gated as there.
    """
    if not (_is_int(ell) and 1 <= ell <= table.n - 1):
        raise ValueError(f"derivative order {ell!r} outside 1..{table.n - 1}")
    _check_index(table, k)
    s, ratios, factors, _ = _series_sums(table, lam)
    _gate(ratios, factors, [k], lam)
    sums = [s[k - 1]] + [_series_sums(table, lam, alpha)[0][k - 1]
                         for alpha in range(1, ell + 1)]
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
