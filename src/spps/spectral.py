"""Initial-value propagation, boundary conditions, and eigenvalue search.

The solution family attached to a factorized operator turns both problem
classes into small dense linear algebra:

* an initial-value problem is a lower-triangular solve for the combination
  coefficients, because the k-th basis solution has vanishing derivatives
  below order k - 1 at the basepoint;
* a two-point eigenvalue problem reduces to the roots of the determinant of
  an n-by-n matrix whose entries are polynomials in the spectral parameter,
  assembled from the per-node series coefficients of the basis solutions;
  the roots in a search region are counted and located by contour
  integrals on a circle around it, the same way for intervals and disks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import RegionTruncationError, TriangularDefectError
from .factorization import (
    RESIDUAL_TOL,
    OperatorSpec,
    SolutionSystem,
    _accepted,
    build_seed_system,
    operator_residual,
    polya_factors,
    wronskians,
)
from .mesh import Mesh, SampledFunction, _is_int, _reduce
from .powers import (
    STOP_TOL,
    FormalPowerTable,
    _gate,
    _grow_powers,
    _series_sums,
    _settled,
    compute_A,
    formal_powers,
    series_coefficients_at_node,
)

#: A diagonal initial value at most this fraction of its row's largest is 0.
DIAGONAL_FLOOR = 1e-12


@dataclass(frozen=True)
class Workspace:
    """Everything needed to evaluate solutions of L y = lam r y.

    Bundles the operator, its factors ``b`` = (b_0, ..., b_n), the formal
    power table, and the read-only derivative-coefficient triangle
    ``coeffs[ell, alpha]`` of :func:`~spps.powers.compute_A`. Build one
    with :func:`build_workspace`.

    ``truncation`` is a cap: ``table`` may hold a filled prefix of it, to
    ``table.truncation``, as a problem file's workspace does when it fills
    what its own query reads
    (:meth:`~spps.problem.ProblemConfig.make_workspace`). Every reader
    that needs more fills the table up to the cap first, so answers are
    those of the table at the cap.
    """

    op: OperatorSpec
    b: tuple[SampledFunction, ...]
    table: FormalPowerTable
    coeffs: np.ndarray
    seed: SolutionSystem
    truncation: int

    def __post_init__(self):
        self.coeffs.setflags(write=False)  # again on a copy

    __reduce__ = _reduce

    @property
    def mesh(self) -> Mesh:
        return self.op.mesh

    @property
    def n(self) -> int:
        return self.op.n


def build_workspace(
    op: OperatorSpec,
    seed: SolutionSystem | None = None,
    truncation: int = 30,
    rng_seed: int = 0,
    residual_tol: float = RESIDUAL_TOL,
    *,
    _reads: tuple[complex, ...] | None = None,
) -> Workspace:
    """Factorize the operator and precompute its formal power table.

    Parameters
    ----------
    op : OperatorSpec
        Operator coefficients and weight on a shared mesh.
    seed : SolutionSystem, optional
        A verified solution system for ``L y = 0``: its operator must have
        the order, mesh and coefficients of ``op`` (the weight may differ),
        else ValueError. When omitted, one is constructed by random
        recombination of iterated integrals.
    truncation : int
        Number of series terms in the spectral parameter (not the seed's):
        the workspace's cap, to which its table is filled.
    rng_seed : int
        Passed through to the seed builder when ``seed`` is omitted.
    residual_tol : float
        Residual check of the seed builder, and of a ``seed`` constructed
        directly (its ``residual_max`` is NaN), measured here; its floor
        check reads the Wronskians the factors are formed from.

    Each seed's nested Wronskians are formed once: a built seed's by the
    builder, which hands over those of the draw it accepted, and a given
    seed's here.

    A problem file's workspace passes the lambdas its [eig] or [initial]
    query reads the series at as ``_reads``: its table is then filled only
    until the tail ratios there settle (:func:`_query_fill`), and
    ``ws.table.truncation`` is that filled depth, at most the cap. Such a
    fill allocates 16 levels and grows by doubling where they do not
    suffice (:func:`~spps.powers._grow_powers`), so its block holds at
    most about twice the levels it fills, not the cap's.
    """
    if seed is None:  # the builder hands over the Wronskians it accepted
        W = []
        seed = build_seed_system(op, rng_seed=rng_seed, residual_tol=residual_tol,
                                 _wronskians=W)
    elif (seed.op.n, seed.op.mesh) != (op.n, op.mesh) or not all(
            np.array_equal(p.values, q.values) for p, q in zip(seed.op.phi, op.phi)):
        raise ValueError("the seed solves another order, mesh or coefficients")
    else:
        W = wronskians(seed)
        if np.isnan(seed.residual_max):  # constructed directly, never measured
            seed = _accepted(seed.op, seed.derivs, W, residual_tol,
                             retries=seed.retries, truncations=seed.truncations)
    b = polya_factors(W)
    table = formal_powers(b, op.r, truncation,
                          _done=None if _reads is None else _query_fill(_reads))
    return Workspace(op, b, table, compute_A(seed.derivs, table), seed,
                     truncation)


def _query_fill(lams):
    """Stop rule of a table filled for a query that reads the series at
    ``lams``: the first level with ``PERSISTENCE_EXTRA`` terms past the
    first level at which every tail ratio at every lam is at most STOP_TOL,
    as if the query's trimmed polynomials kept the terms through it."""
    first = None

    def done(table: FormalPowerTable) -> bool:
        nonlocal first
        if first is None:
            if not all(_settled(table, lam) for lam in lams):
                return False
            first = table.truncation
        return _persists(first + 1, table.truncation)
    return done


def with_truncation(ws: Workspace, truncation: int) -> Workspace:
    """Same workspace with its cap at another truncation, and its power
    table filled to it.

    A truncation the table reaches views a prefix of its block and copies
    nothing. A larger one copies the table into a new block and integrates
    only the new formal powers. Either way the table equals the one
    :func:`formal_powers` builds. ``with_truncation(ws, ws.truncation)``
    fills a table that stops short of its cap (``ws.table.truncation`` <
    ``ws.truncation``), as a problem file's workspace filled for its
    [eig] or [initial] query does; readers of a workspace do so where they
    need terms past the filled ones.
    :func:`find_eigenvalues` calls it too when its search left a root and
    read the table to within ``PERSISTENCE_EXTRA`` terms of its end.
    """
    if truncation == ws.truncation == ws.table.truncation:
        return ws
    return replace(ws, truncation=truncation, table=_grow_powers(
        ws.b, ws.table.weight, truncation, ws.table))


# ---------------------------------------------------------------------------
# initial-value problems
# ---------------------------------------------------------------------------

def solve_initial_value(ws: Workspace, values, lam: complex) -> SampledFunction:
    """Solution with prescribed derivatives of order 0..n-1 at the basepoint.

    The basis solutions have a lower-triangular matrix of initial values, so
    the combination coefficients come from forward substitution.

    Raises
    ------
    TriangularDefectError
        If a diagonal initial value is numerically zero against its row,
        which means the factorization cannot normalize that basis solution.
    RegionTruncationError
        If a summed u_k's series tail ratio is above TAIL_ERROR or NaN, or
        its sum cancels past eps * factor = TAIL_ERROR (see
        :func:`~spps.powers.evaluate_solution`).
    """
    n = ws.n
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (n,) or not (np.all(np.isfinite(vals)) and np.isfinite(lam)):
        raise ValueError(f"expected {n} finite initial values and a finite "
                         f"lambda, got {vals} and {lam}")
    # every formal power but X^(0) = 1 vanishes at x0, so u_k^(ell)(x0) is
    # A[ell, k-1](x0) from ell = k-1 on and 0 below, whatever lam is
    mat = ws.coeffs[:, :, ws.mesh.i0]
    tops = np.abs(mat).max(axis=1)  # A is zero above its diagonal
    c = np.zeros(n, dtype=complex)
    for ell in range(n):
        diag, top = mat[ell, ell], tops[ell]
        if not abs(diag) > DIAGONAL_FLOOR * top:
            raise TriangularDefectError(
                f"initial-value matrix diagonal {ell} is {abs(diag):.3e} of its "
                f"row's {top:.3e}; the factorization is singular at the basepoint")
        c[ell] = (vals[ell] - mat[ell, :ell] @ c[:ell]) / diag
    return SampledFunction(ws.mesh, _combination(ws, c, lam))


def _combination(ws: Workspace, c: np.ndarray, lam: complex) -> np.ndarray:
    """sum_k c[k - 1] u_k(.; lam) over the mesh, each u_k with c_k != 0
    gated; all n are summed in one call, on the table filled to the cap
    where a gated sum's tail ratio on a shorter one is above STOP_TOL."""
    lam = complex(lam)
    s, ratios, factors, _ = _series_sums(ws.table, lam)
    ks = np.flatnonzero(c)
    if ws.table.truncation < ws.truncation and not all(
            ratios[k] <= STOP_TOL for k in ks):
        return _combination(with_truncation(ws, ws.truncation), c, lam)
    _gate(ratios, factors, ks + 1, lam)
    return ws.b[0].values * (c[ks] @ s[ks])


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryConditions:
    """n homogeneous two-point conditions on derivatives of order < n.

    Row i encodes  sum_l left[i, l] y^(l)(x1) + sum_l right[i, l] y^(l)(x2) = 0.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.array(self.left, dtype=complex)
        right = np.array(self.right, dtype=complex)
        if left.ndim != 2 or left.shape != right.shape or \
                left.shape[0] != left.shape[1]:
            raise ValueError(
                "boundary condition arrays must be two square matrices of "
                f"equal size; got {left.shape} and {right.shape}")
        stacked = np.hstack([left, right])
        if not np.all(np.isfinite(stacked)):
            raise ValueError(f"boundary condition entries must be finite, got {stacked}")
        # relative to the largest singular value, so scaled rows are as good
        if np.linalg.matrix_rank(stacked, 1e-10 * np.linalg.norm(stacked, 2)) < len(left):
            raise ValueError("boundary condition rows are linearly dependent")
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def n(self) -> int:
        return self.left.shape[0]

    @classmethod
    def separated(cls, n: int, left_orders, right_orders) -> "BoundaryConditions":
        """Conditions fixing single derivatives at each endpoint.

        ``separated(2, [0], [0])`` pins the function value at both ends;
        ``separated(4, [0, 2], [0, 2])`` pins value and second derivative.
        """
        left_orders, right_orders = list(left_orders), list(right_orders)
        orders = left_orders + right_orders
        if not (_is_int(n) and len(orders) == n):
            raise ValueError(f"need {n!r} conditions (an integer), got {len(orders)}")
        if not all(_is_int(d) and 0 <= d < n for d in orders):
            raise ValueError(f"derivative orders must be integers in 0..{n - 1}, "
                             f"got {orders}")
        left = np.zeros((n, n))
        right = np.zeros((n, n))
        for i, d in enumerate(left_orders):
            left[i, d] = 1.0
        for i, d in enumerate(right_orders, start=len(left_orders)):
            right[i, d] = 1.0
        return cls(left, right)


def eigenfunction(ws: Workspace, bc: BoundaryConditions,
                  lam: complex) -> SampledFunction:
    """Combination of basis solutions closest to satisfying the conditions.

    Evaluates the boundary matrix from the characteristic polynomials at
    ``lam``, takes its right singular vector for the smallest singular value,
    and sums the basis solutions with those coefficients over the whole mesh,
    normalized so the largest sample is 1. A basis solution summed past
    its truncation, or whose sum cancels past eps * factor = TAIL_ERROR,
    raises RegionTruncationError, as in ``evaluate_solution``. A table
    short of its cap is filled to it first unless its tails at ``lam``
    settle.
    """
    if not np.isfinite(lam):
        raise ValueError(f"need a finite lambda, got {lam}")
    if ws.table.truncation < ws.truncation and not _settled(ws.table, lam):
        ws = with_truncation(ws, ws.truncation)
    charfn = characteristic_polynomials(ws, bc)
    return _null_combination(ws, charfn.matrix(lam), lam)


def _null_combination(ws: Workspace, mat: np.ndarray,
                      lam: complex) -> SampledFunction:
    """The basis solutions at ``lam`` summed with the right singular vector
    of the boundary matrix ``mat`` for its smallest singular value."""
    acc = _combination(ws, np.linalg.svd(mat)[2][-1].conj(), lam)
    peak = int(np.argmax(np.abs(acc)))
    if acc[peak] == 0:
        raise TriangularDefectError(
            "candidate eigenfunction is identically zero")
    return SampledFunction(ws.mesh, acc / acc[peak])


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicFunction:
    """Entrywise polynomial form of the boundary matrix.

    ``poly[i, k, m]`` is the coefficient of lam**m in entry (i, k); the
    eigenvalues of the boundary problem are the roots of the determinant.
    """

    poly: np.ndarray

    @property
    def n(self) -> int:
        return self.poly.shape[0]

    @property
    def degree(self) -> int:
        return self.poly.shape[2] - 1

    def matrix(self, lam: complex) -> np.ndarray:
        return self._matrices(np.asarray([complex(lam)]))[0]

    def _matrices(self, lams: np.ndarray, derivative: bool = False):
        """Stack of boundary matrices, shape (len(lams), n, n); with
        ``derivative``, also the stack of their derivatives in lam.

        One Horner recurrence runs over the whole stack, highest coefficient
        first, with the same operations per entry as a scalar Horner loop.
        The derivatives run in it on the coefficients m c_m of lam**(m-1).
        No power of lam is formed on its own, so no term overflows alone.
        """
        n, terms = self.n, self.degree + 1
        coeffs = self.poly.reshape(n * n, terms)
        if derivative:
            slope = np.zeros_like(coeffs)
            slope[:, :-1] = coeffs[:, 1:] * np.arange(1, terms)
            coeffs = np.vstack([coeffs, slope])
        # a row per entry, the points along it: each step is one long pass
        acc = np.zeros((len(coeffs), len(lams)), dtype=complex)
        for c in coeffs.T[::-1, :, None]:
            acc *= lams
            acc += c
        acc = acc.T.reshape(len(lams), -1, n, n)
        return (acc[:, 0], acc[:, 1]) if derivative else acc[:, 0]

    def det(self, lam: complex) -> complex:
        return complex(np.linalg.det(self.matrix(lam)))

    def det_samples(self, lams) -> np.ndarray:
        lams = np.asarray(lams, dtype=complex)
        return np.linalg.det(self._matrices(lams))

    def det_polynomial(self) -> np.ndarray:
        """Ascending coefficients of det(poly matrix) as one polynomial.

        Expands the determinant over permutations with coefficient
        convolutions for small orders; beyond order 6 the coefficients are
        recovered from samples at roots of unity instead.
        """
        n = self.n
        terms = self.poly.shape[2]
        deg = n * (terms - 1)
        if n <= 6:
            acc = np.zeros(deg + 1, dtype=complex)
            for perm in itertools.permutations(range(n)):
                sign = (-1) ** sum(a > b for a, b in
                                   itertools.combinations(perm, 2))
                prod = np.ones(1, dtype=complex)
                for i, k in enumerate(perm):
                    prod = np.convolve(prod, self.poly[i, k])
                acc[:len(prod)] += sign * prod
            return acc
        count = deg + 1
        sample_points = np.exp(2j * np.pi * np.arange(count) / count)
        vals = self.det_samples(sample_points)
        # vals[j] = sum_m c_m w**(j m), w = exp(2 pi i / count): invert by fft
        return np.fft.fft(vals) / count


def characteristic_polynomials(ws: Workspace,
                               bc: BoundaryConditions) -> CharacteristicFunction:
    """Assemble the boundary matrix as polynomials in the spectral parameter.

    They read the table as filled: their degree is ``ws.table.truncation``,
    which is below the cap ``ws.truncation`` where the table stops short
    of it (``with_truncation(ws, ws.truncation)`` fills it).
    """
    n = ws.n
    _check_order(ws, bc)
    cl, cr = series_coefficients_at_node(ws.table, ws.coeffs,
                                         [0, ws.mesh.n - 1])
    poly = np.zeros((n, n, ws.table.truncation + 1), dtype=complex)
    for ell in range(n):  # per entry: ascending ell, left end then right
        poly += bc.left[:, ell, None, None] * cl[ell]
        poly += bc.right[:, ell, None, None] * cr[ell]
    return CharacteristicFunction(poly)


def _check_order(ws: Workspace, bc: BoundaryConditions) -> None:
    if bc.n != ws.n:
        raise ValueError(f"boundary conditions are {bc.n}-dimensional, "
                         f"operator order is {ws.n}")


# ---------------------------------------------------------------------------
# eigenvalue regions and search options
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Search region: the real interval [lo, hi], and every root within its
    persistence window of it (see :func:`find_eigenvalues`)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)
                and self.lo < self.hi):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def extent(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Disk:
    """Search region: a closed disk in the complex plane, and every root
    within its persistence window of it (see :func:`find_eigenvalues`)."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0
                and np.isfinite(self.center.real)
                and np.isfinite(self.center.imag)):
            raise ValueError(f"bad disk center={self.center} "
                             f"radius={self.radius}")


@dataclass(frozen=True)
class EigenOptions:
    """Knobs for the eigenvalue search.

    ``samples`` (2..``MAX_POINTS``) is the number of contour points the root
    count starts from; they are doubled until the count converges. At most
    ``max_count`` eigenvalues are returned, the lowest first. A candidate is
    accepted only if the reconstructed eigenfunction drives the equation
    residual below ``residual_tol``.
    """

    samples: int = 1001
    max_count: int | None = None
    residual_tol: float = 1e-4

    def __post_init__(self):
        for name, ok, limit in (
                ("samples", _is_int(self.samples) and 2 <= self.samples <= MAX_POINTS,
                 f"in 2..{MAX_POINTS}"),
                ("max_count", self.max_count is None
                 or _is_int(self.max_count) and self.max_count >= 1,
                 "an integer, at least 1"),
                ("residual_tol", self.residual_tol > 0, "positive")):
            if not ok:
                raise ValueError(f"{name} must be {limit}, "
                                 f"got {getattr(self, name)!r}")


#: Persistence trims, at the region's edge, a table with at least this many
#: terms past the most the search kept; the trim drops those negligible there.
PERSISTENCE_EXTRA = 5
#: A root persists when it moves by at most this times max(1, |lam|).
PERSISTENCE_TOL = 1e-7


def _window(lam):
    """The persistence window about lam (or about each entry of an array)."""
    return PERSISTENCE_TOL * np.maximum(1.0, np.abs(lam))


@dataclass(frozen=True)
class Eigenvalue:
    """An accepted eigenvalue with its equation residual."""

    lam: complex
    residual: float


@dataclass(frozen=True)
class EigenResult:
    """Accepted eigenvalues plus rejected candidates with reasons."""

    eigenvalues: tuple[Eigenvalue, ...]
    rejected: tuple[tuple[complex, str], ...]

    @property
    def values(self) -> list[complex]:
        return [e.lam for e in self.eigenvalues]


# ---------------------------------------------------------------------------
# eigenvalue search
# ---------------------------------------------------------------------------

def _persists(kept: int, truncation: int) -> bool:
    """Whether a table at ``truncation`` holds at least PERSISTENCE_EXTRA
    terms past the ``kept`` a search's trimmed polynomials kept."""
    return truncation + 1 - kept >= PERSISTENCE_EXTRA


def _check_tail(ws: Workspace, lam: complex) -> Workspace:
    """Gate the sums of every u_k at lam; on the table filled to the cap
    where it stops short of it and a tail ratio there is above STOP_TOL.
    Returns the workspace gated."""
    _, ratios, factors, _ = _series_sums(ws.table, lam)
    if ws.table.truncation < ws.truncation and not all(
            ratio <= STOP_TOL for ratio in ratios):
        return _check_tail(with_truncation(ws, ws.truncation), lam)
    _gate(ratios, factors, range(1, ws.n + 1), lam)
    return ws


# The roots of det T in a circle are counted and located from contour
# integrals of (det T)'/det T (Delves & Lyness, Math. Comp. 21, 1967).
WIDEN = 1.05  # circle radius over the half-diagonal of the box it covers
MAX_POINTS = 2 ** 14  # contour points beyond which the circle is widened
MOMENT_TOL = 1e-4  # nested levels agree; the finer errs by about its square
BLOCK = 1024  # points evaluated at a time, which bounds memory


def _log_derivative(charfn: CharacteristicFunction,
                    lams: np.ndarray) -> np.ndarray:
    """(det T)'/det T = tr(T^-1 T') (Jacobi); infinite where T is singular."""
    out = np.full(len(lams), np.inf, dtype=complex)
    for start in range(0, len(lams), BLOCK):
        t, dt = charfn._matrices(lams[start:start + BLOCK], derivative=True)
        try:
            ok, x = slice(None), np.linalg.solve(t, dt)
        except np.linalg.LinAlgError:  # T is singular at some point: a root
            ok = np.isfinite(np.linalg.slogdet(t)[1])
            x = np.linalg.solve(t[ok], dt[ok])
        out[start:start + BLOCK][ok] = np.trace(x, axis1=1, axis2=2)
    return out


def _moments(charfn: CharacteristicFunction, center: complex, radius: float,
             samples: int):
    """Radius, and power sums s_0..s_N of w = (lam - center) / radius over
    the N = s_0 roots of det T in the circle: the trapezoid rule on
    ``samples`` points (made even), doubled until it agrees with the rule on
    every other point. A root on the contour stops that; widen then.
    RegionTruncationError if no circle converges."""
    for _ in range(3):
        size = samples + samples % 2
        g = _log_derivative(charfn, center + radius * np.exp(
            2j * np.pi * np.arange(size) / size))
        while len(g) <= MAX_POINTS and np.isfinite(np.sum(g)):
            w = np.exp(2j * np.pi * np.arange(len(g)) / len(g))
            count = max(round((radius * np.mean(g * w)).real), 0)
            sums, coarse = (radius * (v * u) @ np.vander(
                u, count + 1, increasing=True) / len(u)
                for v, u in ((g, w), (g[::2], w[::2])))
            if np.max(np.abs(sums - coarse)) <= MOMENT_TOL * (count + 1):
                return radius, sums
            odd = np.exp(2j * np.pi * (np.arange(len(g)) + 0.5) / len(g))
            g = np.stack([g, _log_derivative(charfn, center + radius * odd)],
                         axis=1).ravel()
        radius *= WIDEN
    raise RegionTruncationError(
        f"contour integrals of det T about {center:.6g} diverge: the region is "
        f"too large for the series truncation; raise the truncation or shrink it")


def _newton(charfn: CharacteristicFunction, z: np.ndarray, steps: int,
            deflate: bool):
    """Newton's method on det T, and whether the last step and the plain one
    (a deflated step can be small off a root) were in the window. With
    ``deflate`` (Aberth-Maehly) the steps run until all are in the window."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            g = _log_derivative(charfn, z)
            shift = np.sum(1.0 / (z[:, None] - z + np.diag(
                np.full(len(z), np.inf))), axis=1) if deflate else 0.0
            step = np.where(np.isinf(g), 0.0, 1.0 / (g - shift))
            z, small = z - step, np.abs(step) <= _window(z)
            done = small & (np.abs(1.0 / g) <= _window(z))
            if deflate and np.all(small) or not np.all(np.isfinite(z)):
                break
    return z, done


def _trimmed(charfn: CharacteristicFunction,
             reach: float) -> CharacteristicFunction:
    """T without the top terms that stay below e**-40 (4e-18) of the largest
    term of their entry for |lam| <= reach, under T's rounding error there."""
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(charfn.poly)) + np.log(reach) * np.arange(
            charfn.degree + 1)
    big = logs >= np.max(logs, axis=2, keepdims=True) - 40.0
    last = np.flatnonzero(np.any(big & np.isfinite(logs), axis=(0, 1)))
    return CharacteristicFunction(charfn.poly[:, :, :last[-1] + 1])


def _farthest(center: complex, radius: float) -> complex:
    """The point of largest modulus on a circle."""
    return center + radius * (center / abs(center) if center else 1.0)


def _search(region):
    """The box (center, half width, half height) a search of ``region``
    covers, the radius of its first circle, and the points at which it
    reads the series farthest out: that circle's far edge, and the far
    edge of the circle widened twice, as far as :func:`_moments` widens
    it. The first circle passes every point within a window of the region,
    were the region narrow. A problem file's workspace is filled for the
    same points (:meth:`~spps.problem.ProblemConfig.make_workspace`)."""
    if isinstance(region, Interval):
        box = ((region.lo + region.hi) / 2, region.extent / 2, 0.0)
    elif isinstance(region, Disk):
        box = (complex(region.center), region.radius, region.radius)
    else:
        raise TypeError(f"unsupported region type {type(region).__name__}")
    radius = max(WIDEN * box[1], box[1] + 2 * _window(abs(box[0]) + box[1]))
    return box, radius, (_farthest(box[0], radius),
                         _farthest(box[0], WIDEN ** 2 * radius))


def _roots_in(charfn: CharacteristicFunction, box, options: EigenOptions,
              radius: float | None = None, splits: int = 6):
    """Roots of det T in a box (center, half width, half height) grown by
    their windows (in a flat box's span, whatever their imaginary part),
    from a circle about it (by default through its corners, widened); the
    estimates in the box counted but not confirmed; the point of largest
    modulus on the circles; and the most terms of T that any circle's
    trimmed polynomial kept. While the confirmed roots miss the count, the
    box is halved and searched, ``splits`` times over."""
    center, hx, hy = box
    radius = radius or WIDEN * abs(complex(hx, hy))
    # out to where the circle may widen (twice) and its roots are polished
    near = _trimmed(charfn, abs(center) + WIDEN ** 2 * radius)
    radius, sums = _moments(near, center, radius, options.samples)
    far, kept = _farthest(center, radius), near.degree + 1
    if len(sums) < 2:
        return [], [], far, kept
    # first estimates: the eigenvalues of the Hankel pencil of the sums, as
    # the roots of its characteristic polynomial prod (w - w_k) by Newton's
    # identities, which unlike the pencil stay regular at a multiple root
    c = [1.0]
    for k in range(1, len(sums)):
        c.append(-sum(c[k - i] * sums[i] for i in range(1, k + 1)) / k)
    companion = np.eye(len(c) - 1, k=-1, dtype=complex)
    companion[:, -1] = -np.array(c[:0:-1])
    z, ok = _newton(near, center + radius * np.linalg.eigvals(companion),
                    60, deflate=True)
    ok &= np.abs(z - center) < radius
    if np.count_nonzero(ok) != len(z) and splits > 0:
        shift, half = (hx / 2, (hx / 2, hy)) if hx >= hy else \
            (0.5j * hy, (hx, hy / 2))
        # a half of a square box can reach further out than the box
        found = [_roots_in(charfn, (center + sign * shift, *half), options,
                           splits=splits - 1) for sign in (-1, 1)]
        return (found[0][0] + found[1][0], found[0][1] + found[1][1],
                max(far, found[0][2], found[1][2], key=abs),
                max(kept, found[0][3], found[1][3]))
    d, tol = z - center, _window(z)
    span = abs(d.real) <= hx + tol
    inside = span & (abs(d.imag) <= hy + tol)
    return (list(z[ok & (inside if hy else span)]), list(z[~ok & inside]),
            far, kept)


def find_eigenvalues(ws: Workspace, bc: BoundaryConditions, region,
                     options: EigenOptions | None = None) -> EigenResult:
    """Eigenvalues of L y = lam r y under the boundary conditions in a region.

    The roots of the characteristic determinant are counted and located by
    contour integrals on a circle 5% wider than the region (around an
    :class:`Interval`, a :class:`Disk`'s own). Each root in the region must
    (a) persist, by Newton's method, on T trimmed at the region's far edge
    from a table of at least ``PERSISTENCE_EXTRA`` more terms than the
    search kept (extended by that many if needed): the search's own terms
    wherever it stopped short of the table's end, since the trim drops the
    rest, and (b) give an :func:`eigenfunction` there with equation
    residual below ``options.residual_tol``. Roots failing either, or
    counted in the region but never located, are rejected. A root within
    its persistence window of the region is in it, even past the edge;
    roots within twice that window are merged, as a multiple root. An
    interval's roots are real; one whose imaginary part exceeds that window
    is rejected as off the axis.

    A table short of the workspace's cap is read as stored where its tails
    settle at the far edge of the circle (and of any circle the search went
    on to use) and it holds ``PERSISTENCE_EXTRA`` more terms than the
    search kept; else it is filled to the cap first, so the answer is the
    one at the cap.

    Raises
    ------
    RegionTruncationError
        If the series tail at the far edge of the circle, or of a circle
        the search went on to use, is too large for any answer there to be
        trustworthy, or the sums there cancel past the gate of
        :func:`~spps.powers.evaluate_solution`, or if the contour integrals
        never converge.
    """
    options = options or EigenOptions()
    box, radius, (edge, _) = _search(region)
    if isinstance(region, Interval):
        def place(lam: complex) -> complex | None:
            w = _window(lam)
            real = region.lo - w <= lam.real <= region.hi + w and \
                abs(lam.imag) <= w
            return complex(lam.real) if real else None
    else:
        def place(lam: complex) -> complex | None:
            inside = abs(lam - region.center) <= region.radius + _window(lam)
            return complex(lam) if inside else None
    _check_order(ws, bc)
    ws = _check_tail(ws, edge)
    charfn = characteristic_polynomials(ws, bc)
    roots, unconfirmed, far, kept = _roots_in(charfn, box, options, radius)
    widened = abs(far) > abs(edge)  # a widened or split circle reached past it
    if ws.table.truncation < ws.truncation and not (
            _persists(kept, ws.table.truncation)
            and (not widened or _settled(ws.table, far))):
        # the search read near the end of the filled terms or past where
        # they settle: search as the table at the cap does
        return find_eigenvalues(with_truncation(ws, ws.truncation), bc,
                                region, options)
    if widened:
        _check_tail(ws, far)
    rejected = [(lam, "counted but not confirmed as a root")
                for lam in unconfirmed if place(lam) is not None]
    for z in roots:  # an interval's confirmed roots may lie off its axis
        if not box[2] and place(z) is None and place(z.real) is not None:
            rejected.append((complex(z), f"off the real axis by {abs(z.imag):.1e}"))
    roots = np.array([z for z in roots if place(z) is not None], dtype=complex)
    # from the real part of a root near the real axis, Newton's method stays
    # on it exactly when T is real there (real data and seed system)
    starts = np.where(abs(roots.imag) <= _window(roots), roots.real, roots)
    # persistence reads the table as stored, unless a kept term lies within
    # PERSISTENCE_EXTRA of its end and some root is left to confirm
    fine = ws
    if len(roots) and not _persists(kept, ws.table.truncation):
        fine = with_truncation(ws, ws.truncation + PERSISTENCE_EXTRA)
        charfn = characteristic_polynomials(fine, bc)
    refined = []
    near = _trimmed(charfn, abs(edge))  # the region is inside
    for lam, lam2 in zip(roots, _newton(near, starts, 2, deflate=False)[0]):
        if not abs(lam2 - lam) <= _window(lam):
            rejected.append((lam, "no root nearby at refined truncation"))
        elif place(lam2) is None:
            rejected.append((lam, "outside the region at refined truncation"))
        else:
            refined.append(place(lam2))
    # roots within twice their window are one: a multiple root, or a root
    # that two halves of a split box both kept
    clusters: list[list[complex]] = []
    for lam in sorted(refined, key=lambda z: (z.real, z.imag)):
        if clusters and abs(lam - clusters[-1][0]) <= 2 * _window(lam):
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    accepted: list[Eigenvalue] = []
    lams = [complex(np.mean(c)) for c in clusters]
    mats = charfn._matrices(np.array(lams)) if lams else []
    for lam, mat in zip(lams, mats):  # T at all of them in one Horner pass
        y = _null_combination(fine, mat, lam)
        res = operator_residual(ws.op, y, lam=lam)
        if res > options.residual_tol:
            rejected.append((lam, f"equation residual {res:.3e} exceeds "
                             f"{options.residual_tol:.1e}"))
            continue
        accepted.append(Eigenvalue(lam, res))

    accepted.sort(key=lambda e: (e.lam.real, e.lam.imag))
    if options.max_count is not None:
        accepted = accepted[:options.max_count]
    return EigenResult(tuple(accepted), tuple(rejected))
