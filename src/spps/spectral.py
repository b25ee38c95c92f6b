"""Initial-value propagation, boundary conditions, and eigenvalue search.

The solution family attached to a factorized operator turns both problem
classes into small dense linear algebra:

* an initial-value problem is a lower-triangular solve for the combination
  coefficients, because the k-th basis solution has vanishing derivatives
  below order k - 1 at the basepoint;
* a two-point eigenvalue problem reduces to the roots of the determinant of
  an n-by-n matrix whose entries are polynomials in the spectral parameter,
  assembled from the per-node series coefficients of the basis solutions.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    RegionTruncationError,
    TriangularDefectError,
    TruncationWarning,
)
from .factorization import (
    RESIDUAL_TOL,
    WRONSKIAN_FLOOR,
    OperatorSpec,
    PolyaFactorization,
    SolutionSystem,
    build_seed_system,
    operator_residual,
    polya_factors,
    wronskians,
)
from .mesh import Mesh, SampledFunction
from .powers import (
    DerivativeCoeffs,
    FormalPowerTable,
    _grow_powers,
    compute_A,
    evaluate_solution,
    formal_powers,
    initial_matrix,
    series_coefficients_at_node,
    tail_ratio,
)

DIAGONAL_FLOOR = 1e-12
COEFF_TRIM = 1e-13


@dataclass(frozen=True)
class Workspace:
    """Everything needed to evaluate solutions of L y = lam r y.

    Bundles the operator, its factorization, the formal power table, and the
    derivative-coefficient triangle. Build one with :func:`build_workspace`.
    """

    op: OperatorSpec
    fac: PolyaFactorization
    table: FormalPowerTable
    coeffs: DerivativeCoeffs
    seed: SolutionSystem

    @property
    def mesh(self) -> Mesh:
        return self.op.mesh

    @property
    def n(self) -> int:
        return self.op.n

    @property
    def b0(self) -> SampledFunction:
        return self.fac.b[0]

    @property
    def truncation(self) -> int:
        return self.table.truncation


def build_workspace(
    op: OperatorSpec,
    seed: SolutionSystem | None = None,
    truncation: int = 30,
    rng_seed: int = 0,
    max_retries: int = 25,
    wronskian_floor: float = WRONSKIAN_FLOOR,
    residual_tol: float = RESIDUAL_TOL,
) -> Workspace:
    """Factorize the operator and precompute its formal power table.

    Parameters
    ----------
    op : OperatorSpec
        Operator coefficients and weight on a shared mesh.
    seed : SolutionSystem, optional
        A verified solution system for ``L y = 0``. When omitted, one is
        constructed by random recombination of iterated integrals.
    truncation : int
        Number of series terms in the spectral parameter.
    rng_seed, max_retries :
        Passed through to the seed builder when ``seed`` is omitted.
    wronskian_floor, residual_tol :
        Checks of the seed builder; the Wronskian floor also applies to the
        factorization of an explicit ``seed``.
    """
    if seed is None:
        seed = build_seed_system(
            op, rng_seed=rng_seed, max_retries=max_retries,
            truncation=truncation, wronskian_floor=wronskian_floor,
            residual_tol=residual_tol)
    fac = polya_factors(wronskians(seed), wronskian_floor)
    table = formal_powers(fac, op.r, truncation)
    coeffs = compute_A(fac)
    return Workspace(op, fac, table, coeffs, seed)


def with_truncation(ws: Workspace, truncation: int) -> Workspace:
    """Same workspace with the power table at another truncation.

    A larger truncation extends the existing table from its last column, so
    only the new formal powers are integrated; a smaller one keeps a prefix
    of it. Either way the table equals the one :func:`formal_powers` builds.
    """
    if truncation == ws.truncation:
        return ws
    table = _grow_powers(ws.fac, ws.table.weight, ws.table.x, truncation)
    return replace(ws, table=table)


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
        If a diagonal initial value is numerically zero, which means the
        factorization cannot normalize that basis solution.
    """
    n = ws.n
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (n,):
        raise ValueError(
            f"expected {n} initial values, got shape {vals.shape}")
    mat = initial_matrix(ws.coeffs, ws.b0)
    c = np.zeros(n, dtype=complex)
    for ell in range(n):
        diag = mat[ell, ell]
        if abs(diag) < DIAGONAL_FLOOR:
            raise TriangularDefectError(
                f"initial-value matrix diagonal {ell} is {abs(diag):.3e}; "
                "the factorization is too close to singular at the basepoint")
        c[ell] = (vals[ell] - mat[ell, :ell] @ c[:ell]) / diag
    lam = complex(lam)
    out = None
    for k in range(1, n + 1):
        if c[k - 1] == 0:
            continue
        term = evaluate_solution(ws.table, ws.b0, k, lam) * c[k - 1]
        out = term if out is None else out + term
    if out is None:
        return SampledFunction(ws.mesh, np.zeros(ws.mesh.n, dtype=complex))
    return out


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
        if np.linalg.matrix_rank(stacked, tol=1e-10) < left.shape[0]:
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
        orders = list(left_orders) + list(right_orders)
        if len(orders) != n:
            raise ValueError(
                f"need {n} conditions, got {len(orders)}")
        if any(d < 0 or d >= n for d in orders):
            raise ValueError(f"derivative orders must lie in 0..{n - 1}")
        left = np.zeros((n, n))
        right = np.zeros((n, n))
        for i, d in enumerate(left_orders):
            left[i, d] = 1.0
        for i, d in enumerate(right_orders, start=len(list(left_orders))):
            right[i, d] = 1.0
        return cls(left, right)


def eigenfunction(ws: Workspace,
                  bc: BoundaryConditions | CharacteristicFunction,
                  lam: complex) -> SampledFunction:
    """Combination of basis solutions closest to satisfying the conditions.

    Evaluates the boundary matrix from the characteristic polynomials at
    ``lam``, takes its right singular vector for the smallest singular value,
    and sums the basis solutions with those coefficients over the whole mesh,
    normalized so the largest sample is 1. ``bc`` is either the boundary
    conditions or the :class:`CharacteristicFunction` that
    :func:`characteristic_polynomials` already assembled from them for
    ``ws``, which is then used as it is.
    """
    if isinstance(bc, CharacteristicFunction):
        charfn = bc
        if charfn.n != ws.n or charfn.degree != ws.truncation:
            raise ValueError(
                f"characteristic function of order {charfn.n} and degree "
                f"{charfn.degree} does not belong to a workspace of order "
                f"{ws.n} at truncation {ws.truncation}")
    else:
        charfn = characteristic_polynomials(ws, bc)
    mat = charfn.matrix(lam)
    _, _, vh = np.linalg.svd(mat)
    coeff = vh[-1].conj()
    lam = complex(lam)
    acc = np.zeros(ws.mesh.n, dtype=complex)
    for k in range(1, ws.n + 1):
        if coeff[k - 1] == 0:
            continue
        acc += coeff[k - 1] * evaluate_solution(ws.table, ws.b0, k, lam).values
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
        lams = np.asarray([complex(lam)])
        return self._matrices(lams)[0]

    def _matrices(self, lams: np.ndarray) -> np.ndarray:
        """Stack of boundary matrices, shape (len(lams), n, n).

        One Horner recurrence runs over the whole stack, highest coefficient
        first, with the same operations per entry as a scalar Horner loop.
        """
        n = self.n
        acc = np.zeros((len(lams), n, n), dtype=complex)
        scale = lams[:, None, None]
        for m in range(self.degree, -1, -1):
            acc = acc * scale + self.poly[:, :, m]
        return acc

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
                sign = _permutation_sign(perm)
                prod = np.ones(1, dtype=complex)
                for i, k in enumerate(perm):
                    prod = np.convolve(prod, self.poly[i, k])
                acc[:len(prod)] += sign * prod
            return acc
        count = deg + 1
        sample_points = np.exp(2j * np.pi * np.arange(count) / count)
        vals = self.det_samples(sample_points)
        return np.fft.ifft(vals)[:count]


def _permutation_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def characteristic_polynomials(ws: Workspace,
                               bc: BoundaryConditions) -> CharacteristicFunction:
    """Assemble the boundary matrix as polynomials in the spectral parameter."""
    n = ws.n
    if bc.n != n:
        raise ValueError(f"boundary conditions are {bc.n}-dimensional, "
                         f"operator order is {n}")
    terms = ws.truncation + 1
    first, last = 0, ws.mesh.n - 1
    poly = np.zeros((n, n, terms), dtype=complex)
    for k in range(1, n + 1):
        for ell in range(n):
            cl = series_coefficients_at_node(
                ws.table, ws.coeffs, ws.b0, k, ell, first)
            cr = series_coefficients_at_node(
                ws.table, ws.coeffs, ws.b0, k, ell, last)
            for i in range(n):
                a = bc.left[i, ell]
                c = bc.right[i, ell]
                if a != 0:
                    poly[i, k - 1] += a * cl
                if c != 0:
                    poly[i, k - 1] += c * cr
    return CharacteristicFunction(poly)


# ---------------------------------------------------------------------------
# eigenvalue regions and search options
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Search region: a real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)
                and self.lo < self.hi):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def extent(self) -> float:
        return self.hi - self.lo

    def worst_lambda(self) -> complex:
        return complex(self.lo if abs(self.lo) >= abs(self.hi) else self.hi)


@dataclass(frozen=True)
class Disk:
    """Search region: a disk in the complex plane."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0
                and np.isfinite(self.center.real)
                and np.isfinite(self.center.imag)):
            raise ValueError(f"bad disk center={self.center} "
                             f"radius={self.radius}")

    @property
    def extent(self) -> float:
        return self.radius

    def worst_lambda(self) -> complex:
        c = complex(self.center)
        if c == 0:
            return complex(self.radius)
        return c * (1.0 + self.radius / abs(c))


@dataclass(frozen=True)
class EigenOptions:
    """Knobs for the eigenvalue search.

    ``boundary_margin`` and ``persistence_tol`` default to scale-aware
    values when left as None. Candidates are accepted only if they survive a
    truncation bump of ``persistence_extra`` terms and if the reconstructed
    eigenfunction drives the equation residual below ``residual_tol``.
    """

    samples: int = 1001
    max_count: int | None = None
    residual_tol: float = 1e-4
    persistence_extra: int = 5
    persistence_tol: float | None = None
    boundary_margin: float | None = None
    imag_noise: float = 1e-10
    tail_error: float = 1e-6
    tail_warn: float = 1e-12

    def margin_for(self, region) -> float:
        if self.boundary_margin is not None:
            return self.boundary_margin
        return 1e-6 * max(1.0, region.extent)

    def persistence_for(self, lam: complex) -> float:
        if self.persistence_tol is not None:
            return self.persistence_tol
        return 1e-7 * max(1.0, abs(lam))


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

def _check_tail(ws: Workspace, region, options: EigenOptions) -> None:
    lam = region.worst_lambda()
    worst = max(tail_ratio(ws.table, k, lam) for k in range(1, ws.n + 1))
    if worst > options.tail_error:
        raise RegionTruncationError(
            f"series tail ratio {worst:.3e} at lam={lam} exceeds "
            f"{options.tail_error:.1e}; raise the truncation or shrink "
            "the search region")
    if worst > options.tail_warn:
        warnings.warn(
            f"series tail ratio {worst:.3e} at the region boundary; "
            "results there may be inaccurate", TruncationWarning,
            stacklevel=3)


def _bisect_roots(fn, lo, hi, flo, fhi) -> np.ndarray:
    """Bisect the brackets [lo[i], hi[i]] in lockstep, one ``fn`` call a step.

    ``fn`` maps an array of points to real values. Each bracket takes the
    steps of a standard scalar bisection: an endpoint value of 0 returns that
    endpoint; a midpoint equal to an endpoint, or with value 0, is returned;
    the sign test keeps the half with the sign change; the bracket closes at
    its midpoint once narrower than 1e-15 relative, or after 200 steps. Each
    bracket stops on its own and only open brackets are evaluated, so every
    root equals the one the scalar bisection gives.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=float) for a in (lo, hi, flo, fhi))
    root = np.where(flo == 0.0, lo, hi)
    active = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    for _ in range(200):
        mid = 0.5 * (lo[active] + hi[active])
        done = (mid == lo[active]) | (mid == hi[active])
        root[active[done]] = mid[done]
        active, mid = active[~done], mid[~done]
        if len(active) == 0:
            break
        fmid = fn(mid)
        done = fmid == 0.0
        root[active[done]] = mid[done]
        active, mid, fmid = active[~done], mid[~done], fmid[~done]
        left = (flo[active] < 0) != (fmid < 0)
        hi[active[left]], fhi[active[left]] = mid[left], fmid[left]
        lo[active[~left]], flo[active[~left]] = mid[~left], fmid[~left]
        a, b = lo[active], hi[active]
        done = b - a < 1e-15 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        root[active[done]] = 0.5 * (a[done] + b[done])
        active = active[~done]
    root[active] = 0.5 * (lo[active] + hi[active])
    return root


def _real_values(charfn: CharacteristicFunction, norm: complex):
    """Real part of the normalized determinant, as a function of an array."""

    def fn(x: np.ndarray) -> np.ndarray:
        return (charfn.det_samples(x) / norm).real

    return fn


def _real_det(charfn: CharacteristicFunction, imag_noise: float,
              grid: np.ndarray, norm: complex):
    """Samples of the normalized determinant, validated to be real.

    The basis solutions carry an arbitrary (possibly complex) constant change
    of basis from the seed recombination; dividing the determinant by the
    lam-independent determinant of the initial-value matrix removes it, so a
    problem with real data yields a genuinely real function on the line.
    """
    vals = charfn.det_samples(grid) / norm
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        raise ValueError(
            "characteristic determinant vanishes identically on the region; "
            "the boundary conditions do not constrain the problem")
    if np.max(np.abs(vals.imag)) > imag_noise * scale:
        raise ValueError(
            "characteristic determinant is not real on the interval; "
            "search a disk region instead")
    return vals.real


def _interval_candidates(charfn: CharacteristicFunction, region: Interval,
                         options: EigenOptions, norm: complex) -> np.ndarray:
    """Sorted roots of the real determinant on the interval, within its margin.

    The determinant is sampled on ``options.samples`` grid points; grid
    points where it is exactly 0 are roots, and every grid step across which
    it changes sign is a bracket. All brackets are bisected together.
    """
    margin = options.margin_for(region)
    lo, hi = region.lo + margin, region.hi - margin
    if lo >= hi:
        raise ValueError("interval is narrower than the boundary margin")
    grid = np.linspace(lo, hi, options.samples)
    f = _real_det(charfn, options.imag_noise, grid, norm)
    a, b = f[:-1], f[1:]
    i = np.flatnonzero((a != 0.0) & (b != 0.0) & ((a < 0) != (b < 0)))
    found = _bisect_roots(_real_values(charfn, norm),
                          grid[i], grid[i + 1], f[i], f[i + 1])
    return np.sort(np.concatenate([grid[f == 0.0], found]))


def _disk_candidates(charfn: CharacteristicFunction, region: Disk,
                     options: EigenOptions) -> list[complex]:
    margin = options.margin_for(region)
    # float: an integer scale would raise to powers in wrapping int64
    scale = max(1.0, float(abs(region.center) + region.radius))
    coeffs = charfn.det_polynomial()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = coeffs * scale ** np.arange(len(coeffs))
    if not np.all(np.isfinite(scaled)):
        raise RegionTruncationError(
            f"disk of radius {region.radius:g} about {region.center:g} is out "
            f"of reach at this truncation: the degree-{len(coeffs) - 1} "
            f"characteristic polynomial overflows when scaled to it")
    top = np.max(np.abs(scaled))
    if top == 0.0:
        raise ValueError(
            "characteristic determinant vanishes identically on the region; "
            "the boundary conditions do not constrain the problem")
    keep = len(scaled)
    while keep > 1 and abs(scaled[keep - 1]) <= COEFF_TRIM * top:
        keep -= 1
    trimmed = scaled[:keep]
    if keep == 1:
        return []
    mu = np.roots(trimmed[::-1])
    out = []
    for root in mu:
        lam = complex(root) * scale
        if abs(lam - region.center) <= region.radius - margin:
            out.append(lam)
    return out


def _nearest(roots: np.ndarray, lam: complex) -> complex | None:
    if len(roots) == 0:
        return None
    idx = int(np.argmin(np.abs(roots - lam)))
    return complex(roots[idx])


def find_eigenvalues(ws: Workspace, bc: BoundaryConditions, region,
                     options: EigenOptions | None = None) -> EigenResult:
    """Eigenvalues of L y = lam r y under the boundary conditions in a region.

    For an :class:`Interval` the real determinant is scanned for sign
    changes and all brackets are bisected together, one batched determinant
    evaluation per step; for a :class:`Disk` the determinant polynomial is
    solved directly. Every candidate is then (a) re-located with the series
    truncation raised by ``options.persistence_extra`` (the power table is
    extended, not rebuilt; on an interval every candidate's window is
    bisected in the same lockstep), and (b) checked by :func:`eigenfunction`
    at that truncation, whose full-mesh equation residual must stay below
    ``options.residual_tol``. Candidates failing either check are reported
    as rejected.

    Raises
    ------
    RegionTruncationError
        If the series tail at the far edge of the region is too large for
        any answer there to be trustworthy.
    """
    options = options or EigenOptions()
    if bc.n != ws.n:
        raise ValueError(f"boundary conditions are {bc.n}-dimensional, "
                         f"operator order is {ws.n}")
    _check_tail(ws, region, options)
    norm = complex(np.linalg.det(initial_matrix(ws.coeffs, ws.b0)))
    if norm == 0:
        raise TriangularDefectError(
            "initial-value matrix of the basis solutions is singular")
    charfn = characteristic_polynomials(ws, bc)
    fine = with_truncation(ws, ws.truncation + options.persistence_extra)
    charfn_fine = characteristic_polynomials(fine, bc)

    accepted: list[Eigenvalue] = []
    rejected: list[tuple[complex, str]] = []

    if isinstance(region, Interval):
        candidates = _interval_candidates(charfn, region, options, norm)
        window = np.array([options.persistence_for(lam) for lam in candidates])
        lo, hi = candidates - window, candidates + window
        fn = _real_values(charfn_fine, norm)
        flo, fhi = np.split(fn(np.concatenate([lo, hi])), 2)
        keep = (flo == 0.0) | (fhi == 0.0) | ((flo < 0) != (fhi < 0))
        rejected += [(complex(lam), "no root nearby at refined truncation")
                     for lam in candidates[~keep]]
        refined = [complex(lam) for lam in _bisect_roots(
            fn, lo[keep], hi[keep], flo[keep], fhi[keep])]
    elif isinstance(region, Disk):
        candidates = _disk_candidates(charfn, region, options)
        fine_roots = np.asarray(
            _disk_candidates(charfn_fine, region, options), dtype=complex)
        refined = []
        for lam in candidates:
            tol = options.persistence_for(lam)
            lam2 = _nearest(fine_roots, lam)
            if lam2 is None or abs(lam2 - lam) > tol:
                rejected.append((lam, "no root nearby at refined truncation"))
                continue
            if abs(lam2.imag) <= options.imag_noise * max(1.0, abs(lam2)):
                lam2 = complex(lam2.real, 0.0)
            refined.append(lam2)
    else:
        raise TypeError(f"unsupported region type {type(region).__name__}")

    # dedupe refined candidates (multiple brackets or conjugate collapse)
    unique: list[complex] = []
    for lam in sorted(refined, key=lambda z: (z.real, z.imag)):
        tol = options.persistence_for(lam)
        if unique and abs(lam - unique[-1]) <= 2 * tol:
            continue
        unique.append(lam)

    for lam in unique:
        y = eigenfunction(fine, charfn_fine, lam)
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
