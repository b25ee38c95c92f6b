"""Polya factorization of n-th order linear differential operators.

The operator L y = y^(n) + phi_1 y^(n-1) + ... + phi_n y, given n solutions
y_1..y_n of L y = 0 whose nested Wronskians W_1..W_n never vanish on the
interval, factors into first-order steps

    L = (1/b_n) D (1/b_{n-1}) D ... (1/b_1) D (1/b_0),   D = d/dx,

with b_0 = W_1, b_j = W_{j-1} W_{j+1} / W_j^2 for 0 < j < n, and
b_n = W_{n-1}/W_n. This module computes the Wronskians and factors, measures
operator residuals, and constructs seed solution systems for arbitrary
coefficients by an inductive randomized procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    MeshMismatchError,
    ResidualVerificationError,
    SeedConstructionError,
    WronskianFloorError,
)
from .mesh import (
    Mesh,
    SampledFunction,
    _antiderivative,
    _centred_sums,
    _check_finite,
    _is_int,
    _reduce,
    centered_margin,
    cumulative_integral,
    differentiate,
    ladder_strides,
    ones,
)

#: Relative floor below which a Wronskian counts as vanishing.
WRONSKIAN_FLOOR = 1e-6

#: Recombinations drawn per seed order beyond the first before giving up.
MAX_RETRIES = 25

#: Default relative operator-residual tolerance for verified solution systems.
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class OperatorSpec:
    """Monic operator y^(n) + phi[0] y^(n-1) + ... + phi[n-1] y with weight r.

    ``phi`` holds phi_1..phi_n in that order (the leading coefficient is
    identically one and never stored). ``r`` is the spectral weight on the
    right-hand side L y = lambda r y.
    """

    n: int
    phi: tuple[SampledFunction, ...]
    r: SampledFunction

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 2):
            raise ValueError(f"operator order must be an integer >= 2, got {self.n!r}")
        if len(self.phi) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(self.phi)}")
        if any(f.mesh != self.r.mesh for f in self.phi):
            raise ValueError("all coefficients must share one mesh")
        object.__setattr__(self, "phi", tuple(self.phi))

    @property
    def mesh(self) -> Mesh:
        return self.r.mesh


@dataclass(frozen=True)
class SolutionSystem:
    """n solutions of L y = 0 with tabulated derivatives through order n-1.

    ``derivs[k, ell]`` is the ell-th derivative of solution k + 1, one
    read-only complex array of shape (n, n, mesh.n) taken from any finite
    array-like of that shape. ``truncations`` lists the seed builder's
    series truncation per order 2..n (empty if given).
    """

    op: OperatorSpec
    derivs: np.ndarray
    retries: int = 0
    wronskian_min: float = float("nan")
    residual_max: float = float("nan")
    truncations: tuple[int, ...] = ()

    def __post_init__(self):
        n, mesh = self.op.n, self.op.mesh
        derivs = np.array(self.derivs, dtype=np.complex128)
        if derivs.shape != (n, n, mesh.n):
            raise ValueError(f"need {n} solutions with derivatives through order "
                             f"{n - 1} on {mesh.n} nodes, got shape {derivs.shape}")
        _check_finite(mesh, derivs)
        derivs.setflags(write=False)
        object.__setattr__(self, "derivs", derivs)

    __reduce__ = _reduce

    @classmethod
    def from_functions(cls, op: OperatorSpec, funcs: Sequence[SampledFunction],
                       residual_tol: float = RESIDUAL_TOL) -> "SolutionSystem":
        """Wrap explicitly given solutions, tabulating derivatives by finite
        differences, and verify their residuals and Wronskian floors.

        The residual check differentiates n times, so its roundoff floor
        grows like eps / h^n; the default tolerance is calibrated for
        n <= 4 on meshes of a few hundred nodes — pass a larger
        ``residual_tol`` for higher orders.
        """
        if len(funcs) != op.n or any(f.mesh != op.mesh for f in funcs):
            raise ValueError(f"need {op.n} solutions on {op.mesh}, got "
                             f"{len(funcs)} on {[f.mesh for f in funcs]}")
        derivs = np.array([[f.values] + [differentiate(f, ell).values
                                         for ell in range(1, op.n)] for f in funcs])
        return _accepted(op, derivs, _nested_wronskians(op.mesh, derivs),
                         residual_tol)


# -- nonvanishing checks ------------------------------------------------------

def _relative_minima(fs: Sequence[SampledFunction]) -> list[tuple[float, int]]:
    """Each function's minimum modulus relative to its maximum, and the node
    nearer that minimum.

    The minimum runs over the chords between neighbouring nodes, so a sign
    change between two nodes counts.
    """
    out = []
    for f in fs:
        a, d = f.values[:-1], np.diff(f.values)
        mags, step = np.abs(f.values), np.abs(d)
        u = np.divide(d, step, out=np.zeros_like(d), where=step > 0)
        # distance along the chord a -> a + d to its point nearest 0
        s = np.clip(-(a.conj() * u).real, 0.0, step)
        low = np.where(s < step, np.abs(a + s * u), mags[1:])
        k = int(np.argmin(low))
        lo, hi = float(low[k]), float(np.max(mags))
        out.append((lo / hi if hi > 0 else 0.0, k + int(s[k] > step[k] / 2)))
    return out


def _floor_report(W: Sequence[SampledFunction]) -> float:
    """The least relative minimum of W_1..W_n; WronskianFloorError naming
    the worst Wronskian and its node unless it exceeds WRONSKIAN_FLOOR."""
    minima = _relative_minima(W[1:])
    j = min(range(len(minima)), key=lambda i: minima[i][0])
    rel, node = minima[j]
    if not rel > WRONSKIAN_FLOOR:
        x = float(W[1].mesh.nodes[node])
        raise WronskianFloorError(
            f"W_{j + 1} has relative min modulus {rel:.3e} below the "
            f"{WRONSKIAN_FLOOR:.1e} floor at node {node} (x={x:.6g})",
            index=j + 1, node=node, x=x)
    return rel


# -- Wronskians and factors ---------------------------------------------------

def _nested_wronskians(mesh: Mesh, rows: np.ndarray) -> list[SampledFunction]:
    """Nested Wronskians [W_0, W_1, ..., W_m] of m derivative rows.

    ``rows[k, ell]`` is the ell-th derivative of solution k + 1. W_0 = 1 and
    W_1 is the first solution itself; W_j for j >= 2 is the determinant of
    the j x j matrix [ell, k] of derivatives of the first j solutions,
    evaluated nodewise (LU with partial pivoting under the hood).
    """
    out = [ones(mesh), SampledFunction(mesh, rows[0, 0])]
    for j in range(2, len(rows) + 1):  # matrices [node, ell, k]
        out.append(SampledFunction(mesh, np.linalg.det(rows[:j, :j].T)))
    return out


def wronskians(sys: SolutionSystem) -> list[SampledFunction]:
    """Nested Wronskians [W_0, W_1, ..., W_n] of a solution system, W_0 = 1."""
    return _nested_wronskians(sys.op.mesh, sys.derivs)


def polya_factors(W: Sequence[SampledFunction]) -> tuple[SampledFunction, ...]:
    """Factor functions (b_0, ..., b_n) from nested Wronskians [W_0..W_n].

    Raises
    ------
    WronskianFloorError
        If some W_j (j >= 1) dips below ``WRONSKIAN_FLOOR`` relative to its
        max modulus; the error names j and the offending node.
    MeshMismatchError
        If the Wronskians live on different meshes.
    """
    n = len(W) - 1
    if n < 2:
        raise ValueError("need Wronskians W_0..W_n with n >= 2")
    mesh = W[1].mesh
    bad = [j for j, w in enumerate(W) if w.mesh != mesh]
    if bad:
        raise MeshMismatchError(f"W_{bad[0]} on {W[bad[0]].mesh}, W_1 on {mesh}")
    _floor_report(W)  # no W_j divided below has a zero
    b = [W[1]]
    for j in range(1, n):  # W_{j-1} W_{j+1} (1/W_j) (1/W_j): the order fixes the rounding
        inv = 1.0 / W[j].values
        b.append(SampledFunction(mesh, W[j - 1].values * W[j + 1].values * inv * inv))
    b.append(SampledFunction(mesh, W[n - 1].values * (1.0 / W[n].values)))
    return tuple(b)


# -- residual measurement -----------------------------------------------------

def operator_residual(op: OperatorSpec, y: SampledFunction,
                      lam: complex = 0.0) -> float:
    """Relative residual max|L y - lambda r y| / max|y|, the minimum over
    the ladder of strides ``ladder_strides(mesh)``.

    High-order finite differences sit on a roundoff floor (weights scale
    like 1/h^n): fine strides certify oscillatory solutions, coarse ones
    smooth ones. Stride s keeps every s-th node; its sup runs over the nodes
    at least ``centered_margin(n)`` from either end, with centered stencils
    only (the integrator-oracle tests cover the boundary). A stride is
    used only if it leaves more nodes than the order-n stencil: inf if none
    is left, 0.0 if y = 0.
    """
    mesh, n = y.mesh, op.n
    margin = centered_margin(n)
    scale_y = y.max_abs()
    if scale_y == 0.0:
        return 0.0
    if op.mesh != mesh:
        raise MeshMismatchError(f"operator on {op.mesh}, function on {mesh}")
    best = math.inf
    for s in ladder_strides(mesh):
        count = (mesh.n - 1) // s + 1
        if count <= 2 * margin:
            continue
        h = (mesh.x2 - mesh.x1) / (count - 1)
        inner = slice(margin, count - margin)
        v = np.ascontiguousarray(y.values[::s])
        # tests/oracles.py apply_coefficients' operations and order: values
        # round as there, and the ladder test compares the two with ==
        res = _centred_sums(v, n, margin, count - margin) / h ** n
        for j, f in enumerate(op.phi[:-1], start=1):
            d = _centred_sums(v, n - j, margin, count - margin) / h ** (n - j)
            res += np.ascontiguousarray(f.values[::s][inner]) * d
        res += np.ascontiguousarray(op.phi[-1].values[::s][inner]) * v[inner]
        if lam != 0:
            res -= np.ascontiguousarray(op.r.values[::s][inner]) * v[inner] * lam
        best = min(best, float(np.max(np.abs(res))) / scale_y)
    return best


# -- seed system construction -------------------------------------------------

def _annulus(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex samples uniform on the annulus 0.5 <= |c| <= 1."""
    radius = np.sqrt(rng.uniform(0.25, 1.0, size=shape))
    phase = rng.uniform(0.0, 2 * np.pi, size=shape)
    return radius * np.exp(1j * phase)


def _combination_matrix(rng: np.random.Generator, m: int, attempt: int) -> np.ndarray:
    """Identity plus random strictly-lower part first, fully random afterwards."""
    if attempt == 0:
        return np.eye(m, dtype=np.complex128) + np.tril(_annulus(rng, (m, m)), k=-1)
    while True:
        c = _annulus(rng, (m, m))
        if abs(np.linalg.det(c)) > 1e-6:
            return c


def _recombine(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows of the solutions sum_j c[i, j] y_{j+1}, summed over ascending j."""
    out = np.zeros(rows.shape, dtype=np.complex128)
    for j in range(len(rows)):
        out += c[:, j, None, None] * rows[j]
    return out


def _recombine_until_nonvanishing(mesh: Mesh, rows: np.ndarray,
                                  rng: np.random.Generator):
    """Draw recombinations of ``rows`` until all nested Wronskians clear the
    floor; the accepted rows, their Wronskians, the least relative minimum
    of W_1..W_m and the draws beyond the first."""
    m = len(rows)
    best = -math.inf
    for attempt in range(MAX_RETRIES + 1):
        trial = _recombine(rows, _combination_matrix(rng, m, attempt))
        W = _nested_wronskians(mesh, trial)
        worst = min(rel for rel, _ in _relative_minima(W[1:]))
        if worst > WRONSKIAN_FLOOR:
            return trial, W, worst, attempt
        best = max(best, worst)
    raise SeedConstructionError(
        f"order-{m} recombination exhausted {MAX_RETRIES} retries",
        best_wronskian_min=best)


def _accepted(op: OperatorSpec, derivs: np.ndarray, W: Sequence[SampledFunction],
              tol: float, wmin: float | None = None, **fields) -> SolutionSystem:
    """The solution system of the rows ``derivs`` with nested Wronskians
    ``W``, once each solution's ladder residual is at most ``tol`` and ``W``
    clears the floor; explicit and generated seeds both end here. ``wmin``
    is W's least relative minimum where the caller measured it against the
    floor already."""
    res = max(operator_residual(op, SampledFunction(op.mesh, y)) for y in derivs[:, 0])
    if not res <= tol:
        raise ResidualVerificationError(
            f"seed residual {res:.3e} exceeds {tol:.1e}", residual=res)
    if wmin is None:
        wmin = _floor_report(W)
    return SolutionSystem(op, derivs, wronskian_min=wmin, residual_max=res, **fields)


def build_seed_system(op: OperatorSpec,
                      rng_seed: int = 0,
                      residual_tol: float = RESIDUAL_TOL, *,
                      _wronskians: list | None = None) -> SolutionSystem:
    """Construct a verified solution system of L y = 0 for arbitrary smooth
    coefficients by induction on the order.

    Order 1 is solved in closed form (y = exp of minus the integral of the
    coefficient). Given solutions z_1..z_{m-1} of the order-(m-1) problem
    built from phi_1..phi_{m-1}, the family {1, int z_1, ..., int z_{m-1}}
    solves the order-m operator with no zeroth-order term. Its nested
    Wronskians are 1 and those of the z's, which cleared the floor one order
    below: it is factorized from these, with no determinant formed. The
    power-series machinery with weight phi_m at spectral parameter -1 then
    gives solutions of the full order-m equation, and random complex
    recombinations of them (coefficients from the annulus 0.5 <= |c| <= 1)
    are drawn until all their nested Wronskians clear WRONSKIAN_FLOOR. Each
    accepted draw's Wronskians are formed once. The derivative triangle of
    each factorization comes from the family's rows
    (:func:`~spps.powers.compute_A`), so derivative tables propagate
    analytically through every level, with no finite difference anywhere.
    The series at -1 converges fast: its table is filled in place, level
    by level, in a block of 16 levels that doubles only when they do not
    suffice, and its tail ratios there are tested after every level until
    all are at most STOP_TOL (1e-17); this ends by level ceil(180 / m),
    where 1/(t m + k - 1)! underflows to 0, unless a power overflows
    first. A test forms the sums only where the last terms' norm bounds
    let it pass (:func:`~spps.powers._tail_sums`). ``truncations`` records
    where it stopped, and the sums of that last test are the solutions,
    unless their terms cancel past the rule of the series gate (eps times
    the cancellation factor above TAIL_ERROR). The result passes the
    residual and floor check of :meth:`SolutionSystem.from_functions`;
    the floor is read from the draw the recombination accepted, whose
    Wronskians a list given as ``_wronskians`` receives, so that
    :func:`~spps.spectral.build_workspace` forms none again.

    ``retries`` counts the draws beyond the first, at most ``MAX_RETRIES``
    (25) per order. Deterministic for a fixed ``rng_seed``.

    Raises
    ------
    WronskianFloorError
        When W_2 = exp(-int phi_1) dips below the floor, which no
        recombination can lift (W_m scales by det c).
    SeedConstructionError
        When an order's draws exhaust ``MAX_RETRIES`` (reports the best
        relative Wronskian minimum achieved), or an order's series at -1
        cancels (names its cancellation factor).
    VanishingValueError
        When a formal power overflows before the series at -1 stops.
    ResidualVerificationError
        When the final system fails its operator-residual verification.
    """
    from .powers import (_EPS, STOP_TOL, TAIL_ERROR, _cancels, _series_sums,
                         _tail_sums, compute_A, formal_powers)

    mesh, n = op.mesh, op.n
    rng = np.random.default_rng(rng_seed)
    retries = 0
    truncations = []

    # order-1 base: z' + phi_1 z = 0, with nested Wronskians [1, z_1]
    level = np.exp(-cumulative_integral(op.phi[0]).values)[None, None]
    _check_finite(mesh, level)
    W = [ones(mesh), SampledFunction(mesh, level[0, 0])]

    for m in range(2, n + 1):
        # family {1, int z_j}: derivative ell >= 1 of int z_j is z_j^(ell-1)
        family = np.zeros((m, m, mesh.n), dtype=np.complex128)
        family[0, 0] = 1.0
        family[1:, 0] = [_antiderivative(z, mesh.h, mesh.i0) for z in level[:, 0]]
        family[1:, 1:] = level

        # stage A: the family's Wronskians are [1] + the order below's, so
        # only order 2's W_2 = z_1 is new; the identity-plus-lower draw
        # leaves them as they are and only changes the rows' rounding
        rows = _recombine(family, _combination_matrix(rng, m, 0))
        b = polya_factors([ones(mesh)] + W)
        tested = None  # the level and sums at -1 of the last test that formed them

        def settled(table) -> bool:  # tested after every level
            nonlocal tested
            out = _tail_sums(table, -1.0)
            if out is None:
                return False
            tested = table.truncation, out
            return all(ratio <= STOP_TOL for ratio in out[1])

        # at truncation t >= 180 / m, 1 / (t m + k - 1)! is 0 for every k,
        # and so is every tail ratio
        table = formal_powers(b, op.phi[m - 1], math.ceil(180 / m), _done=settled)
        if tested is None or tested[0] != table.truncation:
            tested = table.truncation, _series_sums(table, -1.0)
        sums, _, factors, _ = tested[1]
        factor = max(factors)
        if _cancels(factor):  # the rule of powers._gate
            raise SeedConstructionError(
                f"order-{m} seed series at -1 cancels: its terms' bounds add "
                f"up to {factor:.3e} times its max modulus, so rounding may "
                f"reach {factor * _EPS:.1e} of it, above {TAIL_ERROR:.1e}")
        coeffs = compute_A(rows, table)
        truncations.append(table.truncation)

        # solutions of the full order-m equation at spectral parameter -1:
        # u_k^(ell) = sum_{alpha <= ell} A[ell, alpha] S_{k,alpha} in the
        # operations of powers._rows, each shift summed once for all k and
        # added as it comes, so no two shifts are held at once
        sols = coeffs[:m, 0] * sums[:, None]
        for alpha in range(1, m):
            shifted = _series_sums(table, -1.0, alpha)[0]
            for k in range(m):
                sols[k, alpha:] += coeffs[alpha:m, alpha] * shifted[k]
        _check_finite(mesh, sols)

        # stage B: recombine the new solutions until their Wronskians pass
        level, W, wmin, attempt = _recombine_until_nonvanishing(mesh, sols, rng)
        retries += attempt

    if _wronskians is not None:
        _wronskians[:] = W
    return _accepted(op, level, W, residual_tol, wmin, retries=retries,
                     truncations=tuple(truncations))
