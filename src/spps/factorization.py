"""Polya factorization of n-th order linear differential operators.

The operator L y = y^(n) + phi_1 y^(n-1) + ... + phi_n y, given n solutions
y_1..y_n of L y = 0 whose nested Wronskians W_1..W_n never vanish on the
interval, factors into first-order steps

    L = (1/b_n) D (1/b_{n-1}) D ... (1/b_1) D (1/b_0),   D = d/dx,

with b_0 = W_1, b_j = W_{j-1} W_{j+1} / W_j^2 for 0 < j < n, and
b_n = W_{n-1}/W_n. This module computes the Wronskians and factors, applies
operators in both coefficient and factorized form, measures residuals, and
constructs seed solution systems for arbitrary coefficients by an inductive
randomized procedure.
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
    centered_margin,
    cumulative_integral,
    differentiate,
    ladder_strides,
    ones,
)

#: Default relative floor below which a Wronskian counts as vanishing.
WRONSKIAN_FLOOR = 1e-6

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
        if self.n < 2:
            raise ValueError(f"operator order must be >= 2, got {self.n}")
        if len(self.phi) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(self.phi)}")
        mesh = self.r.mesh
        for f in self.phi:
            if f.mesh != mesh:
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

    @property
    def y(self) -> tuple[SampledFunction, ...]:
        return tuple(SampledFunction(self.op.mesh, v) for v in self.derivs[:, 0])

    @classmethod
    def from_functions(cls, op: OperatorSpec, funcs: Sequence[SampledFunction],
                       wronskian_floor: float = WRONSKIAN_FLOOR,
                       residual_tol: float = RESIDUAL_TOL) -> "SolutionSystem":
        """Wrap explicitly given solutions, tabulating derivatives by finite
        differences, and verify their residuals and Wronskian floors.

        The residual check differentiates n times, so its roundoff floor
        grows like eps / h^n; the default tolerance is calibrated for
        n <= 4 on meshes of a few hundred nodes — pass a larger
        ``residual_tol`` for higher orders.
        """
        if len(funcs) != op.n:
            raise ValueError(f"need {op.n} solutions, got {len(funcs)}")
        res = max(operator_residual(op, f) for f in funcs)
        if not res <= residual_tol:
            raise ResidualVerificationError(
                f"seed function residual {res:.3e} exceeds {residual_tol:.1e}",
                residual=res)
        derivs = np.array([[f.values] + [differentiate(f, ell).values
                                         for ell in range(1, op.n)] for f in funcs])
        report = check_nonvanishing(_nested_wronskians(op.mesh, derivs)[1:],
                                    wronskian_floor)
        if not report.passed:
            raise _floor_error(report)
        return cls(op, derivs, wronskian_min=report.min_relative, residual_max=res)


# -- nonvanishing reports -----------------------------------------------------

@dataclass(frozen=True)
class NonvanishingEntry:
    min_modulus: float
    max_modulus: float
    relative: float
    node: int
    x: float
    passed: bool


@dataclass(frozen=True)
class NonvanishingReport:
    entries: tuple[NonvanishingEntry, ...]
    floor: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def worst(self) -> int:
        return min(range(len(self.entries)), key=lambda i: self.entries[i].relative)

    @property
    def min_relative(self) -> float:
        return self.entries[self.worst].relative


def check_nonvanishing(fs: Sequence[SampledFunction],
                       floor: float = WRONSKIAN_FLOOR) -> NonvanishingReport:
    """Report min/max moduli of each function against a relative floor.

    The minimum runs over the chords between neighbouring nodes, so a sign
    change between two nodes counts. A function passes when its minimum
    modulus exceeds ``floor`` times its maximum; the report names the node
    nearer the minimum.
    """
    entries = []
    for f in fs:
        a, d = f.values[:-1], np.diff(f.values)
        mags, step = np.abs(f.values), np.abs(d)
        u = np.divide(d, step, out=np.zeros_like(d), where=step > 0)
        # distance along the chord a -> a + d to its point nearest 0
        s = np.clip(-(a.conj() * u).real, 0.0, step)
        low = np.where(s < step, np.abs(a + s * u), mags[1:])
        k = int(np.argmin(low))
        i = k + int(s[k] > step[k] / 2)
        lo, hi = float(low[k]), float(np.max(mags))
        rel = lo / hi if hi > 0 else 0.0
        entries.append(NonvanishingEntry(
            lo, hi, rel, i, float(f.mesh.nodes[i]), rel > floor))
    return NonvanishingReport(tuple(entries), floor)


def _floor_error(report: NonvanishingReport) -> WronskianFloorError:
    """The error for a failed report, naming its worst Wronskian and node."""
    j = report.worst
    e = report.entries[j]
    return WronskianFloorError(
        f"W_{j + 1} has relative min modulus {e.relative:.3e} below the "
        f"{report.floor:.1e} floor at node {e.node} (x={e.x:.6g})",
        index=j + 1, node=e.node, x=e.x)


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


@dataclass(frozen=True)
class PolyaFactorization:
    """Factor functions b_0..b_n of the operator."""

    b: tuple[SampledFunction, ...]

    @property
    def n(self) -> int:
        return len(self.b) - 1

    @property
    def mesh(self) -> Mesh:
        return self.b[0].mesh


def polya_factors(W: Sequence[SampledFunction],
                  floor: float = WRONSKIAN_FLOOR) -> PolyaFactorization:
    """Factor functions from nested Wronskians [W_0..W_n].

    Raises
    ------
    WronskianFloorError
        If some W_j (j >= 1) dips below ``floor`` relative to its max
        modulus; the error names j and the offending node.
    """
    n = len(W) - 1
    if n < 2:
        raise ValueError("need Wronskians W_0..W_n with n >= 2")
    report = check_nonvanishing(W[1:], floor)
    if not report.passed:
        raise _floor_error(report)
    b = [W[1]]
    for j in range(1, n):
        b.append(W[j - 1] * W[j + 1] / W[j] / W[j])
    b.append(W[n - 1] / W[n])
    return PolyaFactorization(tuple(b))


# -- operator application -----------------------------------------------------

def apply_coefficients(op: OperatorSpec, y: SampledFunction) -> SampledFunction:
    """L y via finite differences of y against the coefficient list."""
    out = differentiate(y, op.n)
    for j in range(1, op.n):
        out = out + op.phi[j - 1] * differentiate(y, op.n - j)
    return out + op.phi[op.n - 1] * y


def apply_factorized(fac: PolyaFactorization, y: SampledFunction) -> SampledFunction:
    """L y via the nested first-order factors (divide, differentiate, repeat)."""
    u = SampledFunction(y.mesh, y.values / fac.b[0].values)
    for j in range(1, fac.n + 1):
        u = differentiate(u, 1)
        u = SampledFunction(u.mesh, u.values / fac.b[j].values)
    return u


def polya_system(fac: PolyaFactorization) -> list[SampledFunction]:
    """The n solutions b_0, b_0*I(b_1), b_0*I(b_1 I(b_2)), ... of L y = 0,
    where I g denotes the cumulative integral of g from the basepoint."""
    out = [fac.b[0]]
    for k in range(1, fac.n):
        g = ones(fac.mesh)
        for j in range(k, 0, -1):
            g = cumulative_integral(fac.b[j] * g)
        out.append(fac.b[0] * g)
    return out


# -- residual measurement -----------------------------------------------------

def operator_residual(op: OperatorSpec, y: SampledFunction,
                      lam: complex = 0.0,
                      strides: Sequence[int] | None = None) -> float:
    """Relative residual max|L y - lambda r y| / max|y|, the minimum over
    a ladder of strides (default ``ladder_strides``).

    High-order finite differences sit on a roundoff floor (weights scale
    like 1/h^n): fine strides certify oscillatory solutions, coarse ones
    smooth ones. Stride s keeps every s-th node; its sup runs over the nodes
    at least ``centered_margin(n)`` from either end, with centered stencils
    only (the integrator-oracle tests cover the boundary). A stride is
    used only if it divides the segment count, keeps the basepoint node, and
    leaves a node count 1 (mod 4) larger than the order-n stencil (s <= 1 is
    the full mesh): inf if none is left, 0.0 if y = 0.
    """
    mesh, n = y.mesh, op.n
    if strides is None:
        strides = ladder_strides(mesh)
    margin = centered_margin(n)
    scale_y = y.max_abs()
    if scale_y == 0.0:
        return 0.0
    if op.mesh != mesh:
        raise MeshMismatchError(f"operator on {op.mesh}, function on {mesh}")
    best = math.inf
    for s in strides:
        s = int(s) if s > 1 else 1
        count = (mesh.n - 1) // s + 1
        if ((mesh.n - 1) % s or mesh.i0 % s or (count - 1) % 4
                or count <= 2 * margin):
            continue
        h = (mesh.x2 - mesh.x1) / (count - 1)
        inner = slice(margin, count - margin)
        v = np.ascontiguousarray(y.values[::s])
        # apply_coefficients' operations and order: values round as there
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
        c = np.eye(m, dtype=np.complex128)
        if m > 1:
            low = _annulus(rng, (m, m))
            c += np.tril(low, k=-1)
        return c
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
                                  rng: np.random.Generator, floor: float,
                                  max_retries: int, stage: str):
    """Draw recombinations of ``rows`` until all nested Wronskians clear
    ``floor``.

    Returns the accepted rows, their Wronskians [W_0..W_m], the
    nonvanishing report and the number of draws beyond the first.
    """
    m = len(rows)
    best = -math.inf
    for attempt in range(max_retries + 1):
        trial = _recombine(rows, _combination_matrix(rng, m, attempt))
        W = _nested_wronskians(mesh, trial)
        report = check_nonvanishing(W[1:], floor)
        if report.passed:
            return trial, W, report, attempt
        best = max(best, report.min_relative)
    raise SeedConstructionError(
        f"order-{m} {stage} recombination exhausted {max_retries} retries",
        best_wronskian_min=best)


def build_seed_system(op: OperatorSpec,
                      rng_seed: int = 0,
                      max_retries: int = 25,
                      truncation: int = 30,
                      wronskian_floor: float = WRONSKIAN_FLOOR,
                      residual_tol: float = RESIDUAL_TOL) -> SolutionSystem:
    """Construct a verified solution system of L y = 0 for arbitrary smooth
    coefficients by induction on the order.

    Order 1 is solved in closed form (y = exp of minus the integral of the
    coefficient). Given solutions z_1..z_{m-1} of the order-(m-1) problem
    built from phi_1..phi_{m-1}, the family {1, int z_1, ..., int z_{m-1}}
    solves the order-m operator with no zeroth-order term; random complex
    recombinations of it (coefficients from the annulus 0.5 <= |c| <= 1) are
    drawn until all nested Wronskians clear the floor, the resulting operator
    is factorized, and the power-series machinery with weight phi_m evaluated
    at spectral parameter -1 produces solutions of the full order-m equation,
    which are recombined once more until their Wronskians pass. The
    derivative triangle of each factorization comes from the accepted
    family's rows (:func:`~spps.powers.compute_A`), so derivative tables
    propagate analytically through every level, with no finite difference
    anywhere. The series at -1 converges fast: its table starts at 8 terms
    and grows by 8 while some tail ratio there exceeds STOP_TOL (1e-17), up
    to ``truncation``; ``truncations`` records where it stopped, and the
    sums of that last test are the solutions.

    The retry budget applies per recombination stage; ``retries`` on the
    result counts all draws beyond first attempts. Deterministic for a fixed
    ``rng_seed``.

    Raises
    ------
    SeedConstructionError
        When a recombination stage exhausts ``max_retries`` (reports the best
        relative Wronskian minimum achieved).
    RegionTruncationError
        When a series tail at -1 is still above ``spps.powers``' TAIL_ERROR
        at ``truncation``: raise the truncation.
    ResidualVerificationError
        When the final system fails its operator-residual verification.
    """
    from .powers import (STOP_TOL, _check_ratio, _grow_powers, _rows,
                         _solution_sum, compute_A, formal_powers)

    mesh = op.mesh
    n = op.n
    rng = np.random.default_rng(rng_seed)
    retries = 0
    truncations = []

    # order-1 base: z' + phi_1 z = 0
    level = np.exp(-cumulative_integral(op.phi[0]).values)[None, None]
    _check_finite(mesh, level)

    for m in range(2, n + 1):
        # family {1, int z_j}: derivative ell >= 1 of int z_j is z_j^(ell-1)
        family = np.zeros((m, m, mesh.n), dtype=np.complex128)
        family[0, 0] = 1.0
        family[1:, 0] = [_antiderivative(z, mesh.h, mesh.i0) for z in level[:, 0]]
        family[1:, 1:] = level

        # stage A: recombine until the homogeneous-part factorization exists
        rows, W, _, attempt = _recombine_until_nonvanishing(
            mesh, family, rng, wronskian_floor, max_retries, "family")
        retries += attempt
        fac = polya_factors(W, wronskian_floor)
        table = formal_powers(fac, op.phi[m - 1], min(8, truncation))
        coeffs = compute_A(rows, table)
        while True:  # the sums at -1 that pass the stop test are kept
            sums = [_solution_sum(table, k, -1.0) for k in range(1, m + 1)]
            if table.truncation >= truncation or max(
                    ratio for _, ratio in sums) <= STOP_TOL:
                break
            table = _grow_powers(fac, table.weight, table.x, table.norms,
                                 min(table.truncation + 8, truncation))
        truncations.append(table.truncation)

        # solutions of the full order-m equation at spectral parameter -1,
        # each derivative from the shifted series S_{k,alpha}, each summed once
        sols = np.empty((m, m, mesh.n), dtype=np.complex128)
        for k, (s, ratio) in enumerate(sums, start=1):
            _check_ratio(ratio, k, -1.0)
            shifted = [_solution_sum(table, k, -1.0, alpha)[0]
                       for alpha in range(1, m)]
            sols[k - 1] = _rows(coeffs, [s] + shifted)
            _check_finite(mesh, sols[k - 1])

        # stage B: recombine the new solutions until their Wronskians pass
        level, _, report, attempt = _recombine_until_nonvanishing(
            mesh, sols, rng, wronskian_floor, max_retries, "solution")
        retries += attempt

    # final verification against the full operator
    res = max(operator_residual(op, SampledFunction(mesh, y)) for y in level[:, 0])
    if not res <= residual_tol:
        raise ResidualVerificationError(
            f"constructed system residual {res:.3e} exceeds {residual_tol:.1e}",
            residual=res)
    return SolutionSystem(op, level,
                          retries=retries, wronskian_min=report.min_relative,
                          residual_max=res, truncations=tuple(truncations))
