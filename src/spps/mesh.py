"""Uniform meshes and complex-valued functions tabulated on them.

This is the numerical substrate for the whole package: cumulative quadrature
anchored at a basepoint, finite-difference differentiation of arbitrary order,
pointwise algebra, and CSV/JSON emission.

Everything here is pure: meshes and sampled functions are immutable after
construction (the value arrays are write-protected; copies and unpickled
objects are rebuilt through the constructor), so they can be shared freely
between threads, and every operation returns a new object.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import MeshMismatchError, StencilError, VanishingValueError

#: Polynomial exactness degree of the cumulative quadrature rule.
QUADRATURE_DEGREE = 8

_QUAD_WINDOW = QUADRATURE_DEGREE + 1

#: Finite differences are at least this accurate in h.
FD_ACCURACY = 4

#: :func:`reciprocal` refuses moduli at most this fraction of the largest.
_RECIPROCAL_FLOOR = 1e-14


def _reduce(obj):
    """``__reduce__`` of a record: copies and unpickled records are rebuilt
    through the constructor, which checks them and write-protects arrays."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj) if f.init)


def _is_int(value) -> bool:  # a bool is no integer here
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Mesh:
    """A uniform grid on [x1, x2] with a distinguished basepoint node.

    Parameters
    ----------
    x1, x2 : float
        Interval endpoints, x1 < x2.
    n : int
        Node count, at least 9 and congruent to 1 modulo 4, so the grid
        splits into whole quadrature panels.
    i0 : int, optional
        Basepoint node index. Defaults to the middle node. The basepoint
        x0 = nodes[i0] is where cumulative integrals vanish and where
        initial data is imposed.
    """

    x1: float
    x2: float
    n: int
    i0: int | None = None
    h: float = field(init=False, compare=False, repr=False)
    nodes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"node count must be an integer, got {self.n!r}")
        x1, x2, n = float(self.x1), float(self.x2), int(self.n)
        if not (x1 < x2):
            raise ValueError(f"need x1 < x2, got [{x1}, {x2}]")
        if n < 9:
            raise ValueError(f"mesh needs at least 9 nodes, got {n}")
        if (n - 1) % 4 != 0:
            raise ValueError(f"node count must be 1 (mod 4), got {n}")
        i0 = (n - 1) // 2 if self.i0 is None else self.i0
        if not (_is_int(i0) and 0 <= i0 <= n - 1):
            raise ValueError(f"basepoint index {i0!r} outside 0..{n - 1}")
        h = (x2 - x1) / (n - 1)
        if not np.isfinite(h):  # also where x1 or x2 is not finite
            raise ValueError(f"need finite x1, x2 and spacing, got [{x1}, {x2}]")
        nodes = np.linspace(x1, x2, n).copy()  # owns its memory, unlike a view
        nodes.setflags(write=False)
        for name, value in (("x1", x1), ("x2", x2), ("n", n), ("i0", int(i0)),
                            ("h", h), ("nodes", nodes)):
            object.__setattr__(self, name, value)

    __reduce__ = _reduce

    @property
    def x0(self) -> float:
        """Basepoint coordinate (an exact mesh node)."""
        return float(self.nodes[self.i0])

    @classmethod
    def with_basepoint(cls, x1: float, x2: float, n: int, x0: float) -> "Mesh":
        """Build a mesh whose basepoint is the node nearest to ``x0``."""
        mesh, x0 = cls(x1, x2, n), float(x0)
        if not np.isfinite(x0):
            raise ValueError(f"need a finite basepoint, got {x0}")
        t = (x0 - mesh.x1) / mesh.h  # clipped before rounding: may overflow
        return replace(mesh, i0=int(round(min(max(t, 0.0), mesh.n - 1))))

    def decimate(self, stride: int) -> "Mesh":
        """Coarsened copy keeping every ``stride``-th node (basepoint preserved)."""
        if not _is_int(stride) or stride < 1 or (self.n - 1) % stride != 0:
            raise ValueError(f"stride {stride!r} does not divide {self.n - 1} segments")
        if self.i0 % stride != 0:
            raise ValueError(f"stride {stride} drops the basepoint node {self.i0}")
        return replace(self, n=(self.n - 1) // stride + 1, i0=self.i0 // stride)

    def __repr__(self) -> str:
        return f"Mesh([{self.x1}, {self.x2}], n={self.n}, i0={self.i0})"


@dataclass(frozen=True, slots=True, eq=False)
class SampledFunction:
    """A complex-valued function tabulated on a mesh.

    Values are validated to be finite and stored read-only; equality is
    identity. Arithmetic is defined with scalars and functions on one mesh.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128)
        if v.shape != (self.mesh.n,):
            raise ValueError(f"expected {self.mesh.n} values, got shape {v.shape}")
        _check_finite(self.mesh, v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    __reduce__ = _reduce

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, op: Callable) -> "SampledFunction":
        """op(self.values, other) for a scalar or a function on this mesh."""
        if isinstance(other, SampledFunction):
            if other.mesh != self.mesh:
                raise MeshMismatchError(
                    f"cannot combine functions on {self.mesh} and {other.mesh}")
            other = other.values
        elif not isinstance(other, (int, float, complex)):
            return NotImplemented
        return SampledFunction(self.mesh, op(self.values, other))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._combine(other, lambda v, c: c - v)

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        if isinstance(other, SampledFunction):
            return self * reciprocal(other)
        if isinstance(other, (int, float, complex)) and other == 0:
            raise ZeroDivisionError("division of a sampled function by zero")
        return self._combine(other, operator.truediv)

    def __rtruediv__(self, other):  # c / f keeps the floor of reciprocal(f)
        return self._combine(other, lambda v, c: c * reciprocal(self).values)

    def __neg__(self):
        return SampledFunction(self.mesh, -self.values)

    def __repr__(self) -> str:
        return f"SampledFunction(n={self.mesh.n}, max|f|={self.max_abs():.3g})"


def _check_finite(mesh: Mesh, v: np.ndarray) -> None:
    """Raise VanishingValueError naming the node of the first entry of ``v``
    (in C order; its last axis runs over the nodes) that is not finite."""
    finite = np.isfinite(v.real) & np.isfinite(v.imag)
    if not np.all(finite):
        bad = int(np.flatnonzero(~finite)[0]) % mesh.n
        raise VanishingValueError(
            f"non-finite value at node {bad} (x={mesh.nodes[bad]:.6g})",
            node=bad, x=float(mesh.nodes[bad]))


# -- constructors ----------------------------------------------------------

def constant(mesh: Mesh, value: complex) -> SampledFunction:
    return SampledFunction(mesh, np.full(mesh.n, value, dtype=np.complex128))


def zeros(mesh: Mesh) -> SampledFunction:
    return constant(mesh, 0.0)


def ones(mesh: Mesh) -> SampledFunction:
    return constant(mesh, 1.0)


def tabulate(mesh: Mesh, fn: Callable) -> SampledFunction:
    """Tabulate a vectorized callable of x on the mesh."""
    return SampledFunction(mesh, np.asarray(fn(mesh.nodes), dtype=np.complex128))


# -- pointwise operations ---------------------------------------------------

def reciprocal(f: SampledFunction) -> SampledFunction:
    """Pointwise 1/f.

    Refuses when some |f(node)| drops to ``_RECIPROCAL_FLOOR`` relative to
    max|f|, naming the node: a zero here usually signals a vanishing
    Wronskian further down the pipeline.
    """
    mags = np.abs(f.values)
    top = float(np.max(mags))
    i = int(np.argmin(mags))
    if top == 0.0 or mags[i] <= _RECIPROCAL_FLOOR * top:
        raise VanishingValueError(
            f"reciprocal of a (near-)vanishing function: |f|={mags[i]:.3e} "
            f"at node {i} (x={f.mesh.nodes[i]:.6g})",
            node=i, x=float(f.mesh.nodes[i]))
    return SampledFunction(f.mesh, 1.0 / f.values)


# -- exact weight tables -----------------------------------------------------

@lru_cache(maxsize=None)
def _lagrange_basis(window: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficients (ascending powers of t) of the Lagrange basis on nodes 0..window-1."""
    basis = []
    for k in range(window):
        num = [Fraction(1)]
        den = Fraction(1)
        for m in range(window):
            if m == k:
                continue
            # multiply num by (t - m)
            nxt = [Fraction(0)] * (len(num) + 1)
            for p, c in enumerate(num):
                nxt[p] -= c * m
                nxt[p + 1] += c
            num = nxt
            den *= Fraction(k - m)
        basis.append(tuple(c / den for c in num))
    return tuple(basis)


@lru_cache(maxsize=None)
def _segment_weights(a: int) -> np.ndarray:
    """Weights integrating the 9-point interpolant over the unit segment [a, a+1]."""
    row = []
    for coeffs in _lagrange_basis(_QUAD_WINDOW):
        total = Fraction(0)
        for p, c in enumerate(coeffs):
            total += c * (Fraction(a + 1) ** (p + 1) - Fraction(a) ** (p + 1)) / (p + 1)
        row.append(float(total))
    return np.array(row)


@lru_cache(maxsize=None)
def _diff_weights(window: int, order: int, at: int) -> np.ndarray:
    """Weights of the ``order``-th derivative of the interpolant at node offset ``at``."""
    row = []
    for coeffs in _lagrange_basis(window):
        val = Fraction(0)
        for p in range(order, len(coeffs)):  # falling factorial p!/(p-order)!
            val += coeffs[p] * math.perm(p, order) * (Fraction(at) ** (p - order))
        row.append(float(val))
    return np.array(row)


# -- quadrature --------------------------------------------------------------

#: Weights of the segments [a, a+1] of a 9-node window, whatever the node
#: count: the interior row (a = 4) and the clamped rows at the start
#: (a = 0..3) and end (a = 5..7). The clamped rows are complex, like the
#: samples, so np.dot does not cast them on every call.
_INTERIOR_ROW = _segment_weights(4)
_CLAMPED_ROWS = tuple(_segment_weights(a).astype(np.complex128)
                      for a in (0, 1, 2, 3, 5, 6, 7))


def cumulative_integral(f: SampledFunction) -> SampledFunction:
    """Antiderivative of ``f`` anchored at the basepoint.

    Each inter-node segment integral is the exact integral of the degree-8
    interpolant through the 9-node window containing the segment (windows
    clamp at the boundary, overlap in the interior); the per-node prefix sums
    are then shifted so the value at the basepoint node is exactly zero.
    Exact on polynomials up to degree ``QUADRATURE_DEGREE`` aside from
    rounding.

    Returns
    -------
    SampledFunction
        F with F(x0) = 0 and F' = f up to the rule's accuracy.
    """
    mesh = f.mesh
    return SampledFunction(mesh, _antiderivative(f.values, mesh.h, mesh.i0))


def _antiderivative(v: np.ndarray, h: float, i0: int) -> np.ndarray:
    """:func:`cumulative_integral` of complex samples ``v`` (step h, basepoint i0)."""
    n = len(v)
    seg = np.empty(n, dtype=np.complex128)
    seg[0] = 0.0
    # interior segments i in [5, n-4]: window centred, offset 4 inside it.
    # One real correlate per part adds the taps in the order of a loop of
    # `seg += row[k] * v[k:]`, so the sums are that loop's to the bit
    # (tests/oracles.py loop_antiderivative, pinned there with ==).
    # np.correlate would swap its arguments were the weights longer than
    # the samples; a Mesh has at least 9 nodes, so they never are.
    seg.real[5:n - 3] = np.correlate(v.real, _INTERIOR_ROW)
    seg.imag[5:n - 3] = np.correlate(v.imag, _INTERIOR_ROW)
    # clamped boundary windows
    head, tail = v[:_QUAD_WINDOW], v[n - _QUAD_WINDOW:]
    seg[1], seg[2], seg[3], seg[4] = [row.dot(head) for row in _CLAMPED_ROWS[:4]]
    seg[n - 3], seg[n - 2], seg[n - 1] = [row.dot(tail) for row in _CLAMPED_ROWS[4:]]
    seg.cumsum(out=seg)
    seg *= h
    seg -= seg[i0]
    seg[i0] = 0.0
    return seg


# -- differentiation ----------------------------------------------------------

def _diff_window(order: int) -> int:
    w = order + FD_ACCURACY
    return w if w % 2 == 1 else w + 1


def differentiate(f: SampledFunction, order: int = 1) -> SampledFunction:
    """Finite-difference derivative of the given order.

    Centered stencils in the interior, same-width one-sided stencils at the
    boundary; accuracy order at least ``FD_ACCURACY`` everywhere. The window
    holds ``order + 4`` nodes rounded up to odd.

    Raises
    ------
    StencilError
        If the mesh has fewer nodes than the stencil window.
    """
    if not (_is_int(order) and order >= 1):
        raise ValueError(f"derivative order must be an integer >= 1, got {order!r}")
    mesh = f.mesh
    n, v = mesh.n, f.values
    w = _diff_window(order)
    if n < w:
        raise StencilError(
            f"mesh with {n} nodes is too small for an order-{order} stencil ({w} nodes)")
    half = w // 2
    out = np.empty(n, dtype=np.complex128)
    out[half:n - half] = _centred_sums(v, order, half, n - half)
    for i in range(half):
        out[i] = np.dot(_diff_weights(w, order, i), v[:w])
    for i in range(n - half, n):
        out[i] = np.dot(_diff_weights(w, order, i - n + w), v[n - w:])
    return SampledFunction(mesh, out / mesh.h ** order)


def _centred_sums(v: np.ndarray, order: int, start: int, stop: int) -> np.ndarray:
    """Centred ``order``-th difference sums of samples ``v`` at nodes
    start..stop-1, before the division by h**order."""
    half = centered_margin(order)
    row = _diff_weights(2 * half + 1, order, half)
    # one real correlate per part, as in _antiderivative: the taps add in
    # the order of tests/oracles.py loop_derivative's, pinned there with ==.
    # The window holds stop - start + 2 half >= 2 half + 1 samples (callers
    # refuse meshes smaller than the stencil), so np.correlate never swaps
    # its arguments
    window = v[start - half:stop + half]
    out = np.empty(stop - start, dtype=np.complex128)
    out.real = np.correlate(window.real, row)
    out.imag = np.correlate(window.imag, row)
    return out


def centered_margin(order: int) -> int:
    """Number of boundary nodes per side whose stencils are one-sided."""
    return _diff_window(order) // 2


# -- emission -----------------------------------------------------------------

def format_csv(f: SampledFunction) -> str:
    """CSV text with header ``x,re,im`` and 17-significant-digit rows."""
    lines = ["x,re,im"]
    for x, val in zip(f.mesh.nodes, f.values):
        lines.append(f"{x:.17g},{val.real:.17g},{val.imag:.17g}")
    return "\n".join(lines) + "\n"


def format_json(f: SampledFunction) -> str:
    """JSON object with x/re/im arrays at full double precision."""
    payload = {
        "x": [float(f"{x:.17g}") for x in f.mesh.nodes],
        "re": [float(f"{v.real:.17g}") for v in f.values],
        "im": [float(f"{v.imag:.17g}") for v in f.values],
    }
    return json.dumps(payload, sort_keys=True)


#: Node counts of the coarsened meshes of the residual ladder.
_LADDER_NODES = range(65, 162)


def ladder_strides(mesh: Mesh) -> tuple[int, ...]:
    """Strides for residual measurement: 1 plus coarsenings with node counts
    in ``_LADDER_NODES``, panel structure intact; the basepoint is unread."""
    segs = mesh.n - 1
    return (1,) + tuple(s for s in range(2, segs + 1)
                        if not segs % s and segs // s + 1 in _LADDER_NODES
                        and not (segs // s) % 4)
