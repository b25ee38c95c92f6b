"""Problem definition files: parsing, validation, and assembly.

A problem file is an INI document. The only required section is
``[problem]``; everything else has defaults::

    [problem]
    order = 2
    interval = 0 3.141592653589793
    phi1 = 0
    phi2 = 0
    weight = 1
    ; basepoint = 1.5707963267948966

    [mesh]
    nodes = 401

    [series]
    truncation = 30

    [random]
    seed = 0

    [tolerances]
    residual = 1e-6

    [seed_system]        ; optional: explicit solutions of L y = 0
    y1 = cosh(x)
    y2 = sinh(x)

    [boundary]           ; optional: left coefficients ; right coefficients
    row1 = 1 0 ; 0 0
    row2 = 0 0 ; 1 0

    [initial]            ; optional
    values = 1, 0
    lambda = -1

    [eig]                ; optional
    region = interval -100 0
    samples = 1001
    ; max_count = 9

Coefficients, seeds, and scalar values are expressions in ``x`` (see
:mod:`spps.expressions`); lists are comma- or whitespace-separated.
Interval endpoints must be finite and increase, and a basepoint lies in
the interval. ``phi``, ``y`` and ``row`` are numbered 1..order. Also
``truncation`` and ``residual`` must be positive, ``seed`` nonnegative,
``samples`` in 2..16384 and ``max_count`` at least 1. The Wronskian floor
is no setting: it is the constant ``spps.factorization.WRONSKIAN_FLOOR``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ExpressionError
from .expressions import evaluate_constant, tabulate_expression
from .factorization import OperatorSpec, SolutionSystem
from .mesh import Mesh
from .spectral import (
    BoundaryConditions,
    Disk,
    EigenOptions,
    Interval,
    Workspace,
    _search,
    build_workspace,
)


class _Setting(NamedTuple):
    section: str
    key: str
    kind: type
    valid: str | None = None  # a key of _RANGES; None: checked where used
    field_name: str | None = None  # of ProblemConfig, where not the key

    @property
    def field(self) -> str:
        return self.field_name or self.key


_RANGES = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}

#: The single-value settings, one row each, read by the parser, its key
#: check and the range checks. Ranges left None are checked elsewhere: the
#: basepoint's below, nodes by Mesh, [eig] by EigenOptions.
_SETTINGS = (
    _Setting("problem", "weight", str),
    _Setting("problem", "basepoint", float),
    _Setting("mesh", "nodes", int),
    _Setting("series", "truncation", int, "positive"),
    _Setting("random", "seed", int, "nonnegative", "rng_seed"),
    _Setting("tolerances", "residual", float, "positive", "residual_tol"),
    _Setting("eig", "samples", int),
    _Setting("eig", "max_count", int),
)

#: Each section's keys besides its settings, and the prefix of its numbered
#: keys prefix1..prefix<order>; the other sections hold settings alone.
_SECTIONS = {
    "problem": (("order", "interval"), "phi"),
    "seed_system": ((), "y"),
    "boundary": ((), "row"),
    "initial": (("values", "lambda"), None),
    "eig": (("region",), None),
}


@dataclass(frozen=True)
class ProblemConfig:
    """Validated contents of a problem file."""

    order: int
    interval: tuple[float, float]
    phi: tuple[str, ...]
    weight: str = "1"
    basepoint: float | None = None
    nodes: int = 401
    truncation: int = 30
    rng_seed: int = 0
    residual_tol: float = 1e-6
    seeds: tuple[str, ...] | None = None
    boundary_rows: tuple[tuple[tuple[complex, ...], tuple[complex, ...]], ...] | None = None
    initial_values: tuple[complex, ...] | None = None
    initial_lambda: complex = 0.0
    region: Interval | Disk | None = None
    samples: int = 1001
    max_count: int | None = None

    def __post_init__(self):
        # checked here, not in the parser, so that replace() checks too
        for s in _SETTINGS:
            if s.valid and not _RANGES[s.valid](getattr(self, s.field)):
                raise ConfigError(f"[{s.section}]: {s.key} must be {s.valid}")
        x1, x2 = self.interval
        if self.basepoint is not None and not x1 <= self.basepoint <= x2:
            raise ConfigError("[problem]: basepoint lies outside the interval")
        try:
            EigenOptions(samples=self.samples, max_count=self.max_count)
        except ValueError as exc:
            raise ConfigError(f"[eig]: {exc}") from exc

    # -- assembly -----------------------------------------------------------

    def make_mesh(self) -> Mesh:
        x1, x2 = self.interval
        try:
            if self.basepoint is None:
                return Mesh(x1, x2, self.nodes)
            return Mesh.with_basepoint(x1, x2, self.nodes, self.basepoint)
        except ValueError as exc:
            raise ConfigError(f"[mesh]: {exc}") from exc

    def make_operator(self, mesh: Mesh | None = None) -> OperatorSpec:
        mesh = mesh or self.make_mesh()
        phi = tuple(tabulate_expression(mesh, s) for s in self.phi)
        r = tabulate_expression(mesh, self.weight)
        return OperatorSpec(self.order, phi, r)

    def make_seed(self, op: OperatorSpec) -> SolutionSystem | None:
        if self.seeds is None:
            return None
        funcs = [tabulate_expression(op.mesh, s) for s in self.seeds]
        return SolutionSystem.from_functions(op, funcs,
                                             residual_tol=self.residual_tol)

    def make_workspace(self) -> Workspace:
        """The file's workspace, its truncation the cap of its table.

        The table is filled only as far as the file's own queries read the
        series: the [eig] search (at the points of
        :func:`spectral._search <spps.spectral._search>`) and the [initial]
        lambda; to the cap with neither. ``ws.table.truncation`` is the
        filled depth. A query that reads past it fills the table to the
        cap first, so every answer is the one at the cap.
        """
        op = self.make_operator()
        seed = self.make_seed(op)
        reads = None
        if self.region is not None:
            reads = _search(self.region)[2]
        if self.initial_values is not None:
            reads = (reads or ()) + (complex(self.initial_lambda),)
        return build_workspace(
            op, seed=seed, truncation=self.truncation, rng_seed=self.rng_seed,
            residual_tol=self.residual_tol, _reads=reads)

    def make_boundary(self) -> BoundaryConditions | None:
        if self.boundary_rows is None:
            return None
        left = np.array([row[0] for row in self.boundary_rows], dtype=complex)
        right = np.array([row[1] for row in self.boundary_rows], dtype=complex)
        try:
            return BoundaryConditions(left, right)
        except ValueError as exc:
            raise ConfigError(f"[boundary]: {exc}") from exc


def _split_values(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")] if "," in text \
        else text.split()
    return [p for p in parts if p]


def _constants(parts: list[str], where: str) -> tuple[complex, ...]:
    try:
        return tuple(evaluate_constant(p) for p in parts)
    except ExpressionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(section, key: str, kind: type, where: str):
    """The value of ``key`` as a ``kind`` (int, float or str)."""
    try:
        return kind(section[key])
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: {key} must be {noun}, "
                          f"got {section[key]!r}") from exc


def _numbered(section, name: str, order: int) -> tuple[str, ...]:
    """Values of the section's numbered keys, which must be exactly
    prefix1..prefix<order>; any key the section does not take is refused."""
    fixed, prefix = _SECTIONS.get(name, ((), None))
    keys = [f"{prefix}{j}" for j in range(1, order + 1)] if prefix else []
    unknown = set(section) - set(fixed) - set(keys) - {
        s.key for s in _SETTINGS if s.section == name}
    if unknown:
        raise ConfigError(
            f"[{name}]: unknown keys {', '.join(sorted(unknown))}")
    missing = [key for key in keys if key not in section]
    if missing:
        raise ConfigError(f"[{name}]: expected {order} keys {keys[0]}.."
                          f"{keys[-1]}, missing {', '.join(missing)}")
    return tuple(section[key] for key in keys)


def _parse_region(text: str) -> Interval | Disk:
    parts = text.split()
    try:
        if parts and parts[0] == "interval" and len(parts) == 3:
            return Interval(float(parts[1]), float(parts[2]))
        if parts and parts[0] == "disk" and len(parts) == 4:
            return Disk(complex(float(parts[1]), float(parts[2])),
                        float(parts[3]))
    except ValueError as exc:
        raise ConfigError(f"[eig]: bad region {text!r}: {exc}") from exc
    raise ConfigError(
        f"[eig]: region must be 'interval LO HI' or 'disk RE IM RADIUS', "
        f"got {text!r}")


def _boundary_row(row: str, idx: int, order: int):
    halves = row.split(";")
    if len(halves) != 2:
        raise ConfigError(f"[boundary]: row{idx} must be 'LEFT ; RIGHT'")
    a, c = (_constants(_split_values(half), f"[boundary] row{idx}")
            for half in halves)
    if len(a) != order or len(c) != order:
        raise ConfigError(
            f"[boundary]: row{idx} needs {order} coefficients on each side")
    return a, c


def load_config(path: str) -> ProblemConfig:
    """Read and validate a problem file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(parser)


def parse_config(parser: configparser.ConfigParser) -> ProblemConfig:
    for name in parser.sections():
        if name not in {*_SECTIONS, *(s.section for s in _SETTINGS)}:
            raise ConfigError(f"unknown section [{name}]")
    if "problem" not in parser:
        raise ConfigError("missing required section [problem]")
    prob = parser["problem"]
    order = _read(prob, "order", int, "[problem]") if "order" in prob else 0
    if order < 2:
        raise ConfigError("[problem]: order must be at least 2")
    numbered = {name: _numbered(parser[name], name, order)
                for name in parser.sections()}

    raw_interval = prob.get("interval")
    if raw_interval is None:
        raise ConfigError("[problem]: interval is required")
    parts = _split_values(raw_interval)
    if len(parts) != 2:
        raise ConfigError("[problem]: interval needs two endpoints")
    try:
        x1, x2 = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"[problem]: bad interval {raw_interval!r}") from exc
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ConfigError("[problem]: interval endpoints must be finite")
    if not x1 < x2:
        raise ConfigError("[problem]: interval endpoints must increase")

    values = {s.field: _read(parser[s.section], s.key, s.kind,
                             f"[{s.section}]")
              for s in _SETTINGS
              if s.section in parser and s.key in parser[s.section]}
    values["seeds"] = numbered.get("seed_system")
    if "boundary" in parser:
        values["boundary_rows"] = tuple(
            _boundary_row(row, idx, order)
            for idx, row in enumerate(numbered["boundary"], start=1))
    if "initial" in parser:
        sec = parser["initial"]
        if "values" not in sec:
            raise ConfigError("[initial]: values is required")
        vals = _constants(_split_values(sec["values"]), "[initial]")
        if len(vals) != order:
            raise ConfigError(
                f"[initial]: expected {order} values, got {len(vals)}")
        values["initial_values"] = vals
        # one expression, which may contain spaces
        values["initial_lambda"], = _constants([sec.get("lambda", "0")],
                                               "[initial]")
    if "eig" in parser:
        if "region" not in parser["eig"]:
            raise ConfigError("[eig]: region is required")
        values["region"] = _parse_region(parser["eig"]["region"])
    return ProblemConfig(order=order, interval=(x1, x2),
                         phi=numbered["problem"], **values)
