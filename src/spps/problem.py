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
    max_retries = 25

    [tolerances]
    residual = 1e-6
    wronskian_floor = 1e-6

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
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ExpressionError
from .expressions import evaluate_constant, tabulate_expression
from .factorization import OperatorSpec, SolutionSystem
from .mesh import Mesh
from .spectral import (
    BoundaryConditions,
    Disk,
    Interval,
    Workspace,
    build_workspace,
)

_KNOWN = {
    "problem": {"order", "interval", "basepoint", "weight"},  # + phi1..phiN
    "mesh": {"nodes"},
    "series": {"truncation"},
    "random": {"seed", "max_retries"},
    "tolerances": {"residual", "wronskian_floor"},
    "seed_system": None,  # y1..yN
    "boundary": None,  # row1..rowN
    "initial": {"values", "lambda"},
    "eig": {"region", "samples", "max_count"},
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
    max_retries: int = 25
    residual_tol: float = 1e-6
    wronskian_floor: float = 1e-6
    seeds: tuple[str, ...] | None = None
    boundary_rows: tuple[tuple[tuple[complex, ...], tuple[complex, ...]], ...] | None = None
    initial_values: tuple[complex, ...] | None = None
    initial_lambda: complex = 0.0
    region: Interval | Disk | None = None
    samples: int = 1001
    max_count: int | None = None

    def __post_init__(self):
        # checked here, not in the parser, so that replace() checks too
        for ok, message in (
                (self.truncation >= 1, "[series]: truncation must be positive"),
                (self.rng_seed >= 0, "[random]: seed must be nonnegative"),
                (self.max_retries >= 0, "[random]: max_retries must be nonnegative"),
                (self.residual_tol > 0, "[tolerances]: residual must be positive"),
                (self.wronskian_floor >= 0,
                 "[tolerances]: wronskian_floor must be nonnegative"),
                (self.samples >= 2, "[eig]: samples must be at least 2"),
                (self.max_count is None or self.max_count >= 1,
                 "[eig]: max_count must be positive")):
            if not ok:
                raise ConfigError(message)

    # -- assembly -----------------------------------------------------------

    def make_mesh(self) -> Mesh:
        x1, x2 = self.interval
        try:
            mesh = Mesh(x1, x2, self.nodes)
        except ValueError as exc:
            raise ConfigError(f"[mesh]: {exc}") from exc
        if self.basepoint is not None:
            return Mesh.with_basepoint(x1, x2, self.nodes, self.basepoint)
        return mesh

    def make_operator(self, mesh: Mesh | None = None) -> OperatorSpec:
        mesh = mesh or self.make_mesh()
        phi = tuple(tabulate_expression(mesh, s) for s in self.phi)
        r = tabulate_expression(mesh, self.weight)
        return OperatorSpec(self.order, phi, r)

    def make_seed(self, op: OperatorSpec) -> SolutionSystem | None:
        if self.seeds is None:
            return None
        funcs = [tabulate_expression(op.mesh, s) for s in self.seeds]
        return SolutionSystem.from_functions(
            op, funcs, wronskian_floor=self.wronskian_floor,
            residual_tol=self.residual_tol)

    def make_workspace(self) -> Workspace:
        op = self.make_operator()
        seed = self.make_seed(op)
        return build_workspace(
            op, seed=seed, truncation=self.truncation, rng_seed=self.rng_seed,
            max_retries=self.max_retries, wronskian_floor=self.wronskian_floor,
            residual_tol=self.residual_tol)

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


def _constants(text: str, where: str) -> tuple[complex, ...]:
    try:
        return tuple(evaluate_constant(p) for p in _split_values(text))
    except ExpressionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _constant_scalar(text: str, where: str) -> complex:
    """A single constant expression; may contain spaces, unlike a list."""
    try:
        return evaluate_constant(text)
    except ExpressionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _get_int(section, key: str, default: int | None, where: str) -> int | None:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} must be an integer, "
                          f"got {raw!r}") from exc


def _get_float(section, key: str, default: float, where: str) -> float:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} must be a number, "
                          f"got {raw!r}") from exc


def _numbered_keys(section, prefix: str, where: str) -> list[str]:
    """Values of prefix1..prefixN, which must be exactly the keys present."""
    found = {}
    for key in section:
        if not key.startswith(prefix):
            raise ConfigError(f"{where}: unexpected key {key!r}")
        try:
            idx = int(key[len(prefix):])
        except ValueError as exc:
            raise ConfigError(f"{where}: unexpected key {key!r}") from exc
        found[idx] = section[key]
    if not found:
        raise ConfigError(f"{where}: section is empty")
    count = max(found)
    missing = [f"{prefix}{i}" for i in range(1, count + 1) if i not in found]
    if missing:
        raise ConfigError(f"{where}: missing {', '.join(missing)}")
    return [found[i] for i in range(1, count + 1)]


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
        if name not in _KNOWN:
            raise ConfigError(f"unknown section [{name}]")
        allowed = _KNOWN[name]
        if allowed is None:
            continue
        extra = {k for k in parser[name]} - allowed
        if name == "problem":
            extra = {k for k in extra if not k.startswith("phi")}
        if extra:
            raise ConfigError(
                f"[{name}]: unknown keys {', '.join(sorted(extra))}")

    if "problem" not in parser:
        raise ConfigError("missing required section [problem]")
    prob = parser["problem"]
    order = _get_int(prob, "order", 0, "[problem]")
    if order < 2:
        raise ConfigError("[problem]: order must be at least 2")
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
    if not x1 < x2:
        raise ConfigError("[problem]: interval endpoints must increase")

    phi = []
    for j in range(1, order + 1):
        key = f"phi{j}"
        if key not in prob:
            raise ConfigError(f"[problem]: {key} is required for order {order}")
        phi.append(prob[key])
    for key in prob:
        if key.startswith("phi") and key not in {f"phi{j}" for j in
                                                 range(1, order + 1)}:
            raise ConfigError(f"[problem]: unexpected key {key!r}")

    basepoint = None
    if "basepoint" in prob:
        basepoint = _get_float(prob, "basepoint", 0.0, "[problem]")
        if not x1 <= basepoint <= x2:
            raise ConfigError("[problem]: basepoint lies outside the interval")

    cfg = ProblemConfig(
        order=order,
        interval=(x1, x2),
        phi=tuple(phi),
        weight=prob.get("weight", "1"),
        basepoint=basepoint,
    )

    if "mesh" in parser:
        cfg = replace(cfg, nodes=_get_int(parser["mesh"], "nodes",
                                          cfg.nodes, "[mesh]"))
    if "series" in parser:
        cfg = replace(cfg, truncation=_get_int(
            parser["series"], "truncation", cfg.truncation, "[series]"))
    if "random" in parser:
        sec = parser["random"]
        cfg = replace(cfg,
                      rng_seed=_get_int(sec, "seed", cfg.rng_seed, "[random]"),
                      max_retries=_get_int(sec, "max_retries",
                                           cfg.max_retries, "[random]"))
    if "tolerances" in parser:
        sec = parser["tolerances"]
        cfg = replace(
            cfg,
            residual_tol=_get_float(sec, "residual", cfg.residual_tol,
                                    "[tolerances]"),
            wronskian_floor=_get_float(sec, "wronskian_floor",
                                       cfg.wronskian_floor, "[tolerances]"))

    if "seed_system" in parser:
        seeds = _numbered_keys(parser["seed_system"], "y", "[seed_system]")
        if len(seeds) != order:
            raise ConfigError(
                f"[seed_system]: expected {order} entries, got {len(seeds)}")
        cfg = replace(cfg, seeds=tuple(seeds))

    if "boundary" in parser:
        rows = _numbered_keys(parser["boundary"], "row", "[boundary]")
        if len(rows) != order:
            raise ConfigError(
                f"[boundary]: expected {order} rows, got {len(rows)}")
        parsed = []
        for idx, row in enumerate(rows, start=1):
            halves = row.split(";")
            if len(halves) != 2:
                raise ConfigError(
                    f"[boundary]: row{idx} must be 'LEFT ; RIGHT'")
            a = _constants(halves[0], f"[boundary] row{idx}")
            c = _constants(halves[1], f"[boundary] row{idx}")
            if len(a) != order or len(c) != order:
                raise ConfigError(
                    f"[boundary]: row{idx} needs {order} coefficients on "
                    "each side")
            parsed.append((a, c))
        cfg = replace(cfg, boundary_rows=tuple(parsed))

    if "initial" in parser:
        sec = parser["initial"]
        if "values" not in sec:
            raise ConfigError("[initial]: values is required")
        vals = _constants(sec["values"], "[initial]")
        if len(vals) != order:
            raise ConfigError(
                f"[initial]: expected {order} values, got {len(vals)}")
        lam = 0.0 + 0.0j
        if "lambda" in sec:
            lam = _constant_scalar(sec["lambda"], "[initial]")
        cfg = replace(cfg, initial_values=vals, initial_lambda=lam)

    if "eig" in parser:
        sec = parser["eig"]
        if "region" not in sec:
            raise ConfigError("[eig]: region is required")
        region = _parse_region(sec["region"])
        cfg = replace(cfg, region=region,
                      samples=_get_int(sec, "samples", cfg.samples, "[eig]"),
                      max_count=_get_int(sec, "max_count", None, "[eig]"))

    return cfg


def dump_config(cfg: ProblemConfig) -> str:
    """Render a configuration back to INI text (inverse of load_config)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["problem"] = {
        "order": str(cfg.order),
        "interval": f"{cfg.interval[0]!r} {cfg.interval[1]!r}",
    }
    for j, s in enumerate(cfg.phi, start=1):
        parser["problem"][f"phi{j}"] = s
    parser["problem"]["weight"] = cfg.weight
    if cfg.basepoint is not None:
        parser["problem"]["basepoint"] = repr(cfg.basepoint)
    parser["mesh"] = {"nodes": str(cfg.nodes)}
    parser["series"] = {"truncation": str(cfg.truncation)}
    parser["random"] = {"seed": str(cfg.rng_seed),
                        "max_retries": str(cfg.max_retries)}
    parser["tolerances"] = {"residual": repr(cfg.residual_tol),
                            "wronskian_floor": repr(cfg.wronskian_floor)}
    if cfg.seeds is not None:
        parser["seed_system"] = {f"y{i}": s
                                 for i, s in enumerate(cfg.seeds, start=1)}
    if cfg.boundary_rows is not None:
        parser["boundary"] = {}
        for i, (a, c) in enumerate(cfg.boundary_rows, start=1):
            parser["boundary"][f"row{i}"] = (
                " ".join(_fmt_complex(v) for v in a) + " ; "
                + " ".join(_fmt_complex(v) for v in c))
    if cfg.initial_values is not None:
        parser["initial"] = {
            "values": ", ".join(_fmt_complex(v) for v in cfg.initial_values),
            "lambda": _fmt_complex(cfg.initial_lambda),
        }
    if cfg.region is not None:
        if isinstance(cfg.region, Interval):
            region = f"interval {cfg.region.lo!r} {cfg.region.hi!r}"
        else:
            region = (f"disk {cfg.region.center.real!r} "
                      f"{cfg.region.center.imag!r} {cfg.region.radius!r}")
        parser["eig"] = {"region": region, "samples": str(cfg.samples)}
        if cfg.max_count is not None:
            parser["eig"]["max_count"] = str(cfg.max_count)
    import io
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _fmt_complex(v: complex) -> str:
    v = complex(v)
    if v.imag == 0.0:
        return repr(v.real)
    if v.real == 0.0:
        return f"{v.imag!r}*i"
    sign = "+" if v.imag >= 0 else "-"
    return f"({v.real!r}{sign}{abs(v.imag)!r}*i)"
