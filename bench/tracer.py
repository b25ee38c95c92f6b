"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions of each ``spps`` module
with timing wrappers. The package binds imported names per module (for
example ``from .powers import formal_powers`` in ``spectral``), so every
module that holds a function gets the wrapper. Methods of
``CharacteristicFunction``, ``ProblemConfig`` and ``SolutionSystem`` and
``SampledFunction.__init__`` are wrapped on their classes. ``uninstall()``
puts the originals back.

Each timed call is recorded as a span (name, start, end, parent, pass).
Self time is a span's duration minus that of its child spans. Counts are
taken at the same wrappers.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import spps

#: (module, attribute, span name, layer metric the self time adds to).
FUNCTIONS = (
    ("spps.problem", "load_config", "problem.load_config", "problem.load"),
    ("spps.expressions", "tabulate_expression",
     "expressions.tabulate_expression", "problem.load"),
    ("spps.factorization", "build_seed_system",
     "factorization.build_seed_system", "factorization.build_seed_system"),
    ("spps.factorization", "wronskians", "factorization.wronskians",
     "factorization.wronskians"),
    ("spps.factorization", "polya_factors", "factorization.polya_factors",
     "factorization.polya_factors"),
    ("spps.factorization", "operator_residual",
     "factorization.operator_residual", "factorization.operator_residual"),
    ("spps.powers", "formal_powers", "powers.formal_powers",
     "powers.formal_powers"),
    ("spps.powers", "compute_A", "powers.compute_A", "powers.compute_A"),
    ("spps.powers", "evaluate_solution", "powers.evaluate_solution",
     "powers.evaluate_solution"),
    ("spps.powers", "evaluate_derivatives", "powers.evaluate_derivatives",
     "powers.evaluate_derivatives"),
    ("spps.powers", "series_coefficients_at_node",
     "powers.series_coefficients_at_node", "powers.series_coefficients_at_node"),
    ("spps.powers", "tail_ratio", "powers.tail_ratio", "powers.tail_ratio"),
    ("spps.spectral", "build_workspace", "spectral.build_workspace",
     "spectral.build_workspace"),
    ("spps.spectral", "solve_initial_value", "spectral.solve_initial_value",
     "spectral.solve_initial_value"),
    ("spps.spectral", "find_eigenvalues", "spectral.find_eigenvalues",
     "spectral.find_eigenvalues"),
    ("spps.spectral", "characteristic_polynomials",
     "spectral.characteristic_polynomials",
     "spectral.characteristic_polynomials"),
    ("spps.spectral", "with_truncation", "spectral.with_truncation",
     "spectral.with_truncation"),
    ("spps.spectral", "eigenfunction", "spectral.eigenfunction",
     "spectral.eigenfunction"),
    ("spps.mesh", "cumulative_integral", "mesh.cumulative_integral",
     "mesh.cumulative_integral"),
    ("spps.mesh", "differentiate", "mesh.differentiate", "mesh.differentiate"),
)

#: (class, method, span name, layer metric) for methods wrapped on the class.
METHODS = (
    ("CharacteristicFunction", "det", "spectral.det", "spectral.det"),
    ("CharacteristicFunction", "det_samples", "spectral.det_samples",
     "spectral.det_samples"),
    ("CharacteristicFunction", "det_polynomial", "spectral.det_polynomial",
     "spectral.det_polynomial"),
    ("ProblemConfig", "make_operator", "problem.make_operator", "problem.load"),
    ("ProblemConfig", "make_seed", "problem.make_seed", "problem.load"),
    ("ProblemConfig", "make_workspace", "problem.make_workspace",
     "problem.load"),
    ("ProblemConfig", "make_boundary", "problem.make_boundary", "problem.load"),
    # an explicit [seed_system] is verified here instead of being built
    ("SolutionSystem", "from_functions", "factorization.from_functions",
     "factorization.build_seed_system"),
)

#: Layer metrics that also report their call count as ``<metric>_calls``.
COUNTED = (
    "factorization.operator_residual", "powers.formal_powers",
    "powers.evaluate_solution", "powers.evaluate_derivatives",
    "spectral.solve_initial_value", "spectral.eigenfunction", "spectral.det",
    "mesh.cumulative_integral", "mesh.differentiate",
)

#: Package layers, in report order.
LAYERS = ("problem", "factorization", "powers", "spectral", "mesh")

#: Bytes per sampled node (complex128).
NODE_BYTES = 16


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names: list[tuple[str, str]] = []
    for metric in dict.fromkeys(m for *_, m in FUNCTIONS + METHODS):
        names.append((f"{metric}_s", "s"))
        if metric in COUNTED:
            names.append((f"{metric}_calls", "count"))
    names += [("factorization.seed_retries", "count"),
              ("spectral.candidates", "count"), ("spectral.rejected", "count"),
              ("spectral.accepted_ratio", "ratio"),
              ("mesh.sampled_functions", "count"), ("mesh.sampled_bytes", "B")]
    return sorted(names, key=lambda item: LAYERS.index(item[0].split(".")[0]))


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> name id
        self.spans: list[tuple] = []  # (name id, start, end, parent, pass)
        self.pass_index = -1
        self._stack: list[list] = []  # [span index, child time]
        self._saved: list[tuple] = []
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    # -- recording ------------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.self_time = {}
        self.counts = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, span: str, metric: str, on_result=None):
        name_id = self._ids.setdefault(span, len(self._ids))
        counted = metric in COUNTED

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.spans[index] = (name_id, start, end, parent,
                                     self.pass_index)
                self.self_time[metric] = (self.self_time.get(metric, 0.0)
                                          + duration - frame[1])
                if counted:
                    self.count(metric)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_seed(self, seed) -> None:
        self.count("factorization.seed_retries", seed.retries)

    def _on_eigen(self, result) -> None:
        self.count("spectral.accepted", len(result.eigenvalues))
        self.count("spectral.rejected", len(result.rejected))
        self.count("spectral.candidates",
                   len(result.eigenvalues) + len(result.rejected))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "spps" or key.startswith("spps.")]
        hooks = {"factorization.build_seed_system": self._on_seed,
                 "spectral.find_eigenvalues": self._on_eigen}
        for module, attr, span, metric in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(orig, span, metric, hooks.get(metric))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for cls_name, attr, span, metric in METHODS:
            cls = getattr(spps, cls_name)
            orig = vars(cls)[attr]
            self._saved.append((cls, attr, orig))
            if isinstance(orig, classmethod):
                setattr(cls, attr, classmethod(
                    self._wrap(orig.__func__, span, metric)))
            else:
                setattr(cls, attr, self._wrap(orig, span, metric))
        sampled = spps.SampledFunction
        init = vars(sampled)["__init__"]
        self._saved.append((sampled, "__init__", init))

        def counting_init(obj, mesh, values):
            self.count("mesh.sampled_functions")
            self.count("mesh.sampled_bytes", mesh.n * NODE_BYTES)
            init(obj, mesh, values)

        sampled.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []

    # -- reporting ------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current pass."""
        out: dict[str, float] = {}
        for name, unit in layer_metric_names():
            if unit == "s":
                out[name] = self.self_time.get(name[:-2], 0.0)
            elif name == "spectral.accepted_ratio":
                cand = self.counts.get("spectral.candidates", 0)
                out[name] = (self.counts.get("spectral.accepted", 0) / cand
                             if cand else 0.0)
            elif name.endswith("_calls"):
                out[name] = self.counts.get(name[:-6], 0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write_spans(self, path) -> None:
        """Spans as JSON: names, then rows of (name id, start, end, parent, pass)."""
        payload = {"fields": ["name", "start_s", "end_s", "parent", "pass"],
                   "names": list(self._ids),
                   "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
