"""The public names of the package, pinned so that changes are deliberate."""

import ast
import importlib
from pathlib import Path

import spps

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

#: Public names that no package path or benchmark script reads, and why
#: each stays public.
UNREAD = {
    "evaluate_solution": "the paper's u_k; documented, traced by name",
    "evaluate_derivatives": "the paper's u_k^(ell); documented, traced by name",
    "eigenfunction": "documented, traced by name; the search sums its own",
    "__version__": "the package version",
}

PUBLIC = [
    "BoundaryConditions", "CharacteristicFunction", "ConfigError",
    "DerivativeCoeffs", "Disk", "EigenOptions", "EigenResult", "Eigenvalue",
    "Expression", "ExpressionError", "FD_ACCURACY", "FormalPowerTable",
    "Interval", "Mesh", "MeshMismatchError", "OperatorSpec",
    "PolyaFactorization", "ProblemConfig", "QUADRATURE_DEGREE",
    "RegionTruncationError", "ResidualVerificationError", "SampledFunction",
    "SeedConstructionError", "SolutionSystem", "SppsError", "StencilError",
    "TriangularDefectError", "TruncationWarning", "VanishingValueError",
    "Workspace", "WronskianFloorError", "__version__",
    "build_seed_system", "build_workspace", "characteristic_polynomials",
    "check_nonvanishing", "compute_A", "constant", "cumulative_integral",
    "differentiate", "eigenfunction", "evaluate_constant",
    "evaluate_derivatives", "evaluate_solution", "find_eigenvalues",
    "formal_powers", "format_csv", "format_json", "initial_matrix",
    "load_config", "ones", "operator_residual",
    "parse_expression", "polya_factors", "reciprocal",
    "series_coefficients_at_node", "solve_initial_value", "tabulate",
    "tabulate_expression", "tail_ratio", "with_truncation", "wronskians",
    "zeros",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 63
    assert sorted(spps.__all__) == PUBLIC


def test_public_names_resolve():
    missing = [name for name in spps.__all__ if not hasattr(spps, name)]
    assert missing == []


def test_public_names_do_not_repeat():
    assert len(set(spps.__all__)) == len(spps.__all__)


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer wraps these by name; its tables are read from
    # the source, so nothing of the benchmark runs here
    names = ("FUNCTIONS", "METHODS")
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(TRACER.read_text(encoding="utf-8")).body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in names}
    assert all(tables.get(name) for name in names)
    for module, attr, *_ in tables["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(module), attr))
    for cls, attr, *_ in tables["METHODS"]:
        assert attr in vars(getattr(spps, cls))


def test_every_public_name_has_a_reader():
    # a load of the name, or an attribute of that name, in the package or
    # the benchmark scripts; its definition and the tests do not count
    read = set()
    for path in [*(ROOT / "src" / "spps").glob("*.py"),
                 *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [name for name in spps.__all__
            if name not in read and name not in UNREAD] == []
    assert all(name in spps.__all__ and name not in read for name in UNREAD)
