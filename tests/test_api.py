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
    "tail_ratio": "the documented query behind the tail policy, traced by "
                  "name; the package gates through the sum kernel itself",
    "__version__": "the package version",
}

PUBLIC = [
    "BoundaryConditions", "CharacteristicFunction", "ConfigError", "Disk",
    "EigenOptions", "EigenResult", "Eigenvalue", "Expression",
    "ExpressionError", "FD_ACCURACY", "FormalPowerTable", "Interval", "Mesh",
    "MeshMismatchError", "OperatorSpec", "ProblemConfig", "QUADRATURE_DEGREE",
    "RegionTruncationError", "ResidualVerificationError", "SampledFunction",
    "SeedConstructionError", "SolutionSystem", "SppsError", "StencilError",
    "TriangularDefectError", "TruncationWarning", "VanishingValueError",
    "Workspace", "WronskianFloorError", "__version__", "build_seed_system",
    "build_workspace", "characteristic_polynomials", "compute_A", "constant",
    "cumulative_integral", "differentiate", "eigenfunction",
    "evaluate_constant", "evaluate_derivatives", "evaluate_solution",
    "find_eigenvalues", "formal_powers", "format_csv", "format_json",
    "load_config", "ones", "operator_residual", "parse_expression",
    "polya_factors", "series_coefficients_at_node",
    "solve_initial_value", "tabulate", "tabulate_expression", "tail_ratio",
    "with_truncation", "wronskians", "zeros",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 58
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


#: The modules of the package, which an attribute chain may pass through.
MODULES = {path.stem for path in (ROOT / "src" / "spps").glob("*.py")} - {"__init__"}


def readers(source: str) -> set[str]:
    """Names a source reads: loads of a bare name, and attributes of a name
    bound to ``spps`` or to one of its modules; annotations do not count."""
    tree = ast.parse(source)
    notes, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for note in [node.returns] + [arg.annotation for arg in (
                    *a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                    if arg is not None]:
                notes.update(map(id, ast.walk(note)) if note else ())
        elif isinstance(node, ast.AnnAssign):
            notes.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names
                         if alias.name.split(".")[0] == "spps")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "spps"):
            bound.update(alias.asname or alias.name for alias in node.names
                         if alias.name in MODULES)

    def package(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in MODULES and package(node.value)
        return isinstance(node, ast.Name) and node.id in bound

    read = set()
    for node in ast.walk(tree):
        if id(node) in notes:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and package(node.value):
            read.add(node.attr)
    return read


def test_readers_count_only_the_package_and_no_annotation():
    source = (
        "import numpy as np\n"
        "import spps\n"
        "import spps.powers as p\n"
        "from spps import mesh\n"
        "def f(ws: spps.Workspace, *rest: Mesh) -> spps.EigenResult:\n"
        "    x: spps.Disk = np.zeros(3) + ws.ones + np.tabulate\n"
        "    return spps.constant, p.tail_ratio, mesh.differentiate,"
        " spps.powers.compute_A, Interval\n")
    names = {"Workspace", "Mesh", "EigenResult", "Disk", "zeros", "ones",
             "tabulate", "constant", "tail_ratio", "differentiate", "compute_A",
             "Interval"}
    assert readers(source) & names == {
        "constant", "tail_ratio", "differentiate", "compute_A", "Interval"}


def test_every_public_name_has_a_reader():
    # a load of the name, or an attribute of that name on the package or
    # one of its modules, in the package or the benchmark scripts; its
    # definition, annotations and the tests do not count
    read = set()
    for path in [*(ROOT / "src" / "spps").glob("*.py"),
                 *(ROOT / "bench").glob("*.py")]:
        read |= readers(path.read_text(encoding="utf-8"))
    assert [name for name in spps.__all__
            if name not in read and name not in UNREAD] == []
    assert all(name in spps.__all__ and name not in read for name in UNREAD)
