"""Spectral parameter power series (SPPS) solver for n-th order linear ODEs.

Builds solutions of L y = lambda r y as truncated power series in the
spectral parameter, starting from a Polya factorization of L obtained from a
seed system of solutions of L y = 0, and layers initial-value and eigenvalue
solvers plus a CLI on top.
"""

from .errors import (
    ConfigError,
    ExpressionError,
    MeshMismatchError,
    RegionTruncationError,
    ResidualVerificationError,
    SeedConstructionError,
    SppsError,
    StencilError,
    TriangularDefectError,
    TruncationWarning,
    VanishingValueError,
    WronskianFloorError,
)
from .expressions import (
    Expression,
    evaluate_constant,
    parse_expression,
    tabulate_expression,
)
from .factorization import (
    OperatorSpec,
    SolutionSystem,
    build_seed_system,
    operator_residual,
    polya_factors,
    wronskians,
)
from .mesh import (
    FD_ACCURACY,
    QUADRATURE_DEGREE,
    Mesh,
    SampledFunction,
    constant,
    cumulative_integral,
    differentiate,
    format_csv,
    format_json,
    ones,
    reciprocal,
    tabulate,
    zeros,
)
from .powers import (
    FormalPowerTable,
    compute_A,
    evaluate_derivatives,
    evaluate_solution,
    formal_powers,
    series_coefficients_at_node,
    tail_ratio,
)
from .problem import ProblemConfig, load_config
from .spectral import (
    BoundaryConditions,
    CharacteristicFunction,
    Disk,
    EigenOptions,
    EigenResult,
    Eigenvalue,
    Interval,
    Workspace,
    build_workspace,
    characteristic_polynomials,
    eigenfunction,
    find_eigenvalues,
    solve_initial_value,
    with_truncation,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ExpressionError", "MeshMismatchError", "RegionTruncationError",
    "ResidualVerificationError", "SeedConstructionError", "SppsError", "StencilError",
    "TriangularDefectError", "TruncationWarning", "VanishingValueError",
    "WronskianFloorError",
    "FD_ACCURACY", "QUADRATURE_DEGREE", "Mesh", "SampledFunction",
    "constant", "cumulative_integral", "differentiate",
    "format_csv", "format_json", "ones", "reciprocal", "tabulate", "zeros",
    "OperatorSpec", "SolutionSystem", "build_seed_system",
    "operator_residual", "polya_factors", "wronskians",
    "FormalPowerTable", "compute_A", "evaluate_derivatives",
    "evaluate_solution", "formal_powers", "series_coefficients_at_node",
    "tail_ratio",
    "Expression", "evaluate_constant", "parse_expression",
    "tabulate_expression",
    "ProblemConfig", "load_config",
    "BoundaryConditions", "CharacteristicFunction", "Disk", "EigenOptions",
    "EigenResult", "Eigenvalue", "Interval", "Workspace",
    "build_workspace", "characteristic_polynomials", "eigenfunction",
    "find_eigenvalues", "solve_initial_value", "with_truncation",
    "__version__",
]
