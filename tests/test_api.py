"""The public names of the package, pinned so that changes are deliberate."""

import spps

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
    "apply_coefficients", "apply_factorized", "build_seed_system",
    "build_workspace", "characteristic_polynomials", "check_nonvanishing",
    "compute_A", "constant", "coordinate", "cumulative_integral",
    "differentiate", "dump_config", "eigenfunction", "evaluate_constant",
    "evaluate_derivatives", "evaluate_solution", "find_eigenvalues",
    "formal_powers", "format_csv", "format_json", "initial_matrix",
    "initial_values", "load_config", "ones", "operator_residual",
    "parse_expression", "polya_factors", "polya_system", "reciprocal",
    "series_coefficients_at_node", "solve_initial_value", "tabulate",
    "tabulate_expression", "tail_ratio", "with_truncation", "wronskians",
    "zeros",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 69
    assert sorted(spps.__all__) == PUBLIC


def test_public_names_resolve():
    missing = [name for name in spps.__all__ if not hasattr(spps, name)]
    assert missing == []


def test_public_names_do_not_repeat():
    assert len(set(spps.__all__)) == len(spps.__all__)
