"""Pointwise geometry of regular Hamiltonians on cotangent bundles.

Given a Hamiltonian as an expression in ``x1..xn, p1..pn``, the package
computes the momentum-Hessian metric, the canonical nonlinear connection
and its curvature, the Jacobi endomorphism, covariant-derivative and
Berwald coefficients, and verifies symmetry and conservation statements
as numerical residuals at points and along fixed-step trajectories.
"""

from .errors import (
    DimensionError,
    EvaluationError,
    HamgeoError,
    HorizontalityError,
    ManifestError,
    ParseError,
    RegularityError,
)
from .expr import (
    BaseVectorFieldSpec,
    ControlAffineSystem,
    Expression,
    HamiltonianSpec,
    VectorFieldSpec,
    evaluate,
    free_variables,
    hamiltonian_field_spec,
    parse,
    pmp_hamiltonian,
    to_text,
    validate,
)
from .jets import FD_STEPS, Jet, fd_oracle, jet_lift, nested_jet_lift
from .phase import PhasePoint, sample_box
from .geometry import (
    RCOND_FLOOR,
    BerwaldCoefficients,
    GeometryReport,
    adapted_derivative,
    berwald_coefficients,
    connection,
    connection_general,
    curvature,
    geometry_report,
    hamiltonian_vector_field,
    is_horizontal,
    jacobi_endomorphism,
    jacobi_via_curvature,
    metric,
    metric_rcond,
    nabla_J_residual,
    nabla_coefficients,
    nabla_metric_residual,
    nabla_vector_field,
)
from .symmetry import (
    ConservedSymmetry,
    complete_lift,
    field_verdict,
    invariant_equation_residual,
    invariant_vector_field_check,
    lie_bracket,
    liouville_residual,
    momentum_map,
    natural_symmetry_residual,
    newtonoid_invariant_residual,
    newtonoid_lift,
    newtonoid_residual,
    noether_from_conservation,
    noether_residual,
    star_product,
    symmetry_residual,
    symplectic_matrix,
)
from .dynamics import (
    BLOWUP_GUARD,
    Trajectory,
    berwald_vs_nabla,
    drift_report,
    geodesic_residual,
    hamilton_rhs,
    integrate_rk4,
)
from .manifest import (
    BUILTIN_MANIFESTS,
    DEFAULT_TOLERANCES,
    Manifest,
    RunSpec,
    SamplingSpec,
    builtin_manifest,
    load_manifest,
    manifest_from_dict,
)
from .selftest import CheckResult, run_checks, run_selftest

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HamgeoError",
    "ParseError",
    "EvaluationError",
    "DimensionError",
    "RegularityError",
    "HorizontalityError",
    "ManifestError",
    # expressions and specifications
    "Expression",
    "parse",
    "to_text",
    "evaluate",
    "validate",
    "free_variables",
    "HamiltonianSpec",
    "ControlAffineSystem",
    "pmp_hamiltonian",
    "VectorFieldSpec",
    "BaseVectorFieldSpec",
    "hamiltonian_field_spec",
    # phase space
    "PhasePoint",
    "sample_box",
    # jets
    "Jet",
    "jet_lift",
    "nested_jet_lift",
    "fd_oracle",
    "FD_STEPS",
    # pointwise geometry
    "GeometryReport",
    "BerwaldCoefficients",
    "metric",
    "metric_rcond",
    "hamiltonian_vector_field",
    "connection",
    "connection_general",
    "adapted_derivative",
    "curvature",
    "jacobi_endomorphism",
    "jacobi_via_curvature",
    "is_horizontal",
    "nabla_coefficients",
    "berwald_coefficients",
    "nabla_J_residual",
    "nabla_metric_residual",
    "nabla_vector_field",
    "geometry_report",
    "RCOND_FLOOR",
    # symmetry
    "lie_bracket",
    "symmetry_residual",
    "newtonoid_residual",
    "newtonoid_lift",
    "newtonoid_invariant_residual",
    "complete_lift",
    "natural_symmetry_residual",
    "liouville_residual",
    "noether_residual",
    "invariant_equation_residual",
    "star_product",
    "invariant_vector_field_check",
    "momentum_map",
    "noether_from_conservation",
    "ConservedSymmetry",
    "symplectic_matrix",
    "field_verdict",
    # dynamics
    "Trajectory",
    "hamilton_rhs",
    "integrate_rk4",
    "drift_report",
    "geodesic_residual",
    "berwald_vs_nabla",
    "BLOWUP_GUARD",
    # manifests and selftest
    "Manifest",
    "RunSpec",
    "SamplingSpec",
    "DEFAULT_TOLERANCES",
    "BUILTIN_MANIFESTS",
    "load_manifest",
    "manifest_from_dict",
    "builtin_manifest",
    "CheckResult",
    "run_checks",
    "run_selftest",
]
