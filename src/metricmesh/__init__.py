"""metricmesh: edge-length metric optimization on triangle meshes.

A triangle mesh with one positive length per edge carries a full
intrinsic geometry: corner angles, face areas, and angle-defect
curvature all follow from the lengths alone. This package optimizes
those lengths (and optionally the vertex positions) to balance data
fidelity against curvature and smoothness penalties, while keeping every
face a valid triangle.
"""

from .errors import (
    ConfigError,
    DatasetError,
    FaceIndexError,
    FeasibilityProjectionError,
    InfeasibleMetricError,
    IsolatedVertexError,
    MeshError,
    MetricMeshError,
    NonManifoldEdgeError,
    NonTriangleFaceError,
    OFFParseError,
    TapeDomainError,
    TapeError,
    TapeNonFiniteError,
)
from .mesh import (
    Mesh,
    Violation,
    euler_characteristic,
    generate_mesh,
    load_off,
    make_grid,
    make_icosphere,
    make_torus,
    read_off,
    save_off,
    validate_manifold,
    write_off,
)
from .projection import (
    Dataset,
    Embedding,
    ProjectionResult,
    closest_point_on_face,
    data_fidelity,
    decode,
    isometry_coupling,
    project_dataset,
    project_dataset_arrays,
)
from .geometry import (
    CurvatureReport,
    MetricField,
    check_feasible,
    curvature_energy,
    curvature_report,
    dirichlet_energy,
    face_areas,
    face_corner_angles,
    face_slacks,
    interior_angles,
    max_feasibility_deficit,
    triangle_area,
    volume_penalty,
)
from .autodiff import (
    GradientResult,
    Tape,
    TapeProgram,
    TracedScalar,
    evaluate_with_gradient,
    finite_difference_gradient,
)
from .geodesic import (
    DistanceField,
    dijkstra_distances,
    fast_marching,
    triangle_update,
)
from .optimize import (
    IterationState,
    LossBreakdown,
    LossConfig,
    OptimizationResult,
    StopRule,
    SweepRecord,
    TraceRow,
    feasibility_projection,
    lambda_sweep,
    loss_gradient,
    run_optimization,
    total_loss,
)
from .runconfig import RunSettings, parse_config, read_config

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the numeric path, recorded in every run manifest.

    There is one path, plain numpy, so this is always ``"numpy"``.
    """
    return "numpy"


__all__ = [
    "ConfigError",
    "DatasetError",
    "FaceIndexError",
    "FeasibilityProjectionError",
    "InfeasibleMetricError",
    "IsolatedVertexError",
    "MeshError",
    "MetricMeshError",
    "NonManifoldEdgeError",
    "NonTriangleFaceError",
    "OFFParseError",
    "TapeDomainError",
    "TapeError",
    "TapeNonFiniteError",
    "backend_name",
    "Mesh",
    "Violation",
    "euler_characteristic",
    "generate_mesh",
    "load_off",
    "make_grid",
    "make_icosphere",
    "make_torus",
    "read_off",
    "save_off",
    "validate_manifold",
    "write_off",
    "Dataset",
    "Embedding",
    "ProjectionResult",
    "closest_point_on_face",
    "data_fidelity",
    "decode",
    "isometry_coupling",
    "project_dataset",
    "project_dataset_arrays",
    "CurvatureReport",
    "MetricField",
    "check_feasible",
    "curvature_energy",
    "curvature_report",
    "dirichlet_energy",
    "face_areas",
    "face_corner_angles",
    "face_slacks",
    "interior_angles",
    "max_feasibility_deficit",
    "triangle_area",
    "volume_penalty",
    "GradientResult",
    "Tape",
    "TapeProgram",
    "TracedScalar",
    "evaluate_with_gradient",
    "finite_difference_gradient",
    "DistanceField",
    "dijkstra_distances",
    "fast_marching",
    "triangle_update",
    "IterationState",
    "LossBreakdown",
    "LossConfig",
    "OptimizationResult",
    "StopRule",
    "SweepRecord",
    "TraceRow",
    "feasibility_projection",
    "lambda_sweep",
    "loss_gradient",
    "run_optimization",
    "total_loss",
    "RunSettings",
    "parse_config",
    "read_config",
    "__version__",
]
