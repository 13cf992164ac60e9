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
    isometry_coupling,
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
    volume_penalty,
)
from .geodesic import (
    DistanceField,
    dijkstra_distances,
    fast_marching,
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
    run_optimization,
    total_loss,
)
from .runconfig import RunSettings, parse_config, read_config

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the numeric path: always ``"numpy"``, the one path there is."""
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
    "isometry_coupling",
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
    "volume_penalty",
    "DistanceField",
    "dijkstra_distances",
    "fast_marching",
    "IterationState",
    "LossBreakdown",
    "LossConfig",
    "OptimizationResult",
    "StopRule",
    "SweepRecord",
    "TraceRow",
    "feasibility_projection",
    "lambda_sweep",
    "run_optimization",
    "total_loss",
    "RunSettings",
    "parse_config",
    "read_config",
    "__version__",
]
