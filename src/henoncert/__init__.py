"""henoncert: rigorous certification of horseshoe chaos and uniform
hyperbolicity for the 3D generalized Henon map, built on outward-rounded
interval arithmetic."""

__version__ = "0.1.0"

from .intervals import Box, EnclosureError, Interval, IntervalError, from_decimal
from .linalg import (
    IMatrix,
    SingularMatrixError,
    det,
    is_positive_definite,
    subdivide_box,
)
from .henon import (
    DivergenceError,
    HenonMap,
    IteratedMap,
    LinearMap,
    eval_point_fast,
)
from .hsets import (
    HSet,
    load_hsets,
    make_paper_hsets,
    paper_map_pairs,
    save_hsets,
)
from .covering import (
    CoveringCertificate,
    check_condition_I,
    check_condition_II,
    linearization_at_center,
    verify_covering,
)
from .hyperbolicity import (
    HyperbolicityCertificate,
    check_map_pair,
    cone_matrix,
    cone_quadratic_form,
)
from .report import (
    ProofReport,
    ReportError,
    periodic_orbit_consequence,
    symbolic_dynamics_statement,
)

__all__ = [
    "Box",
    "CoveringCertificate",
    "DivergenceError",
    "EnclosureError",
    "HSet",
    "HenonMap",
    "HyperbolicityCertificate",
    "IMatrix",
    "Interval",
    "IntervalError",
    "IteratedMap",
    "LinearMap",
    "ProofReport",
    "ReportError",
    "SingularMatrixError",
    "check_condition_I",
    "check_condition_II",
    "check_map_pair",
    "cone_matrix",
    "cone_quadratic_form",
    "det",
    "eval_point_fast",
    "from_decimal",
    "is_positive_definite",
    "linearization_at_center",
    "load_hsets",
    "make_paper_hsets",
    "paper_map_pairs",
    "periodic_orbit_consequence",
    "save_hsets",
    "subdivide_box",
    "symbolic_dynamics_statement",
    "verify_covering",
]
