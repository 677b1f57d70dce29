"""rainbowdepth: exact search and certification of a point O interior to
every rainbow simplex spanned by large subsets of d+1 colored point sets.

All geometry is exact (rational arithmetic, no tolerances); every
positive result ships with a brute-force re-verifiable certificate.
"""

from .config import (
    ColoredConfiguration,
    GeneratorSpec,
    configuration,
    generate,
    load_configuration,
    save_configuration,
)
from .depth import (
    ConstantsBundle,
    DepthResult,
    RainbowDepth,
    counting_inequality_diagnostic,
    deepest_point,
    rainbow_depth_at,
    theoretical_constants,
)
from .errors import (
    BudgetExceededError,
    GenerationError,
    InputError,
    ParseError,
    PipelineStageError,
    TrimExhaustedError,
    UnsupportedDimensionError,
    ValidationError,
)
from .geometry import (
    Hyperplane,
    Point,
    barycentric_coordinates,
    general_position_check,
    hyperplane,
    orientation,
    point,
    point_in_simplex_interior,
    rational,
    side_of_hyperplane,
)
from .hypergraph import (
    DensityValue,
    PartiteHypergraph,
    averaging_identity_check,
    density_value,
    edge_count,
    extract_dense_exact,
    extract_dense_local,
    hypergraph_from_json,
    hypergraph_to_json,
    partite_hypergraph,
    verify_property_ii,
)
from .pipeline import (
    PipelineParams,
    ResultBundle,
    all_or_none_check,
    report_bytes,
    run_pipeline,
    verify_certificate,
)
from .separation import (
    SeparationWitness,
    TrimTrace,
    ham_sandwich_cut,
    hyperplane_transversal_exists,
    is_separated_family,
    order_type,
    satisfies_bisection_contract,
    strictly_separating_hyperplane,
    trim_to_separated,
)
from .svg import render_svg
from .tverberg import (
    TverbergCertificate,
    common_interior_point,
    find_disjoint_rainbow_simplices,
)

__version__ = "0.1.0"
