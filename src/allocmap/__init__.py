"""Maps of fair-division instances.

Generate synthetic and landmark utility matrices, compare them with exact or
polynomial matching distances, lay them out on a plane (SMACOF embedding or
the singular-value map), and annotate them with exhaustive fairness features.
"""

from .core import (
    BadDimensions,
    CapError,
    InstanceRecord,
    NegativeEntry,
    RowSumViolation,
    ShapeMismatch,
    Source,
    UnsupportedShape,
    UtilityMatrix,
    ValidationError,
    ZeroRow,
    normalize_rows,
    validate,
)
from .distance import (
    EXACT_SEARCH_CAP,
    DistanceMatrix,
    ExactSearchCapExceeded,
    demand_distance,
    pairwise_distances,
    valuation_distance,
)
from .embedding import Embedding, mds_embed, stress
from .features import (
    ALL_FEATURES,
    ALLOC_CAP,
    CapExceeded,
    FeatureTable,
    UnknownFeature,
    allocation_features,
    ef_exists,
    efpo_exists,
    feature_table,
    gini,
    max_nash,
    max_util,
    minimax_envy,
    mms_ok,
    mms_shares,
    prop_fraction,
    sum_max_envies,
)
from .generators import (
    CHARACTERISTIC_KINDS,
    GeneratorSpec,
    gen_attributes,
    gen_characteristic,
    gen_dataset,
    gen_iid,
    gen_preset,
    gen_resampling,
    preset_specs,
)
from .pipeline import PipelineConfig, PipelineError, run_pipeline
from .spectral import (
    BoundaryReport,
    SpectralPoint,
    boundary_interpolation,
    boundary_report,
    corner_coordinates,
    dirichlet_duplicated_sample,
    explicit_coords,
    jacobi_eigenvalues,
    singular_values,
    top_singular_values,
)

__version__ = "0.1.0"
