"""persint: persistence intensity analysis for 2D grid functions.

Pipeline: synthetic point clouds -> density/distance fields on grids ->
cubical persistence diagrams -> kernel-smoothed weighted intensities ->
distances, embeddings, clustering, and permutation two-sample tests.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CsvFormatError,
    DegenerateGraphError,
    DegenerateStatisticError,
    IncompatibleGridsError,
    InvalidInputError,
    InvalidParameterError,
    InvariantError,
    PersintError,
    StageError,
)
from .synth import (
    PointCloud,
    gen_circle_contamination,
    gen_gaussian_mixture,
    gen_noisy_circles,
    gen_uniform_square,
    generate_population,
)
from .field import GridField, GridSpec, default_kde_spec, distance_grid, kde_grid
from .persistence import PersistenceDiagram, PersistencePair, compute_persistence
from .intensity import (
    DEFAULT_WEIGHTS,
    IntensityGrid,
    WeightSpec,
    average_intensity,
    smooth_diagram,
)
from .analyze import (
    ClusterAssignment,
    DistanceMatrix,
    Embedding,
    classical_mds,
    confusion_matrix,
    distance_matrix,
    kmeans,
    l1_distance,
    similarity_from_distance,
    spectral_embed,
)
from .inference import (
    MiseCurve,
    PowerCurve,
    TestResult,
    bias_scaling_study,
    mise_study,
    normality_check,
    permutation_test,
    power_study,
    two_sample_statistic,
)
from .config import ExperimentConfig, load_config
from .pipelines import RunManifest, run_fig2, run_fig4, run_mise
from .seeding import child_seed, make_rng
