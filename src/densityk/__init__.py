"""Clustering-based disambiguation of fine-grained place names.

The core pipeline turns a document's ambiguous gazetteer candidates into a
point cloud, derives a cluster distance from an annular density curve over
the pairwise distances, forms single-linkage clusters at that distance,
and resolves each place name through the size-ranked clusters. Four
comparison heuristics, a scoring harness, and a seeded synthetic corpus
generator round out the package.
"""

from .baselines import (
    centroid_heuristic,
    dbscan,
    dbscan_disambiguate,
    dtur,
    kdist_disambiguate,
    kdist_epsilon,
    omd,
)
from .clustering import (
    Cluster,
    DisambiguationResult,
    MentionOutcome,
    OutcomeStatus,
    densityk_pipeline,
    disambiguate,
    form_clusters,
    rank_clusters,
)
from .corpus import (
    CandidateEntry,
    CloudPoint,
    DocumentInput,
    PlaceMention,
    PointCloud,
    dedupe_candidates,
    document_to_json,
    load_corpus,
    load_document,
    load_document_file,
    to_point_cloud,
)
from .errors import (
    CombinationExplosionError,
    DegenerateCentroidError,
    DensityKError,
    DocumentParseError,
    DocumentSchemaError,
    EmptyInputError,
    InsufficientPointsError,
    MissingTruthError,
    NoAnchorsError,
    RejectionOverflowError,
)
from .evaluation import (
    AlgorithmConfig,
    CorpusReport,
    DocumentScore,
    evaluate_corpus,
    run_algorithm,
    score_document,
    table1_grid,
)
from .export import clusters_to_geojson, kfunction_to_csv, result_to_dict, to_canonical_json
from .geo import (
    EARTH_RADIUS_M,
    DistanceList,
    GeoPoint,
    condensed_distances,
    condensed_index,
    condensed_pairs,
    haversine,
    pairwise_distances,
    spherical_centroid,
)
from .kfunction import (
    DEFAULT_DELTA_D_M,
    KFunction,
    compute_circular_k_function,
    compute_k_function,
    derive_cluster_distance,
    with_cluster_distance,
)
from .synth import SynthSpec, synth_generate, write_corpus

__version__ = "0.1.0"
