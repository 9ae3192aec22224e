"""Selective Bayesian fusion of multi-condition reference sets for
single-image visual place recognition.

Descriptor-agnostic and training-free: the toolkit consumes precomputed
descriptor vectors, selects the reference sets that are informative for each
query, fuses them probabilistically, and evaluates against distance-based
baselines with precision-recall metrics.
"""

from .distance import DistanceStack, distance_stack, distance_vector
from .errors import (
    DegenerateReferenceError,
    DescriptorCorruptionError,
    DescriptorFormatError,
    ManifestError,
    NoInformationError,
    ValidationError,
    VPRFuseError,
)
from .evaluation import (
    EvalRecord,
    MethodEvaluation,
    PRCurve,
    TimingReport,
    bench_query,
    evaluate_method,
    match_correct,
    pr_curve,
)
from .fusion import (
    Belief,
    PlaceDecision,
    decide,
    posterior,
    uniform_prior,
)
from .ingest import (
    Dataset,
    DatasetManifest,
    GroundTruth,
    ReferenceSet,
    SyntheticDataset,
    generate_synthetic,
    load_dataset,
    parse_manifest,
    read_descriptor_file,
    read_ground_truth,
    write_descriptor_file,
    write_ground_truth,
    write_manifest,
)
from .likelihood import (
    SIGMA2_MIN,
    GaussianParams,
    gaussian_params,
    log_likelihood_ratio,
    place_match_counts,
)
from .methods import Method, expand_methods, resolve_method
from .selection import (
    DEFAULT_GAMMA,
    SelectionResult,
    select_all,
    select_references,
    select_single,
)
from .sequence import ScoreMatrix, sequence_aggregate

__version__ = "0.1.0"
