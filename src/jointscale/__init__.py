"""Joint isometric embedding of two dissimilarity datasets.

Embeds two datasets, given only their intra-dataset pairwise dissimilarities,
into one low-dimensional Euclidean space while recovering soft
correspondences between their samples.
"""

__version__ = "0.1.0"

from .dissimilarity import (
    NeighborGraph,
    geodesic_distances,
    graph_dissimilarity,
    knn_graph,
    normalized_adjacency,
    pairwise_euclidean,
    power_weight_matrix,
    rescale_by_mean,
    uniform_weight_matrix,
)
from .errors import (
    DegenerateInput,
    DegenerateWeights,
    DisconnectedGraph,
    InvalidInput,
    JointScaleError,
    NumericalFailure,
)
from .jointmds import JointConfig, JointResult, joint_objective, match_argmax, solve
from .metrics import accuracy, foscttm, knn_transfer, node_correctness, rmsd_d, topk_accuracy
from .smacof import (
    FULL_MATRIX_FACTOR,
    JointBlocks,
    StressReport,
    assemble_joint,
    joint_smacof,
    random_embedding,
    smacof,
    stress,
    v_matrix_pinv,
)
from .synthdata import GenSpec, SyntheticPair, generate, planted_pair, standardize
from .transport import (
    Marginals,
    cost_matrix,
    entropic_gw,
    orthogonal_procrustes,
    sinkhorn,
    wasserstein_procrustes,
)

__all__ = [
    "__version__",
    "JointScaleError",
    "InvalidInput",
    "DegenerateInput",
    "DegenerateWeights",
    "DisconnectedGraph",
    "NumericalFailure",
    "NeighborGraph",
    "pairwise_euclidean",
    "knn_graph",
    "geodesic_distances",
    "rescale_by_mean",
    "normalized_adjacency",
    "graph_dissimilarity",
    "power_weight_matrix",
    "uniform_weight_matrix",
    "FULL_MATRIX_FACTOR",
    "StressReport",
    "JointBlocks",
    "random_embedding",
    "stress",
    "v_matrix_pinv",
    "smacof",
    "joint_smacof",
    "assemble_joint",
    "Marginals",
    "cost_matrix",
    "sinkhorn",
    "orthogonal_procrustes",
    "wasserstein_procrustes",
    "entropic_gw",
    "JointConfig",
    "JointResult",
    "joint_objective",
    "solve",
    "match_argmax",
    "foscttm",
    "node_correctness",
    "topk_accuracy",
    "rmsd_d",
    "knn_transfer",
    "accuracy",
    "GenSpec",
    "SyntheticPair",
    "generate",
    "standardize",
    "planted_pair",
]
