"""Spectra of the convex combination alpha*D + (1-alpha)*A for simple graphs,
the associated centered-spectrum energy, and mechanical verification of the
published upper/lower bounds with equality-case certification."""

from .densela import (
    EigenDecomposition,
    NoConvergenceError,
    NonSymmetricError,
    SymmetricMatrix,
    eigendecompose,
)
from .graphcore import (
    GenerationFailureError,
    Graph,
    GraphTooLargeError,
    InvalidParametersError,
    MalformedEdgeListError,
    MalformedGraph6Error,
    NoSuchEdgeError,
    adjacency_matrix,
    complete,
    complete_bipartite,
    cycle,
    delete_edge,
    erdos_renyi,
    generate,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path,
    petersen,
    random_regular,
    serialize_graph6,
    star,
)
from .spectra import (
    AlphaOutOfRangeError,
    AlphaSpectrum,
    GraphInvariants,
    alpha_matrices,
    alpha_matrix,
    alpha_spectrum,
    graph_spectra,
    two_s,
    zagreb_index,
)
from .bounds import (
    BOUND_IDS,
    BOUNDS,
    BoundEvaluation,
    ExtremalCertificate,
    certify,
    evaluate,
    evaluate_all,
)
from .harness import (
    DEFAULT_ALPHA_GRID,
    EqualityHit,
    Report,
    analyze,
    analyze_graph,
    run_fuzz,
    run_hunt,
    run_sweep,
    summarize,
)

__version__ = "0.1.0"
