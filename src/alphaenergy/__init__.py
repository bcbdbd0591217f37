"""Spectra of the convex combination alpha*D + (1-alpha)*A for simple graphs,
the associated centered-spectrum energy, and mechanical verification of the
published upper/lower bounds and their stated equality classes.

A `Graph` caches what depends on it alone. `run_sweep` and `run_fuzz` check
corpora over whole alpha grids: each solves its call's (graph, alpha) rows
as one `SpectrumTable` of columns, one stacked eigensolve per graph order,
and returns one `bounds.Verdicts` table per call, a row per (graph, alpha).
That table is the call's one verdict record. `Verdicts.claims(r)` reads row
r's stated-class claims from its graph and alpha, and solves nothing. An
`AlphaSpectrum` record is built only for a row asked for by index, as
`certify` reads one. `analyze` returns the one-row table of one graph at one
alpha with its claims and certificate, and `equality_hits` reads one bound's
equality cases from a table, each with its certificate."""

from .densela import NoConvergenceError, eigendecompose
from .graphcore import (
    GenerationFailureError,
    Graph,
    GraphTooLargeError,
    InvalidParametersError,
    MalformedEdgeListError,
    MalformedGraph6Error,
    NoSuchEdgeError,
    complete,
    cycle,
    delete_edge,
    erdos_renyi,
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
    SpectrumTable,
    graph_spectra,
    spectrum_tables,
)
from .bounds import (
    BOUND_IDS,
    BOUNDS,
    ExtremalCertificate,
    certify,
)
from .harness import (
    DEFAULT_ALPHA_GRID,
    analyze,
    equality_hits,
    run_fuzz,
    run_sweep,
    summarize,
)

__version__ = "0.1.0"
