"""Exact proximity/remoteness invariants of strong digraphs.

The library computes distance invariants with exact integer/rational
arithmetic, generates the extremal families attaining each bound, verifies
the bound-and-equality characterizations instance by instance, and
exhaustively enumerates small digraph classes to confirm (or refute) each
characterization by brute force.
"""

from .digraph import (
    DegreeSummary,
    Digraph,
    NotStrongError,
    PartiteStructure,
    bipartite_tournament_structure,
    blow_up,
    complement,
    degree_summary,
    from_edge_list,
    from_undirected_edge_list,
    is_regular,
    is_strong,
    is_symmetric,
    is_tournament,
    permute,
)
from .formats import (
    read_digraph6,
    read_edge_list,
    read_graph6,
    write_digraph6,
    write_edge_list,
    write_graph6,
)
from .metrics import (
    MetricsReport,
    metrics_report,
    proximity_remoteness,
    radius_diameter,
)
from .canonical import CanonicalForm, are_isomorphic, canonical_form
from .search import (
    ExhaustiveResult,
    SearchQuery,
    SearchResult,
    enumerate_class,
    exhaustive_verify,
    rediscover_sigma_equal_graph,
    search,
)
from .verifiers import THEOREMS, VerificationReport

__version__ = "0.1.0"
