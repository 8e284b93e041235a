"""Persistent homology of weighted graphs.

Builds simplicial complexes from a weighted graph (cliques, closed
neighborhoods, enclaveless sets, independent sets), filters them by the
induced weight rules, and computes persistence diagrams, persistent Betti
number functions, extended persistence over both half-planes, and bottleneck
distances.
"""

from .complexes import (
    SimplicialComplex,
    Simplex,
    barycentric_subdivision,
    clique_complex,
    complex_isomorphic,
    enclaveless_complex,
    independent_complex,
    neighborhood_complex,
    one_skeleton,
    simplex,
)
from .filtrations import (
    ExtendedPair,
    FilteredComplex,
    extend_weights,
    extended_pair,
    filter_clique,
    filter_enclaveless,
    filter_neighborhood,
)
from .graphs import (
    GraphParseError,
    WeightedGraph,
    complement,
    csusp,
    edge,
    format_graph,
    isomorphisms,
    isusp,
    parse_graph,
    threshold_subgraph,
)
from .metrics import bottleneck, dhat, pseudodistance_iso
from .persistence import (
    DiagramPoint,
    EssentialPoint,
    ExtendedPersistence,
    PersistenceDiagram,
    betti_numbers,
    reduce,
)

__version__ = "0.1.0"

__all__ = [
    "DiagramPoint",
    "EssentialPoint",
    "ExtendedPair",
    "ExtendedPersistence",
    "FilteredComplex",
    "GraphParseError",
    "PersistenceDiagram",
    "SimplicialComplex",
    "Simplex",
    "WeightedGraph",
    "barycentric_subdivision",
    "betti_numbers",
    "bottleneck",
    "clique_complex",
    "complement",
    "complex_isomorphic",
    "csusp",
    "dhat",
    "edge",
    "enclaveless_complex",
    "extend_weights",
    "extended_pair",
    "filter_clique",
    "filter_enclaveless",
    "filter_neighborhood",
    "format_graph",
    "independent_complex",
    "isomorphisms",
    "isusp",
    "neighborhood_complex",
    "one_skeleton",
    "parse_graph",
    "pseudodistance_iso",
    "reduce",
    "simplex",
    "threshold_subgraph",
]
