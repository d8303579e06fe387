"""Odd-clique-minor machinery: detection and certificates, parity-breaking
path dichotomies, the apex + bipartite-block structure decomposition, and
bounded-palette defective/clustered coloring."""

from .graph import (
    MAX_VERTICES,
    Graph,
    GraphError,
    Path,
    Separation,
    SizeLimitError,
    TwoColoring,
    bipartition,
    blocks,
    complete,
    find_odd_cycle,
    find_small_separation,
    parse_graph,
    to_dimacs,
    to_edgelist,
    to_graph6,
)
from .signed import (
    SignedGraph,
    SignedMinorModel,
    cut_edges,
    find_signed_minor,
    is_balanced,
    resign,
    signatures_equivalent,
    verify_signed_minor_model,
)
from .oddminor import (
    OddMinorModel,
    find_odd_clique_minor,
    has_clique_minor,
    is_parity_breaking,
    verify_odd_minor_model,
)
from .subdivision import (
    SubdivisionEmbedding,
    find_bipartite_join_subdivision,
    join_pattern_edges,
    restrict_subdivision,
    verify_subdivision,
)
from .erdosposa import (
    PackingCoverResult,
    find_odd_s_path,
    odd_s_paths_dichotomy,
    parity_breaking_dichotomy,
)
from .structure import (
    Decomposition,
    HypothesisUnmetError,
    block_or_packing,
    build_odd_clique_model,
    structure_theorem,
)
from .coloring import (
    ColoringAssignment,
    OddMinorFoundError,
    bound_M,
    bound_N,
    color_clustered,
    color_defective,
    precolor_extend,
    verify_coloring,
)
from .generators import (
    chorded_subdivision,
    complete_bipartite,
    cycle,
    join_subdivision,
    random_graph,
)
from .certificates import (
    Certificate,
    CertificateError,
    certify_coloring,
    certify_cover,
    certify_decomposition,
    certify_odd_minor_model,
    certify_packing,
    certify_signed_minor_model,
    certify_subdivision,
    graph_hash,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
