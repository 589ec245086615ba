"""Binary linear codes from hypergraph incidence matrices.

The incidence matrix of a hypergraph generates a binary linear code (and
every binary code arises this way).  This package builds the hypergraph
families of interest, computes code parameters with two independent
minimum-distance engines (codeword enumeration and vertex-subset
enumeration), and tests self-orthogonality and self-duality both directly
and through structural criteria.
"""

from .analysis import AnalysisReport, EngineDisagreement, analyze_hypergraph, analyze_matrix
from .codes import (
    DistanceResult,
    LinearCode,
    codeword_distance_search,
    dual,
    eonv_distance_search,
    from_generator,
    graph_self_duality_criterion,
    is_self_dual,
    is_self_orthogonal,
    structural_self_orthogonality,
    weight_distribution,
)
from .gf2core import (
    BitMatrix,
    BitVector,
    format_matrix,
    gram,
    nullspace_basis,
    parse_matrix,
    rank,
    row_combination,
    row_space_equal,
    rref,
)
from .gf2poly import block_circulant_bound, cyclic_code_dimension, poly_gcd
from .hypergraph import (
    Hypergraph,
    block_row,
    circulant_hypergraph,
    complete_3partite,
    connected_uniform_samples,
    edges_at,
    eonv,
    f_count,
    fano_circulant,
    format_hypergraph,
    from_incidence_matrix,
    incidence_matrix,
    is_connected,
    parse_hypergraph,
    projective_geometry,
    random_hypergraph,
    random_uniform_hypergraph,
)
from .limits import DEFAULT_ENUM_CAP, ENUM_CAP_ENV_VAR, EnumerationCapError

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BitMatrix",
    "BitVector",
    "DEFAULT_ENUM_CAP",
    "DistanceResult",
    "ENUM_CAP_ENV_VAR",
    "EngineDisagreement",
    "EnumerationCapError",
    "Hypergraph",
    "LinearCode",
    "analyze_hypergraph",
    "analyze_matrix",
    "block_circulant_bound",
    "block_row",
    "circulant_hypergraph",
    "codeword_distance_search",
    "complete_3partite",
    "connected_uniform_samples",
    "cyclic_code_dimension",
    "dual",
    "edges_at",
    "eonv",
    "eonv_distance_search",
    "f_count",
    "fano_circulant",
    "format_hypergraph",
    "format_matrix",
    "from_generator",
    "from_incidence_matrix",
    "gram",
    "graph_self_duality_criterion",
    "incidence_matrix",
    "is_connected",
    "is_self_dual",
    "is_self_orthogonal",
    "nullspace_basis",
    "parse_hypergraph",
    "parse_matrix",
    "poly_gcd",
    "projective_geometry",
    "random_hypergraph",
    "random_uniform_hypergraph",
    "rank",
    "row_combination",
    "row_space_equal",
    "rref",
    "structural_self_orthogonality",
    "weight_distribution",
]
