"""Exact constructions and counting for dot-product-weighted tree configurations.

A weighted tree prescribes one exact rational dot product per edge; this
package builds point sets realizing many copies of such trees, counts
embeddings and distinct weight tuples exactly, and checks the associated
growth bounds at desk scale.
"""

from .bounds import (
    binary_tree_upper_exponent,
    column_exponent,
    compare_report,
    distinct_tuples_exponent,
    lattice_exponent,
    loglog_fit,
    main_exponents_consistent,
    max_copies_exponent,
    meets_power_bound,
    pinned_exponent,
)
from .constructions import (
    ConstructionResult,
    LatticeResult,
    LatticeSpec,
    build_column_construction,
    build_perp_lines_3d,
    build_unit_lattice,
)
from .counting import (
    DescentLevel,
    DescentTrace,
    DotProductIndex,
    DotProductSummary,
    ProofGraphStats,
    RadialHistogram,
    count_embeddings,
    count_homomorphisms,
    count_segment_crossings,
    distinct_dot_products,
    distinct_weight_tuples,
    hyperplane_descent,
    incidences,
    max_pinned,
    pinned_set,
    pinned_weight_tuples,
    proof_graph_edges,
    proof_multigraph,
    radial_histogram,
)
from .geometry import (
    AlphaHyperplane,
    Direction,
    ParseError,
    Point,
    PointSet,
    alpha_hyperplane,
    dot,
    format_point_set,
    format_scalar,
    integer_grid,
    parse_scalar,
    point,
    point_set,
    random_point_set,
    read_point_set,
)
from .reports import CountReport, digest_inputs, point_set_digest
from .trees import (
    Bipartition,
    Tree,
    WeightedTree,
    bipartition,
    format_tree,
    make_path,
    make_perfect_binary,
    make_star,
    read_tree,
)

__version__ = "0.1.0"
