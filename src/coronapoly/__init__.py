"""Exact independence polynomials of small graphs, the corona coefficient
transforms, and root-location certificates, all over integer/rational
arithmetic with a numeric complex-root side channel."""

from .errors import (
    GraphParseError,
    NotACoronaImage,
    ResourceLimitError,
    RootConvergenceError,
)
from .graphs import (
    Graph,
    alpha,
    centipede_graph,
    complement,
    complete_graph,
    complete_multipartite_graph,
    corona,
    cycle_graph,
    disjoint_union,
    empty_graph,
    encode_graph6,
    girth,
    is_claw_free,
    is_connected,
    is_forest,
    is_star,
    is_tree,
    is_very_well_covered,
    is_well_covered,
    maximal_stable_sets,
    parse_edge_list,
    parse_graph6,
    path_graph,
    pendant_edges,
    pendant_edges_form_perfect_matching,
    spider_graph,
    star_graph,
)
from .canon import (
    are_isomorphic,
    canonical_code,
    enumerate_graphs,
    enumerate_trees,
)
from .polynomials import IntPolynomial, evaluate_exact
from .indpoly import (
    count_stable_sets,
    independence_polynomial,
    independence_polynomial_tree,
)
from .corona import (
    centipede_coefficients_explicit,
    centipede_polynomial,
    coefficient_monotonicity_check,
    corona_coefficients,
    corona_polynomial_identity,
    divisibility_check,
    functional_identity_check,
    inverse_corona_coefficients,
    path_polynomial,
    spider_polynomial,
)
from .roots import (
    BijectionReport,
    BoundCheck,
    RootReport,
    all_roots_real,
    build_hk,
    count_distinct_real_roots,
    count_distinct_roots_in_disc,
    deflate_minus_one,
    isolate_real_roots,
    multiplicity_of_minus_one,
    numeric_roots,
    root_bijection_check,
    square_free_decomposition,
    square_free_part,
    sturm_chain,
    verify_bounds,
)
from .search import (
    Conjecture2Report,
    EquivalenceReport,
    HamidouneReport,
    PolynomialClass,
    SpiderScanReport,
    conjecture2_scan,
    corona_equivalence_check,
    group_by_polynomial,
    hamidoune_scan,
    spider_uniqueness_scan,
    well_covered_trees,
)

__version__ = "0.1.0"
