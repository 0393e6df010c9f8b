"""Normality and Serre's condition (R1) for edge rings of finite graphs.

The main entry points are :func:`classify` and :func:`satisfies_r1` on a
:class:`Graph`; the ``oracle`` module rechecks the same verdicts by exact
integer-lattice arithmetic, and ``sweep`` cross-validates both routes over
exhaustive families of small graphs.
"""

from .facets import (
    FacetDescriptor,
    Fundamental,
    RegularVertex,
    SupportForm,
    descriptor,
    facet_forms,
    facet_walk,
    iter_fundamental_sets,
    regular_vertices,
    support_form,
)
from .graph import (
    MAX_VERTICES,
    Cycle,
    DisagreementError,
    Edge,
    Graph,
    ParseError,
    UnsupportedError,
    VertexSet,
    bridge_graph,
    chordless_odd_cycles,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    connected_within,
    cycle_graph,
    first_component,
    generate_family,
    is_bipartite,
    is_connected,
    iter_chordless_odd_cycles,
    labelled_graphs,
    members,
    neighborhood,
    odd_spanning_edges,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
    vset,
)
from .lattice import IntegerLattice, xgcd
from .oracle import (
    FacetCheck,
    facet_conditions,
    failing_facets,
    monoid_group,
    oracle_r1,
    verify_decomposition,
    verify_even_sum_basis,
    verify_facet_rank,
)
from .serre import (
    ClassificationReport,
    classify,
    facet_connectivity_holds,
    r1_violations,
    satisfies_odd_cycle_condition,
    satisfies_r1,
)
from .sweep import CrossCheck, SweepSummary, cross_check, run_sweep

__version__ = "0.1.0"
