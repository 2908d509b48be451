"""Iterated line graphs: traceability witnesses, trail searches, and index bounds."""

from .budget import Unknown, default_node_budget
from .eup import (
    VARIANT_EU,
    VARIANT_EUP,
    ConditionReport,
    canonical_candidate,
    check_conditions,
    find_witness,
)
from .families import complete, cycle, fig1, fig2, fig3, fig4b, path, star, two_cycle
from .graphcore import (
    DisconnectedGraphError,
    GraphError,
    InputError,
    MultiGraph,
    ParseError,
    SubgraphH,
    Trail,
    diameter,
    is_connected,
    parse_edgelist,
    parse_graph6,
    subgraph,
    to_edgelist,
    to_graph6,
)
from .hamilton import (
    OracleAnswer,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
    lift_closed_trail_to_cycle,
    lift_trail_to_path,
)
from .indices import (
    BoundsReport,
    IndexResult,
    PathHasNoIndexError,
    bound_cor2,
    bound_thm_b1,
    bound_thm_b2,
    compute_bounds,
    d3_doublestar,
    delta_prime,
    direct_index_cross_check,
    hamiltonian_index,
    hamiltonian_path_index,
)
from .linegraph import (
    CapExceededError,
    EdgelessGraphError,
    LineGraphResult,
    iterated_line_graph,
    line_graph,
)
from .structure import (
    Branch,
    MaxTrailResult,
    branches,
    find_dominating_trail,
    max_trail,
)

__version__ = "0.1.0"
