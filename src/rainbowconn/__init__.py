"""Rainbow connectivity toolkit for diameter-2 graphs.

Constructs verified rainbow edge-colorings inside per-class color budgets,
checks rainbow connectivity with a color-subset dynamic program, and finds
exact rainbow connection numbers by a pruned depth-first search.
"""

from .coloring import EdgeColoring
from .colorer import (
    BridgedCutVertex,
    BridgelessCutVertex,
    ColoringOutcome,
    CompleteLike,
    NotDiameterAtMost2,
    Provenance,
    TwoConnected,
    classify,
    color_diam2,
    guarantee_for,
)
from .errors import (
    CapExceeded,
    ColoringMismatch,
    ConstructionFailure,
    GenerationFailed,
    IndexOutOfRange,
    InvalidEdge,
    InvalidSpec,
    OutOfScopeGraph,
    ParseError,
    RainbowError,
    StructureViolation,
    WrongCase,
)
from .exact import RcResult, exact_rc, rc_lower_bound
from .fileio import format_coloring, format_edge_list, parse_coloring, parse_edge_list
from .generators import (
    GenSpec,
    child_seed,
    complete,
    complete_bipartite,
    cycle,
    petersen,
    random_diam2,
    star,
    tight_example,
    wheel,
)
from .graph import (
    Graph,
    bridges,
    build_graph,
    cut_vertices,
    diameter,
    is_connected,
    is_two_connected,
    srg_parameters,
)
from .verify import (
    RainbowCertificate,
    check_witness,
    rainbow_path,
    verify_rainbow_connected,
)

__version__ = "0.1.0"

__all__ = [
    "BridgedCutVertex",
    "BridgelessCutVertex",
    "CapExceeded",
    "ColoringMismatch",
    "ColoringOutcome",
    "CompleteLike",
    "ConstructionFailure",
    "EdgeColoring",
    "GenSpec",
    "GenerationFailed",
    "Graph",
    "IndexOutOfRange",
    "InvalidEdge",
    "InvalidSpec",
    "NotDiameterAtMost2",
    "OutOfScopeGraph",
    "ParseError",
    "Provenance",
    "RainbowCertificate",
    "RainbowError",
    "RcResult",
    "StructureViolation",
    "TwoConnected",
    "WrongCase",
    "bridges",
    "build_graph",
    "check_witness",
    "child_seed",
    "classify",
    "color_diam2",
    "complete",
    "complete_bipartite",
    "cut_vertices",
    "cycle",
    "diameter",
    "exact_rc",
    "format_coloring",
    "format_edge_list",
    "guarantee_for",
    "is_connected",
    "is_two_connected",
    "parse_coloring",
    "parse_edge_list",
    "petersen",
    "rainbow_path",
    "random_diam2",
    "rc_lower_bound",
    "srg_parameters",
    "star",
    "tight_example",
    "verify_rainbow_connected",
    "wheel",
]
