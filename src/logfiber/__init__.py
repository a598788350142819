"""logfiber: single-vertex square complexes from labeled oriented graphs.

Builds presentation 2-complexes, certifies hyperbolicity of their
fundamental groups (link largeness, poison corners, bounded flat-disk
search), certifies free-by-cyclic fiberings over the integers via
circle-valued Morse theory, and computes explicit monodromy automorphisms
with transition-matrix classification.

The functions that can share derived work take one source: a `SquareComplex`,
or an `Analysis` of one that keeps its link, lattice and directional links
across calls.
"""

from .analysis import Analysis
from .complexes import (
    NAMED_COMPLEXES,
    Square,
    SquareComplex,
    add_square,
    build_lot_family,
    build_named,
    combine,
    parse_spec,
)
from .errors import InputError
from .flatness import (
    DiskWitness,
    Verdict,
    disk_cells,
    eligible_squares,
    hyperbolicity_verdict,
    search_flat_disk,
    square_tiles,
    validate_witness,
)
from .links import (
    CornerEdge,
    LinkGraph,
    build_link,
    export_dot,
    largeness,
    poison_corners,
    shortest_cycle_through,
    square_corners,
)
from .monodromy import (
    Automorphism,
    BasisLoop,
    MonodromyContext,
    TransitionMatrix,
    compose,
    conjugation_automorphism,
    invariant_factor_witness,
    invariant_factor_witnesses,
    invert,
    kernel_basis,
    rewrite_to_basis,
    transition_matrix,
)
from .morse import (
    AdmissibilityReport,
    CornerHeights,
    DirectionalLink,
    FiberGraph,
    check_admissible,
    corner_heights,
    directional_links,
    fiber_graph,
    fibering_scan,
    infinite_fibering_verdict,
    kernel_rank,
    parse_weight_spec,
    unit_weights,
    weight_lattice,
)
from .words import Word, signed_weight

__version__ = "0.1.0"
