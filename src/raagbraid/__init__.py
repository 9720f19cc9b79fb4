"""Embed graph-defined partially commutative groups into graph braid groups.

The pipeline: color a finite simple graph, synthesize a halo graph carrying
one loop per vertex with the dual intersection pattern, realize each
generator as a squared loop of one token in the discretized configuration
space, and push the result through the edge-forgetting map into the
partially commutative group on the halo's edges. Verification suites check
the halo axioms, the subdivision criterion, the homomorphism property,
injectivity at small scale, and the counterexample showing why the squaring
is needed.
"""

from .errors import (
    EmptyGraphError,
    GraphFormatError,
    IllegalStepError,
    ImproperColoringError,
    InputError,
    RaagBraidError,
    SizeExceededError,
    UnknownVertexError,
    VerificationError,
    WordFormatError,
)
from .graphs import (
    Coloring,
    SimpleGraph,
    SubdivisionReport,
    SubdivisionViolation,
    chromatic_number,
    essential_vertices,
    graph_from_json_dict,
    graph_to_json_dict,
    greedy_color,
    is_planar,
    is_sufficiently_subdivided,
    minimal_subdivision,
    to_dot,
)
from .halo import (
    Halo,
    HaloReport,
    HaloViolation,
    build_halo,
    halo_from_json_dict,
    halo_to_dot,
    halo_to_json_dict,
    subdivided_halo,
    verify_halo,
)
from .configspace import (
    ConfigEdgePath,
    Configuration,
    Step,
    artin_basepoint,
    cell_counts,
    edge_path,
)
from .raag import (
    GroupWord,
    PinchWitness,
    RaagPresentation,
    abelianization,
    detect_pinch,
    equal,
    in_special_subgroup,
    is_trivial,
    pinch_reduce,
    raag_reduce,
)
from .embedding import (
    CheckResult,
    CounterexampleReport,
    EmbeddingContext,
    HomomorphismReport,
    InjectivityReport,
    PinchEvent,
    PinchTrace,
    VerificationReport,
    build_context,
    check_homomorphism,
    context_from_halo,
    counterexample_report,
    counterexample_roles,
    counterexample_word,
    injectivity_spot_check,
    phi,
    phi_psi,
    pinch_trace,
    psi,
    verify_suite,
)

__version__ = "0.1.0"
