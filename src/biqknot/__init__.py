"""Long virtual biquandle colorings over a 64-element torus-grid group.

The package builds the order-64 group presented by an oriented torus
grid (calibrated against a fixed set of known products), equips it with
a pair of conjugation operations and a unary map to form a long virtual
biquandle, audits every axiom exhaustively, and computes the coloring
invariant that distinguishes the right and left long virtual trefoils.
"""

from .torus_group import (
    ALL_ELEMENTS,
    CenterSet,
    ColPhase,
    CompositionOrder,
    Convention,
    ConventionInconsistent,
    GroupElement,
    NoConventionMatches,
    RowPhase,
    SeamTwist,
    TorusGroup,
    Vertex,
    build_default_group,
    build_group,
    calibrate_convention,
)
from .group_words import (
    Concat,
    Letter,
    Power,
    WordExpr,
    WordSyntaxError,
    eval_text,
    eval_word,
    format_normal,
    parse_word,
)
from .biquandle import (
    AxiomReport,
    Biquandle,
    FCandidate,
    FKind,
    MissingF,
    audit,
    make_f,
)
from .diagram import (
    ArcAssignment,
    CrossingClass,
    DiagramSyntaxError,
    LongDiagram,
    PairingError,
    Pass,
    PassKind,
    arcs,
    builtin_trefoil,
    classify,
    parse_diagram,
    serialize,
)
from .coloring import (
    ClassicalRelation,
    ConstraintSet,
    DistinguishResult,
    HasVirtualPasses,
    InvariantResult,
    VirtualRelation,
    build_constraints,
    calibrated_biquandle,
    distinguish,
    reference_right_chain,
    select_f_candidate,
    solve,
)

__version__ = "0.1.0"
