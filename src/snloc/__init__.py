"""Sensor network localization by clique-based facial reduction.

Positions wireless sensors from partial squared-distance data and a handful
of anchors, with no semidefinite solver: cliques of the measurement graph
pin the problem to faces of the PSD cone, and the solver merges those faces
by explicit subspace intersections until the anchors and sensors share one
clique, whose coordinates follow in closed form.
"""

from .edm_core import (
    EigenPair,
    RankTolerance,
    full_rank_factor,
    kappa,
    kappa_adjoint,
    kappa_pinv,
)
from .errors import (
    DegenerateAnchors,
    EmptyPositioned,
    IntersectionRankLoss,
    InvalidConfig,
    NoRealBranch,
    NoRigidSeed,
    NotAClique,
    ParseError,
    RangeMismatch,
    RankDeficient,
    SnlError,
)
from .faces import (
    ExtendedFaceRep,
    FaceRep,
    Tolerances,
    face_from_clique,
    intersect_faces_nonrigid,
    intersect_faces_rigid,
)
from .instance import (
    CliqueSeed,
    Instance,
    PartialEDM,
    average_degree,
    build_partial_edm,
    generate_instance,
    half_range_cliques,
    read_problem,
    write_problem,
)
from .recovery import (
    Completion,
    SolveReport,
    align_to_anchors,
    metrics,
    points_from_face,
    solve_z,
    two_completions,
)
from .reducer import (
    CliqueFamily,
    StepLevel,
    grow_cliques,
    init_family,
    nonrigid_clique_union,
    nonrigid_node_absorption,
    rigid_clique_union,
    rigid_node_absorption,
    run,
)
from .solver import localize

__version__ = "0.1.0"
