"""Sensor network localization by clique-based facial reduction.

Positions wireless sensors from partial squared-distance data and a handful
of anchors, with no semidefinite solver: cliques of the measurement graph
pin the problem to faces of the PSD cone, and the solver merges those faces
by explicit subspace intersections until the anchors and sensors share one
clique, whose coordinates follow in closed form.
"""

from .edm_core import RankTolerance
from .errors import (
    DegenerateAnchors,
    EmptyPositioned,
    IntersectionRankLoss,
    InvalidConfig,
    NoRealBranch,
    NoRigidSeed,
    NotAClique,
    NoUniqueBranch,
    ParseError,
    RangeMismatch,
    RankDeficient,
    SnlError,
)
from .faces import Tolerances
from .instance import (
    Instance,
    PartialEDM,
    average_degree,
    build_partial_edm,
    generate_instance,
    half_range_cliques,
    read_problem,
    write_problem,
)
from .recovery import SolveReport
from .reducer import StepLevel
from .solver import localize

__version__ = "0.1.0"
