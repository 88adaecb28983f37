"""apxpat: approximate pattern search in separated point sets.

Searches delta-separated point sets for eps-approximate homothetic copies
of target patterns (arithmetic progressions, k-grids, arbitrary finite
patterns) by recursive subdivision with explicit success thresholds, finds
eps-collinear subsets via angle bucketing, generates adversarial and
random test inputs, and certifies every result.
"""

from ._kernels import BACKEND
from .bounds import Schedule, ball_volume, kappa, schedule_1d, schedule_nd
from .collinear import CollinearOutcome, angle_bucket, find_collinear
from .generators import gen_adversarial_ap3, gen_jittered_lattice, gen_random_separated
from .geometry import (
    AxisBox,
    Homothety,
    Pattern,
    Point,
    PointSet,
    apply_homothety,
    diameter,
    min_pairwise_distance,
)
from .oracle import enumerate_aps, enumerate_homothetic, exists_collinear
from .pointio import emit_svg, parse_pointset, write_pointset
from .search1d import SearchOutcome, SearchTrace, search_ap
from .searchnd import pattern_grid_resolution, search_grid, search_pattern
from .verifier import VerifyResult, verify_ap, verify_collinear, verify_homothetic

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "Point",
    "PointSet",
    "Pattern",
    "Homothety",
    "AxisBox",
    "min_pairwise_distance",
    "diameter",
    "apply_homothety",
    "Schedule",
    "schedule_1d",
    "schedule_nd",
    "kappa",
    "ball_volume",
    "VerifyResult",
    "verify_ap",
    "verify_homothetic",
    "verify_collinear",
    "SearchOutcome",
    "SearchTrace",
    "search_ap",
    "search_grid",
    "search_pattern",
    "pattern_grid_resolution",
    "CollinearOutcome",
    "angle_bucket",
    "find_collinear",
    "gen_random_separated",
    "gen_jittered_lattice",
    "gen_adversarial_ap3",
    "enumerate_aps",
    "enumerate_homothetic",
    "exists_collinear",
    "parse_pointset",
    "write_pointset",
    "emit_svg",
]
